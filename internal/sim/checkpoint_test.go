package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/randgraph"
)

// strataOrder flattens a program's strata into the execution order the
// checkpoint rule cuts prefixes of.
func strataOrder(strata [][]graph.LayerID) []graph.LayerID {
	var order []graph.LayerID
	for _, s := range strata {
		order = append(order, s...)
	}
	return order
}

// bothHooks feeds every sample to a Recorder and a LayerFinish, so one
// run yields the full trace and the per-layer finish cycles.
type bothHooks struct {
	rec *Recorder
	fin *LayerFinish
}

func (h bothHooks) OnInstr(e Event) { h.rec.OnInstr(e); h.fin.OnInstr(e) }

// observe co-runs placements on a, recording the trace and the finish
// cycles.
func observe(t *testing.T, a *arch.Arch, placements []Placement) (*Result, []Event, *LayerFinish) {
	t.Helper()
	rec, fin := &Recorder{}, NewLayerFinish(placements)
	out, err := RunConcurrent(a, placements, Config{Hook: bothHooks{rec, fin}})
	if err != nil {
		t.Fatal(err)
	}
	return out, rec.Events, fin
}

// countCut is the cut by counting trace events: a layer is done when
// every one of its instructions has an event on the placement's cores
// with End <= cut.
func countCut(p *plan.Program, cores []int, trace []Event, cut float64) []graph.LayerID {
	nl := p.Graph.Len()
	done := make([]int, nl)
	total := make([]int, nl)
	hasStore := make([]bool, nl)
	for _, stream := range p.Cores {
		for _, in := range stream {
			total[in.Layer]++
			if in.Op == plan.Store {
				hasStore[in.Layer] = true
			}
		}
	}
	mine := map[int]bool{}
	for _, c := range cores {
		mine[c] = true
	}
	for _, ev := range trace {
		if mine[ev.Core] && ev.End <= cut+1e-6 && int(ev.Layer) < nl {
			done[ev.Layer]++
		}
	}
	return CheckpointOf(p, done, total, hasStore)
}

// cutAt is CutAtCycle on the placement's finish cycles, checked against
// the trace count.
func cutAt(t *testing.T, p *plan.Program, cores []int, trace []Event, finish []float64, cut float64) []graph.LayerID {
	t.Helper()
	got := CutAtCycle(p, finish, cut)
	if want := countCut(p, cores, trace, cut); !reflect.DeepEqual(got, want) {
		t.Errorf("cut %.1f: CutAtCycle on finish cycles = %v, trace count = %v", cut, got, want)
	}
	return got
}

// CutAtCycle must reproduce the engine's own kill checkpoint: cutting a
// fault-free run at cycle T yields the same Completed set a core death
// at T reports. This is what lets the tenancy scheduler preempt at
// stratum boundaries without a fault plan.
func TestCutAtCycleMatchesKillCheckpoint(t *testing.T) {
	g := convNet(6)
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	clean, trace, fin := observe(t, a, Whole(res.Program))
	allCores := []int{0, 1, 2}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		cut := clean.Stats.TotalCycles * frac
		_, err := Run(res.Program, Config{Faults: &fault.Plan{
			Deaths: []fault.Death{{Core: 1, AtCycle: cut}},
		}})
		var cf *CoreFailure
		if !errors.As(err, &cf) {
			t.Fatalf("cut %.2f: expected *CoreFailure, got %v", frac, err)
		}
		got := cutAt(t, res.Program, allCores, trace, fin.Finish[0], cut)
		if !reflect.DeepEqual(got, cf.Completed) {
			t.Errorf("cut %.2f: CutAtCycle = %v, kill checkpoint = %v", frac, got, cf.Completed)
		}
	}
}

// On a failed run, the finish cycles the LayerFinish saw before the loss
// cut at the loss cycle give the engine's own checkpoint, here for the
// second element of a stream [p, p] killed or hung mid-way on each of
// its cores (a hang is lost when the watchdog detects it). This is why
// tenancy cuts every running stream element by CutAtCycle.
func TestCutAtCycleMatchesFailedStream(t *testing.T) {
	g := convNet(6)
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	clean, _, _ := observe(t, a, Whole(res.Program))
	T := clean.Stats.TotalCycles
	stream := append(Whole(res.Program), Whole(res.Program)...)
	for _, kind := range []string{"kill", "hang"} {
		for victim := range a.NumCores() {
			for _, frac := range []float64{1.25, 1.5, 1.75} {
				cfg := Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: victim, AtCycle: frac * T}}}}
				if kind == "hang" {
					cfg = Config{Faults: &fault.Plan{Hangs: []fault.Hang{{Core: victim, AtCycle: frac * T}}}, WatchdogCycles: T / 20}
				}
				name := fmt.Sprintf("%s of core %d at %.2f T", kind, victim, frac)
				fin := NewLayerFinish(stream)
				cfg.Hook = fin
				_, err := RunConcurrent(a, stream, cfg)
				l, ok := LossOf(err)
				if !ok || l.Placement != 1 {
					t.Fatalf("%s: loss %+v (%v), want the second element", name, l, err)
				}
				for _, f := range fin.Finish[0] {
					if f > T {
						t.Errorf("%s: first element has a layer finishing at %v, after %v", name, f, T)
					}
				}
				if got := CutAtCycle(res.Program, fin.Finish[1], l.AtCycle); !reflect.DeepEqual(got, l.Completed) {
					t.Errorf("%s: CutAtCycle = %v, engine checkpoint = %v", name, got, l.Completed)
				}
			}
		}
	}
}

func TestCutAtCycleBoundsAndMonotonic(t *testing.T) {
	g := convNet(5)
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	out, trace, fin := observe(t, a, Whole(res.Program))
	allCores := []int{0, 1, 2}
	order := strataOrder(res.Program.Strata)

	if got := cutAt(t, res.Program, allCores, trace, fin.Finish[0], 0); len(got) != 0 {
		t.Errorf("cut at 0 checkpointed %v", got)
	}
	full := cutAt(t, res.Program, allCores, trace, fin.Finish[0], out.Stats.TotalCycles)
	if !reflect.DeepEqual(full, order) {
		t.Errorf("cut at completion = %v, want full order %v", full, order)
	}

	prev := 0
	for f := 0.0; f <= 1.0; f += 0.05 {
		got := cutAt(t, res.Program, allCores, trace, fin.Finish[0], out.Stats.TotalCycles*f)
		if len(got) < prev {
			t.Fatalf("checkpoint shrank at f=%.2f: %d -> %d layers", f, prev, len(got))
		}
		prev = len(got)
		for i, id := range got {
			if order[i] != id {
				t.Fatalf("f=%.2f: checkpoint[%d]=%d not a prefix of execution order", f, i, id)
			}
		}
	}
}

// In a concurrent run each placement's cut must see only its own
// instructions: placement programs index layers in their own graphs,
// and cross-placement events would corrupt the finish cycles.
func TestCutAtCycleFiltersByPlacementCores(t *testing.T) {
	gBig := convNet(6)
	gSmall := convNet(2)
	a := arch.Exynos2100Like()
	resBig, err := core.Compile(gBig, mustSubset(t, a, []int{0, 1}), core.Base())
	if err != nil {
		t.Fatal(err)
	}
	resSmall, err := core.Compile(gSmall, mustSubset(t, a, []int{2}), core.Base())
	if err != nil {
		t.Fatal(err)
	}
	out, trace, fin := observe(t, a, []Placement{
		{Program: resBig.Program, Cores: []int{0, 1}},
		{Program: resSmall.Program, Cores: []int{2}},
	})
	end := out.Stats.TotalCycles
	if got, want := cutAt(t, resBig.Program, []int{0, 1}, trace, fin.Finish[0], end), strataOrder(resBig.Program.Strata); !reflect.DeepEqual(got, want) {
		t.Errorf("big placement full cut = %v, want %v", got, want)
	}
	if got, want := cutAt(t, resSmall.Program, []int{2}, trace, fin.Finish[1], end), strataOrder(resSmall.Program.Strata); !reflect.DeepEqual(got, want) {
		t.Errorf("small placement full cut = %v, want %v", got, want)
	}
	// Cut the big placement mid-run: still a strict prefix of its own
	// order even though core 2's (small-placement) events share the run.
	mid := cutAt(t, resBig.Program, []int{0, 1}, trace, fin.Finish[0], end/2)
	order := strataOrder(resBig.Program.Strata)
	for i, id := range mid {
		if order[i] != id {
			t.Fatalf("mid cut[%d]=%d not a prefix of the big placement's order", i, id)
		}
	}
}

// On generated co-runs (two randgraph programs sharing the bus, every
// configuration), CutAtCycle on finish cycles equals the trace count
// for both placements at every twentieth of the run.
func TestCutAtCycleGeneratedCoRuns(t *testing.T) {
	a := arch.Exynos2100Like()
	subsets := [][]int{{0, 1}, {2}}
	for seed := int64(1); seed <= 6; seed++ {
		for _, opt := range genConfigs {
			t.Run(fmt.Sprintf("seed%d/%s", seed, opt.Name()), func(t *testing.T) {
				var placements []Placement
				for i, cores := range subsets {
					g := randgraph.New(seed*10+int64(i), randgraph.Params{})
					res, err := core.Compile(g, mustSubset(t, a, cores), opt)
					if err != nil {
						t.Fatal(err)
					}
					placements = append(placements, Placement{Program: res.Program, Cores: cores})
				}
				out, trace, fin := observe(t, a, placements)
				for f := 0.0; f <= 1.0; f += 0.05 {
					for i, pl := range placements {
						cutAt(t, pl.Program, pl.Cores, trace, fin.Finish[i], f*out.Stats.TotalCycles)
					}
				}
			})
		}
	}
}

func mustSubset(t *testing.T, a *arch.Arch, cores []int) *arch.Arch {
	t.Helper()
	sub, err := a.Subset(cores)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}
