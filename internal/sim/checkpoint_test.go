package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
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

// CutAtCycle must reproduce the engine's own kill checkpoint: cutting a
// fault-free trace at cycle T yields the same Completed set a core
// death at T reports. This is what lets the tenancy scheduler preempt
// at stratum boundaries without a fault plan.
func TestCutAtCycleMatchesKillCheckpoint(t *testing.T) {
	g := convNet(6)
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	clean, trace, err := runTraced(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
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
		got := CutAtCycle(res.Program, allCores, trace, cut)
		if !reflect.DeepEqual(got, cf.Completed) {
			t.Errorf("cut %.2f: CutAtCycle = %v, kill checkpoint = %v", frac, got, cf.Completed)
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
	out, trace, err := runTraced(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	allCores := []int{0, 1, 2}
	order := strataOrder(res.Program.Strata)

	if got := CutAtCycle(res.Program, allCores, trace, 0); len(got) != 0 {
		t.Errorf("cut at 0 checkpointed %v", got)
	}
	full := CutAtCycle(res.Program, allCores, trace, out.Stats.TotalCycles)
	if !reflect.DeepEqual(full, order) {
		t.Errorf("cut at completion = %v, want full order %v", full, order)
	}

	prev := 0
	for f := 0.0; f <= 1.0; f += 0.05 {
		got := CutAtCycle(res.Program, allCores, trace, out.Stats.TotalCycles*f)
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

// In a concurrent run each placement's cut must count only its own
// cores' events: placement programs index layers in their own graphs,
// and cross-placement traffic would corrupt the counts.
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
	rec := &Recorder{}
	out, err := RunConcurrent(a, []Placement{
		{Program: resBig.Program, Cores: []int{0, 1}},
		{Program: resSmall.Program, Cores: []int{2}},
	}, Config{Hook: rec})
	if err != nil {
		t.Fatal(err)
	}
	end := out.Stats.TotalCycles
	if got, want := CutAtCycle(resBig.Program, []int{0, 1}, rec.Events, end), strataOrder(resBig.Program.Strata); !reflect.DeepEqual(got, want) {
		t.Errorf("big placement full cut = %v, want %v", got, want)
	}
	if got, want := CutAtCycle(resSmall.Program, []int{2}, rec.Events, end), strataOrder(resSmall.Program.Strata); !reflect.DeepEqual(got, want) {
		t.Errorf("small placement full cut = %v, want %v", got, want)
	}
	// Cut the big placement mid-run: still a strict prefix of its own
	// order even though core 2's (small-placement) events share the trace.
	mid := CutAtCycle(resBig.Program, []int{0, 1}, rec.Events, end/2)
	order := strataOrder(resBig.Program.Strata)
	for i, id := range mid {
		if order[i] != id {
			t.Fatalf("mid cut[%d]=%d not a prefix of the big placement's order", i, id)
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
