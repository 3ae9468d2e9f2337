package recovery

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// failWith compiles g for all of a's cores and runs it under the plan,
// requiring a core failure.
func failWith(t *testing.T, g *graph.Graph, a *arch.Arch, opt core.Options, p *fault.Plan) *sim.CoreFailure {
	t.Helper()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	_, err = sim.Run(res.Program, sim.Config{Faults: p})
	var cf *sim.CoreFailure
	if !errors.As(err, &cf) {
		t.Fatalf("expected core failure, got %v", err)
	}
	return cf
}

func cleanCycles(t *testing.T, g *graph.Graph, a *arch.Arch, opt core.Options) float64 {
	t.Helper()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return out.Stats.TotalCycles
}

func TestRecoverAfterEachCoreDeathMidStratum(t *testing.T) {
	// The quickstart net under +Stratum: kill each core in turn mid-run
	// and require the recovered output to be bit-exact vs the reference.
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	killAt := 0.4 * cleanCycles(t, g, a, opt)
	for victim := 0; victim < a.NumCores(); victim++ {
		plan := &fault.Plan{Deaths: []fault.Death{{Core: victim, AtCycle: killAt}}}
		cf := failWith(t, g, a, opt, plan)
		if cf.Core != victim {
			t.Fatalf("killed core %d, failure names %d", victim, cf.Core)
		}
		r, err := RecoverFrom(g, a, cf, Options{Opt: opt, Sim: sim.Config{Faults: plan}})
		if err != nil {
			t.Fatalf("victim %d: recover: %v", victim, err)
		}
		if len(r.Survivors) != a.NumCores()-1 {
			t.Errorf("victim %d: survivors %v", victim, r.Survivors)
		}
		for _, s := range r.Survivors {
			if s == victim {
				t.Errorf("victim %d listed as survivor", victim)
			}
		}
		if r.TotalCycles <= killAt {
			t.Errorf("victim %d: degraded latency %.0f not beyond failure point %.0f",
				victim, r.TotalCycles, killAt)
		}
		if err := Validate(g, r); err != nil {
			t.Errorf("victim %d: recovered numerics wrong: %v", victim, err)
		}
	}
}

func TestRecoverResumesFromCheckpoint(t *testing.T) {
	// Base stores every layer, so a late kill leaves a checkpoint and
	// the suffix re-executes strictly fewer layers than the network has.
	g := models.ConvChain(6, 64, 64, 16)
	a := arch.Exynos2100Like()
	opt := core.Base()
	killAt := 0.6 * cleanCycles(t, g, a, opt)
	plan := &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: killAt}}}
	cf := failWith(t, g, a, opt, plan)
	if len(cf.Completed) == 0 {
		t.Fatal("late Base kill left no checkpoint")
	}
	r, err := RecoverFrom(g, a, cf, Options{Opt: opt, Sim: sim.Config{Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	totalCompute := 0
	for _, l := range g.Layers() {
		if !l.IsInput() {
			totalCompute++
		}
	}
	if got := r.ReExecutedLayers(); got >= totalCompute {
		t.Errorf("checkpoint saved nothing: re-executed %d of %d layers", got, totalCompute)
	}
	if len(r.Completed) != len(cf.Completed) {
		t.Errorf("result completed %d layers, failure checkpointed %d", len(r.Completed), len(cf.Completed))
	}
	if err := Validate(g, r); err != nil {
		t.Errorf("recovered numerics wrong: %v", err)
	}
	// Merged accounting covers both the wasted attempt and the rerun.
	merged := r.MergedStats()
	if merged.TotalCycles != r.TotalCycles {
		t.Errorf("merged cycles %.0f != result %.0f", merged.TotalCycles, r.TotalCycles)
	}
	if merged.TotalMACs() < g.TotalMACs() {
		t.Errorf("merged MACs %d below one clean inference %d", merged.TotalMACs(), g.TotalMACs())
	}
}

// Every attempt starts with an empty scratch-pad, so the merged SPM
// high-water mark is the per-core maximum over attempts (with the
// cycle of the attempt that reached it), while buffer counts add up.
func TestMergedStatsSPMPeakIsPerCoreMax(t *testing.T) {
	attempt := func(peaks ...int64) sim.Stats {
		st := sim.Stats{PerCore: make([]sim.CoreStats, len(peaks))}
		for c, p := range peaks {
			st.PerCore[c] = sim.CoreStats{SPMPeakBytes: p, SPMPeakAtCycle: float64(p) / 10, SPMBuffers: 1}
		}
		return st
	}
	r := &Result{
		Failures:  []*sim.CoreFailure{{Partial: attempt(500, 900, 100)}},
		Hangs:     []*sim.HangDetected{{Partial: attempt(700, 0, 300)}},
		DeadCores: []int{1, 2},
		Final:     &sim.Result{Stats: attempt(600, 0, 0)},
	}
	merged := r.MergedStats()
	for c, want := range []int64{700, 900, 300} {
		got := merged.PerCore[c]
		if got.SPMPeakBytes != want || got.SPMPeakAtCycle != float64(want)/10 {
			t.Errorf("core %d: merged peak %d at %v, want %d at %v",
				c, got.SPMPeakBytes, got.SPMPeakAtCycle, want, float64(want)/10)
		}
		if got.SPMBuffers != 3 {
			t.Errorf("core %d: merged %d buffers, want 3", c, got.SPMBuffers)
		}
	}
}

func TestRecoverCascadingFailures(t *testing.T) {
	// Core 0 dies in the first run; the resumed two-core run then loses
	// core 1 (plan times are per-run local clocks); core 2 finishes.
	g := models.ConvChain(5, 48, 48, 16)
	a := arch.Exynos2100Like()
	opt := core.Halo()
	plan := &fault.Plan{Deaths: []fault.Death{
		{Core: 0, AtCycle: 1000},
		{Core: 1, AtCycle: 2000},
	}}
	cf := failWith(t, g, a, opt, plan)
	if cf.Core != 0 {
		t.Fatalf("first failure on core %d, want 0", cf.Core)
	}
	r, err := RecoverFrom(g, a, cf, Options{Opt: opt, Sim: sim.Config{Faults: plan}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) != 2 {
		t.Fatalf("handled %d failures, want 2 (%v)", len(r.Failures), r.DeadCores)
	}
	if len(r.Survivors) != 1 || r.Survivors[0] != 2 {
		t.Errorf("survivors = %v, want [2]", r.Survivors)
	}
	if err := Validate(g, r); err != nil {
		t.Errorf("recovered numerics wrong: %v", err)
	}
}

func TestRecoverAllCoresDead(t *testing.T) {
	g := models.ConvChain(4, 48, 48, 16)
	a := arch.Exynos2100Like()
	plan := &fault.Plan{Deaths: []fault.Death{
		{Core: 0, AtCycle: 1000},
		{Core: 1, AtCycle: 2000},
		{Core: 2, AtCycle: 3000},
	}}
	cf := failWith(t, g, a, core.Halo(), plan)
	_, err := RecoverFrom(g, a, cf, Options{Opt: core.Halo(), Sim: sim.Config{Faults: plan}})
	if err == nil || !strings.Contains(err.Error(), "all") {
		t.Fatalf("expected all-cores-dead error, got %v", err)
	}
}

func chain4(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("chain", tensor.Int8)
	in := g.Input("input", tensor.NewShape(16, 16, 8))
	b := g.MustAdd("b", ops.NewConv2D(3, 3, 1, 1, 8, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	c := g.MustAdd("c", ops.NewConv2D(3, 3, 1, 1, 8, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), b)
	g.MustAdd("d", ops.NewConv2D(3, 3, 1, 1, 8, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), c)
	return g
}

func TestSuffixGraphCheckpointBecomesInput(t *testing.T) {
	g := chain4(t)
	b, _ := g.LayerByName("b")
	suffix, origin, err := SuffixGraph(g, []graph.LayerID{b.ID})
	if err != nil {
		t.Fatal(err)
	}
	// b is checkpointed, the original input feeds only b: the suffix is
	// ckpt_b -> c -> d.
	if suffix.Len() != 3 {
		t.Fatalf("suffix has %d layers: %v", suffix.Len(), suffix.Layers())
	}
	ck, ok := suffix.LayerByName("ckpt_b")
	if !ok || !ck.IsInput() {
		t.Fatal("checkpointed producer not rebuilt as an input")
	}
	if ck.OutShape != b.OutShape {
		t.Errorf("checkpoint shape %v != producer %v", ck.OutShape, b.OutShape)
	}
	if origin[ck.ID] != b.ID {
		t.Errorf("checkpoint origin %d, want %d", origin[ck.ID], b.ID)
	}
	for _, name := range []string{"c", "d"} {
		nl, ok := suffix.LayerByName(name)
		if !ok {
			t.Fatalf("suffix lost layer %s", name)
		}
		ol, _ := g.LayerByName(name)
		if origin[nl.ID] != ol.ID {
			t.Errorf("layer %s origin %d, want %d", name, origin[nl.ID], ol.ID)
		}
	}
	if err := suffix.Validate(); err != nil {
		t.Errorf("suffix graph invalid: %v", err)
	}
}

func TestSuffixGraphEmptyCheckpointMirrorsGraph(t *testing.T) {
	g := chain4(t)
	suffix, origin, err := SuffixGraph(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if suffix.Len() != g.Len() {
		t.Fatalf("suffix %d layers, original %d", suffix.Len(), g.Len())
	}
	for _, l := range suffix.Layers() {
		if origin[l.ID] != l.ID {
			t.Errorf("layer %s origin %d, want identity", l.Name, origin[l.ID])
		}
	}
}

func TestSuffixGraphNothingLeft(t *testing.T) {
	g := chain4(t)
	var all []graph.LayerID
	for _, l := range g.Layers() {
		if !l.IsInput() {
			all = append(all, l.ID)
		}
	}
	if _, _, err := SuffixGraph(g, all); err == nil {
		t.Fatal("fully completed graph produced a suffix")
	}
}
