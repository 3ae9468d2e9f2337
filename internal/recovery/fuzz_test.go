package recovery

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/sim"
)

// The fuzz target in this file extends recovery's hand-picked oracle
// (TinyCNN, ConvChain, one named model) to generated cases: a randgraph
// network, one of four machines and three configurations, and one core
// killed or silently hung (caught by the watchdog) at a fuzzed cycle.
// Whatever the outcome, recovery must be bit-exact, its final run must
// equal both engines' runs of the suffix on the survivors, every
// stratum must re-execute bit-exactly on its own, and the two views of
// a checkpoint — the suffix after it and the stratum of everything
// outside it — must build the same graph.

var fuzzConfigs = []core.Options{core.Base(), core.Halo(), core.Stratum()}

// fuzzParams bounds generated inputs to 32×32: the reference executor's
// cost grows with the input area (a 48×48 graph with a transposed
// convolution takes seconds per reference run, and each case runs
// several), and the fuzzing engine treats an input that runs past 10 s
// as a deadlock.
var fuzzParams = randgraph.Params{MaxHW: 32}

// fuzzArchs are the machines the simulator's generated suite covers:
// the 3-core preset, a 4-core machine, the preset with a dedicated halo
// link, and an 8-core machine.
func fuzzArchs() []*arch.Arch {
	direct := arch.Exynos2100Like()
	direct.DirectHaloInterconnect = true
	return []*arch.Arch{arch.Exynos2100Like(), arch.Homogeneous(4), direct, arch.Homogeneous(8)}
}

// FuzzRecoveryBitExact searches randgraph seed × machine ×
// configuration × {kill, hang} × victim core × injection cycle (at/256
// of the clean latency). Its seed corpus lives in testdata/fuzz.
func FuzzRecoveryBitExact(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(2), false, uint8(1), uint8(128))
	f.Add(int64(3), uint8(1), uint8(0), true, uint8(2), uint8(60))
	archs := fuzzArchs()
	f.Fuzz(func(t *testing.T, seed int64, archIdx, cfgIdx uint8, hang bool, victim, at uint8) {
		g := randgraph.New(seed, fuzzParams)
		a := archs[int(archIdx)%len(archs)]
		opt := fuzzConfigs[int(cfgIdx)%len(fuzzConfigs)]
		res := compileFor(t, g, a, opt)
		checkRecovery(t, g, res, opt, hang, int(victim)%a.NumCores(), float64(at)/256)
		checkStrata(t, g, res)
	})
}

func compileFor(t *testing.T, g *graph.Graph, a *arch.Arch, opt core.Options) *core.Result {
	t.Helper()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatalf("%s on %s/%s: compile: %v", g.Name, a.Name, opt.Name(), err)
	}
	return res
}

// checkRecovery runs res, compiled from g under opt, with one core lost
// at frac of the clean latency, requires recovery to be bit-exact, its
// final run to match both engines, and both views of the checkpoints
// involved to agree, and reports whether the run lost the core (a late
// loss lands after the victim's last instruction).
func checkRecovery(t *testing.T, g *graph.Graph, res *core.Result, opt core.Options, hang bool, victim int, frac float64) bool {
	t.Helper()
	fin := sim.NewLayerFinish(sim.Whole(res.Program))
	clean, err := res.Simulate(sim.Config{Hook: fin})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	T := clean.Stats.TotalCycles
	cfg := sim.Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: victim, AtCycle: frac * T}}}}
	if hang {
		cfg = sim.Config{
			Faults:         &fault.Plan{Hangs: []fault.Hang{{Core: victim, AtCycle: frac * T}}},
			WatchdogCycles: 0.1 * T,
		}
	}
	r, err := Run(res, Options{Opt: opt, Sim: cfg})
	if err != nil {
		t.Fatalf("recovery.Run: %v", err)
	}
	if r.Degraded() {
		if err := Validate(g, r); err != nil {
			t.Errorf("recovered run not bit-exact: %v", err)
		}
		checkFinalMatchesEngines(t, res.Program.Arch, r, cfg)
		checkComplementIsSuffix(t, g, r.Completed)
	}
	checkComplementIsSuffix(t, g, sim.CutAtCycle(res.Program, fin.Finish[0], frac*T))
	return r.Degraded()
}

// checkStrata re-executes every stratum of a +Stratum program on its
// own, through StratumGraph, requires it bit-exact, and returns how
// many strata it rebuilt.
func checkStrata(t *testing.T, g *graph.Graph, res *core.Result) int {
	t.Helper()
	if len(res.Program.Strata) == 0 {
		return 0
	}
	ref, err := exec.RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for s := range res.Program.Strata {
		var compute []graph.LayerID
		for _, id := range sim.StratumLayers(res.Program, s) {
			if !g.Layer(id).IsInput() {
				compute = append(compute, id)
			}
		}
		if len(compute) == 0 {
			continue
		}
		sub, origin, err := StratumGraph(g, compute)
		if err != nil {
			t.Fatalf("stratum %d: %v", s, err)
		}
		reexecStratum(t, g, sub, origin, ref)
		n++
	}
	return n
}

// checkComplementIsSuffix requires StratumGraph of every compute layer
// outside checkpoint c to equal SuffixGraph(g, c) but for its name.
func checkComplementIsSuffix(t *testing.T, g *graph.Graph, c []graph.LayerID) {
	t.Helper()
	done := checkpointOf(g, c)
	var rest []graph.LayerID
	for _, l := range g.Layers() {
		if !l.IsInput() && (done.Empty() || !done.done[l.ID]) {
			rest = append(rest, l.ID)
		}
	}
	if len(rest) == 0 {
		return
	}
	suffix, sOrigin, err := SuffixGraph(g, c)
	if err != nil {
		t.Fatalf("suffix after %v: %v", c, err)
	}
	stratum, tOrigin, err := StratumGraph(g, rest)
	if err != nil {
		t.Fatalf("stratum of the complement of %v: %v", c, err)
	}
	if stratum.Name == suffix.Name {
		t.Fatalf("suffix and stratum graphs share the name %q", suffix.Name)
	}
	stratum.Name = suffix.Name
	if !reflect.DeepEqual(stratum, suffix) || !reflect.DeepEqual(tOrigin, sOrigin) {
		t.Errorf("StratumGraph of the complement of %v differs from its SuffixGraph", c)
	}
}

// TestGeneratedRecoveryMatrix runs a fixed slice of the fuzz target's
// space in every test run: each machine and configuration, a kill and a
// hang, early and late. A matrix in which no kill or no hang degrades
// the run would hold the oracles without testing recovery.
func TestGeneratedRecoveryMatrix(t *testing.T) {
	fracs := []float64{0.3, 0.7}
	if testing.Short() {
		fracs = fracs[:1]
	}
	degraded := map[bool]int{}
	g := randgraph.New(1, fuzzParams)
	for ai, a := range fuzzArchs() {
		for _, opt := range fuzzConfigs {
			res := compileFor(t, g, a, opt)
			t.Run(fmt.Sprintf("arch%d/%s/strata", ai, opt.Name()), func(t *testing.T) {
				if n := checkStrata(t, g, res); n == 0 && opt.Stratum {
					t.Error("+Stratum program rebuilt no strata")
				}
			})
			for _, hang := range []bool{false, true} {
				for _, frac := range fracs {
					victim := 1 + ai%(a.NumCores()-1)
					t.Run(fmt.Sprintf("arch%d/%s/hang=%v/%.1f", ai, opt.Name(), hang, frac), func(t *testing.T) {
						if checkRecovery(t, g, res, opt, hang, victim, frac) {
							degraded[hang]++
						}
					})
				}
			}
		}
	}
	if degraded[false] == 0 || degraded[true] == 0 {
		t.Errorf("degraded runs: %d killed, %d hung; want both", degraded[false], degraded[true])
	}
}
