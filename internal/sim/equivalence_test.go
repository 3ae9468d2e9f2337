package sim_test

import (
	. "repro/internal/sim"

	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// The tests in this file hold the event engine (engine.go) bit-identical
// to the reference engine (reference.go): same Result structs — cycles,
// per-core stats, corruptions — the same recorded trace event for
// event, and same typed failures,
// across every benchmark model builder and a matrix of fault plans. The
// golden file pins the reference engine's cycle counts themselves, so a
// change that drifts both engines together still fails.

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// compiledModels caches one compiled program per model builder for the
// whole test binary (compilation dominates these tests' runtime).
var (
	compiledOnce sync.Once
	compiled     []compiledModel
)

type compiledModel struct {
	name string
	prog *plan.Program
}

func allCompiledModels(t *testing.T) []compiledModel {
	t.Helper()
	compiledOnce.Do(func() {
		a := arch.Exynos2100Like()
		for _, m := range append(models.All(), models.Extra()...) {
			res, err := core.Compile(m.Build(), a, core.Stratum())
			if err != nil {
				panic(fmt.Sprintf("compile %s: %v", m.Name, err))
			}
			compiled = append(compiled, compiledModel{name: m.Name, prog: res.Program})
		}
	})
	return compiled
}

// equivalencePlans is the fault matrix both engines run under. The kill
// cycle is chosen per model as a fraction of its fault-free latency so
// the death lands mid-run.
func equivalencePlans(killCycle float64) []struct {
	name string
	plan *fault.Plan
} {
	return []struct {
		name string
		plan *fault.Plan
	}{
		{"none", nil},
		{"drop", &fault.Plan{Seed: 7, DropRate: 0.01}},
		{"throttle-drop", &fault.Plan{
			Seed:     11,
			DropRate: 0.005,
			Throttles: []fault.Throttle{
				{Core: 1, AtCycle: killCycle * 0.2, Factor: 0.5},
				{Core: 0, AtCycle: killCycle * 0.5, Factor: 0.25},
				{Core: 1, AtCycle: killCycle * 0.8, Factor: 1},
			},
		}},
		{"kill", &fault.Plan{Seed: 3, Deaths: []fault.Death{{Core: 2, AtCycle: killCycle * 0.4}}}},
	}
}

// runBoth runs both engines, each observed by its own Recorder, and
// requires identical outcomes: DeepEqual Results (stats, corruptions)
// on success, DeepEqual errors on failure, typed failures
// (*CoreFailure, *HangDetected, *SPMOverflowError) field for field, and
// in both cases identical recorded events — for a failed run, the
// prefix each engine retired before it stopped. It returns the
// reference engine's result, trace and error.
func runBoth(t *testing.T, a *arch.Arch, placements []Placement, cfg Config) (*Result, []Event, error) {
	t.Helper()
	refRec, evRec := &Recorder{}, &Recorder{}
	refCfg, evCfg := cfg, cfg
	refCfg.Hook, evCfg.Hook = refRec, evRec
	ref, refErr := RunConcurrentReference(a, placements, refCfg)
	ev, evErr := RunConcurrent(a, placements, evCfg)
	if !reflect.DeepEqual(refErr, evErr) {
		t.Fatalf("outcomes diverge:\nreference: %T %+v\nevent:     %T %+v", refErr, refErr, evErr, evErr)
	}
	for i := range refRec.Events {
		if i < len(evRec.Events) && refRec.Events[i] != evRec.Events[i] {
			t.Fatalf("trace diverges at event %d:\nreference: %+v\nevent:     %+v",
				i, refRec.Events[i], evRec.Events[i])
		}
	}
	if len(refRec.Events) != len(evRec.Events) {
		t.Fatalf("trace lengths diverge: reference %d, event %d", len(refRec.Events), len(evRec.Events))
	}
	if refErr != nil || reflect.DeepEqual(ref, ev) {
		return ref, refRec.Events, refErr
	}
	if !reflect.DeepEqual(ref.Stats, ev.Stats) {
		t.Fatalf("stats diverge:\nreference: %+v\nevent:     %+v", ref.Stats, ev.Stats)
	}
	t.Fatalf("corruptions diverge:\nreference: %+v\nevent:     %+v", ref.Corruptions, ev.Corruptions)
	return nil, nil, nil
}

func TestEngineMatchesReferenceOnAllModels(t *testing.T) {
	for _, cm := range allCompiledModels(t) {
		t.Run(cm.name, func(t *testing.T) {
			base, err := RunReference(cm.prog, Config{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			for _, tc := range equivalencePlans(base.Stats.TotalCycles) {
				t.Run(tc.name, func(t *testing.T) {
					cores := make([]int, cm.prog.Arch.NumCores())
					for i := range cores {
						cores[i] = i
					}
					runBoth(t, cm.prog.Arch, []Placement{{Program: cm.prog, Cores: cores}},
						Config{Faults: tc.plan})
				})
			}
		})
	}
}

func TestEngineMatchesReferenceConcurrent(t *testing.T) {
	global := arch.Exynos2100Like()
	p1 := compileOn(t, models.TinyCNN(), global, []int{0})
	p2 := compileOn(t, models.ConvChain(4, 48, 48, 16), global, []int{1, 2})
	placements := []Placement{p1, p2}

	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"none", nil},
		{"drop", &fault.Plan{Seed: 17, DropRate: 0.02}},
		{"throttle", &fault.Plan{Seed: 1, Throttles: []fault.Throttle{{Core: 2, AtCycle: 10000, Factor: 0.3}}}},
		{"kill-used", &fault.Plan{Seed: 5, Deaths: []fault.Death{{Core: 1, AtCycle: 50000}}}},
		// A core that finished (or never ran) dying must be inert in
		// both engines.
		{"kill-late", &fault.Plan{Seed: 5, Deaths: []fault.Death{{Core: 0, AtCycle: 1e12}}}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, global, placements, Config{Faults: tc.plan})
		})
	}
}

func TestEngineMatchesReferenceSynthetic(t *testing.T) {
	// Hostile fault pressure on small programs: high drop rates force
	// many backoff/retry membership changes, throttles at coincident
	// cycles exercise the merged timeline's tie order.
	a := arch.Exynos2100Like()
	res, err := core.Compile(convNet(5), a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"heavy-drop", &fault.Plan{Seed: 23, DropRate: 0.3, MaxRetries: 20}},
		{"drop-exhaust", &fault.Plan{Seed: 23, DropRate: 0.6, MaxRetries: 2}},
		{"tied-events", &fault.Plan{
			Seed: 2,
			Throttles: []fault.Throttle{
				{Core: 0, AtCycle: 40000, Factor: 0.5},
				{Core: 1, AtCycle: 40000, Factor: 0.7},
			},
			Deaths: []fault.Death{{Core: 2, AtCycle: 40000}},
		}},
		{"throttle-at-zero", &fault.Plan{Seed: 0, Throttles: []fault.Throttle{{Core: 0, AtCycle: 0, Factor: 0.1}}}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, a, []Placement{{Program: res.Program, Cores: []int{0, 1, 2}}},
				Config{Faults: tc.plan})
		})
	}
}

// TestEngineGoldenCycles pins the reference engine's cycle counts in a
// golden file and requires the event engine to reproduce them, so a
// semantic change that shifts both engines in lockstep still surfaces.
// Regenerate with: go generate ./internal/sim (which runs this test
// with -update). It refuses to write while the two engines diverge.
func TestEngineGoldenCycles(t *testing.T) {
	got := map[string]float64{}
	for _, cm := range allCompiledModels(t) {
		base, err := RunReference(cm.prog, Config{})
		if err != nil {
			t.Fatalf("%s: reference run: %v", cm.name, err)
		}
		for _, tc := range equivalencePlans(base.Stats.TotalCycles) {
			if tc.name == "kill" {
				continue // failure path; covered by the DeepEqual tests
			}
			key := cm.name + "/" + tc.name
			cores := make([]int, cm.prog.Arch.NumCores())
			for i := range cores {
				cores[i] = i
			}
			pl := []Placement{{Program: cm.prog, Cores: cores}}
			cfg := Config{Faults: tc.plan}
			ref, err := RunConcurrentReference(cm.prog.Arch, pl, cfg)
			if err != nil {
				t.Fatalf("%s: reference: %v", key, err)
			}
			ev, err := RunConcurrent(cm.prog.Arch, pl, cfg)
			if err != nil {
				t.Fatalf("%s: event: %v", key, err)
			}
			if ev.Stats.TotalCycles != ref.Stats.TotalCycles {
				t.Errorf("%s: event engine %v cycles, reference %v", key, ev.Stats.TotalCycles, ref.Stats.TotalCycles)
			}
			got[key] = ref.Stats.TotalCycles
		}
	}

	path := filepath.Join("testdata", "golden_cycles.json")
	if *updateGolden {
		if t.Failed() {
			t.Fatal("engines diverge; refusing to write the golden file")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := map[string]float64{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d entries, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden file but not produced", key)
			continue
		}
		if g != w {
			t.Errorf("%s: cycles %v, golden %v", key, g, w)
		}
	}
}

// TestRetriedTransferUsesFreshRate is the stale-rate regression test: a
// transfer that is dropped and re-issued after backoff must be
// allocated bandwidth from the bus conditions at retry time, never its
// pre-drop rate. The program is built by hand so the arithmetic is
// exact: two loads share a 14 B/cycle bus (7 each under water-filling);
// after the drop, the retried load runs alone and must get the full 14.
func TestRetriedTransferUsesFreshRate(t *testing.T) {
	sub, err := arch.Exynos2100Like().Subset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Core DMA caps are 16 and 12 B/cycle; a 14 B/cycle bus splits 7/7
	// while both run and gives a lone transfer min(cap, 14).
	sub.BusBytesPerCycle = 14
	if sub.Cores[0].DMABytesPerCycle != 16 || sub.Cores[1].DMABytesPerCycle != 12 {
		t.Skipf("arch DMA caps changed (%v, %v); rebuild the arithmetic",
			sub.Cores[0].DMABytesPerCycle, sub.Cores[1].DMABytesPerCycle)
	}

	g := graph.New("stale-rate", tensor.Int8)
	g.Input("in", tensor.NewShape(8, 8, 1))
	prog := &plan.Program{
		Arch:  sub,
		Graph: g,
		Cores: [][]plan.Instr{
			{{Op: plan.LoadInput, Layer: 0, Tile: 0, Bytes: 7000, BarrierID: -1, Note: "victim"}},
			{{Op: plan.LoadInput, Layer: 0, Tile: 0, Bytes: 7700, BarrierID: -1, Note: "peer"}},
		},
	}

	// Find a seed that drops exactly the victim's first attempt. Global
	// node ids: victim = 0, peer = 1.
	var fp *fault.Plan
	for seed := uint64(0); ; seed++ {
		p := &fault.Plan{Seed: seed, DropRate: 0.5}
		if p.Drops(0, 0) && !p.Drops(0, 1) && !p.Drops(1, 0) {
			fp = p
			break
		}
	}

	cfg := Config{Faults: fp}
	_, trace, err := runBoth(t, sub, []Placement{
		{Program: prog, Cores: []int{0, 1}},
	}, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	// Timeline: both setups finish at 400; both drain at 7 B/cycle. The
	// victim's 7000 bytes run out at 1400 and the transfer drops
	// (backoff 2x400 = 800, re-entry at 2200). The peer finishes
	// meanwhile, so the retry runs alone: 2200 + 7000/14 = 2700. A
	// stale 7 B/cycle rate would instead finish at 2200 + 1000 = 3200.
	var victim *Event
	for i := range trace {
		if trace[i].Note == "victim" {
			victim = &trace[i]
		}
	}
	if victim == nil {
		t.Fatal("victim transfer missing from trace")
	}
	if victim.Retries != 1 {
		t.Fatalf("victim retries = %d, want 1 (seed search broken?)", victim.Retries)
	}
	if victim.End != 2700 {
		t.Errorf("retried transfer finished at %v, want 2700 (stale-rate bug gives 3200)", victim.End)
	}
	// The white-box half of this test (per-node rates zeroed after the
	// run) lives in whitebox_test.go, inside package sim.
}
