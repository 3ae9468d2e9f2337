package sim_test

import (
	. "repro/internal/sim"

	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// TestRetryStatsCountOnce is the DMA-retry accounting regression test:
// a dropped-and-reissued transfer must contribute its payload bytes to
// CoreStats exactly once, count exactly one retry, and report a LoadBusy
// interval spanning the whole chain (setup, first attempt, backoff,
// retry) once — never the pre-drop segment plus the full chain again.
// The program mirrors TestRetriedTransferUsesFreshRate so every number
// is exact.
func TestRetryStatsCountOnce(t *testing.T) {
	sub, err := arch.Exynos2100Like().Subset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sub.BusBytesPerCycle = 14
	if sub.Cores[0].DMABytesPerCycle != 16 || sub.Cores[1].DMABytesPerCycle != 12 {
		t.Skipf("arch DMA caps changed (%v, %v); rebuild the arithmetic",
			sub.Cores[0].DMABytesPerCycle, sub.Cores[1].DMABytesPerCycle)
	}

	g := graph.New("retry-stats", tensor.Int8)
	g.Input("in", tensor.NewShape(8, 8, 1))
	prog := &plan.Program{
		Arch:  sub,
		Graph: g,
		Cores: [][]plan.Instr{
			{{Op: plan.LoadInput, Layer: 0, Tile: 0, Bytes: 7000, BarrierID: -1, Note: "victim"}},
			{{Op: plan.LoadInput, Layer: 0, Tile: 0, Bytes: 7700, BarrierID: -1, Note: "peer"}},
		},
	}

	// Seed search: drop exactly the victim's first attempt (global node
	// ids: victim = 0, peer = 1).
	var fp *fault.Plan
	for seed := uint64(0); ; seed++ {
		p := &fault.Plan{Seed: seed, DropRate: 0.5}
		if p.Drops(0, 0) && !p.Drops(0, 1) && !p.Drops(1, 0) {
			fp = p
			break
		}
	}

	res, trace, err := runBoth(t, sub, []Placement{
		{Program: prog, Cores: []int{0, 1}},
	}, Config{Faults: fp})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

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

	v, p := res.Stats.PerCore[0], res.Stats.PerCore[1]
	// Payload bytes count once per instruction: a double-counting bug
	// would report 14000 here (7000 delivered twice over the bus).
	if v.BytesLoaded != 7000 {
		t.Errorf("victim core BytesLoaded = %d, want 7000 (payload counted once)", v.BytesLoaded)
	}
	if p.BytesLoaded != 7700 {
		t.Errorf("peer core BytesLoaded = %d, want 7700", p.BytesLoaded)
	}
	if v.Retries != 1 || p.Retries != 0 {
		t.Errorf("retries = %d/%d, want 1/0", v.Retries, p.Retries)
	}
	// LoadBusy is the single chain interval from the trace event, not
	// pre-drop busy plus the chain again.
	if want := victim.End - victim.Start; v.LoadBusy != want {
		t.Errorf("victim core LoadBusy = %v, want %v (chain counted once)", v.LoadBusy, want)
	}
}

// TestDropsPreservePayloadTotals checks the same invariant at model
// scale: injecting DMA drops re-transmits bytes over the bus but must
// not inflate the payload counters — BytesLoaded, BytesStored, and MACs
// match the fault-free run exactly, while retries and latency grow.
func TestDropsPreservePayloadTotals(t *testing.T) {
	a := arch.Exynos2100Like()
	res, err := core.Compile(models.TinyCNN(), a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := Run(res.Program, Config{Faults: &fault.Plan{Seed: 7, DropRate: 0.05}})
	if err != nil {
		t.Fatal(err)
	}

	var retries int
	for c := range clean.Stats.PerCore {
		cs, fs := clean.Stats.PerCore[c], faulted.Stats.PerCore[c]
		if cs.BytesLoaded != fs.BytesLoaded || cs.BytesStored != fs.BytesStored || cs.MACs != fs.MACs {
			t.Errorf("core %d payload drifted under drops: loaded %d->%d, stored %d->%d, MACs %d->%d",
				c, cs.BytesLoaded, fs.BytesLoaded, cs.BytesStored, fs.BytesStored, cs.MACs, fs.MACs)
		}
		retries += fs.Retries
	}
	if retries == 0 {
		t.Fatal("drop plan injected no retries; the test exercises nothing")
	}
	if faulted.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("faulted run (%v cycles) not slower than clean (%v) despite %d retries",
			faulted.Stats.TotalCycles, clean.Stats.TotalCycles, retries)
	}
}
