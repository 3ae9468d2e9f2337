package sim

// White-box tests that reach into unexported engine internals. The rest
// of the test suite lives in package sim_test so it can exercise
// programs produced by internal/core (which now imports sim for the
// compile-time admission check).

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/tensor"
)

func TestUnionLength(t *testing.T) {
	iv := [][2]float64{{0, 10}, {5, 15}, {20, 25}, {24, 26}}
	if got := unionLength(iv); got != 21 {
		t.Errorf("unionLength = %g, want 21", got)
	}
	if unionLength(nil) != 0 {
		t.Error("empty union not zero")
	}
}

// TestRunZeroesRatesAfterRetry is the white-box half of
// TestRetriedTransferUsesFreshRate: after any completed run, every
// per-node rate entry must have been zeroed when its transfer left the
// water-filling set. The program and fault plan mirror that test.
func TestRunZeroesRatesAfterRetry(t *testing.T) {
	sub, err := arch.Exynos2100Like().Subset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
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
	var fp *fault.Plan
	for seed := uint64(0); ; seed++ {
		p := &fault.Plan{Seed: seed, DropRate: 0.5}
		if p.Drops(0, 0) && !p.Drops(0, 1) && !p.Drops(1, 0) {
			fp = p
			break
		}
	}

	var m machine
	if err := m.own.build(sub, []Placement{{Program: prog, Cores: []int{0, 1}}}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := m.run(&m.own, Config{Hook: &Recorder{}, Faults: fp}); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	for nid, r := range m.rates {
		if r != 0 {
			t.Errorf("rates[%d] = %v after run, want 0 (stale entry)", nid, r)
		}
	}
}
