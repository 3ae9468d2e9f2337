package cost

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/tensor"
)

func model() *Model { return New(arch.Exynos2100Like()) }

func TestComputeCycles(t *testing.T) {
	m := model()
	// 2048 MACs/cycle * 0.55 eff = 1126.4 effective; 11264 MACs -> 10 cycles.
	if got := m.ComputeCycles(0, 11264, tensor.Int8); got != 10 {
		t.Errorf("ComputeCycles = %d, want 10", got)
	}
	if got := m.ComputeCycles(0, 0, tensor.Int8); got != 0 {
		t.Errorf("zero MACs cost %d", got)
	}
	// INT16 halves throughput: same MACs take twice as long.
	i8 := m.ComputeCycles(0, 1<<20, tensor.Int8)
	i16 := m.ComputeCycles(0, 1<<20, tensor.Int16)
	if i16 != 2*i8 {
		t.Errorf("INT16 %d != 2 * INT8 %d", i16, i8)
	}
}

func TestDMACycles(t *testing.T) {
	m := model()
	// Core 0: 16 B/cycle.
	if got := m.DMACycles(0, 1600); got != 100 {
		t.Errorf("DMACycles = %d, want 100", got)
	}
	// Core 2 is slower (8 B/cycle): same bytes take longer.
	if m.DMACycles(2, 1600) <= m.DMACycles(0, 1600) {
		t.Error("slow-DMA core should take longer")
	}
	if m.DMACycles(1, -5) != 0 {
		t.Error("negative bytes must be free")
	}
}

func TestBalanceWeightsEqualCores(t *testing.T) {
	m := New(arch.Homogeneous(4))
	w := m.BalanceWeights(1000, 100, tensor.Int8)
	for i := 1; i < len(w); i++ {
		if w[i] != w[0] {
			t.Errorf("homogeneous weights differ: %v", w)
		}
	}
}

func TestBalanceWeightsFavorFastDMAWhenMemoryBound(t *testing.T) {
	m := model()
	// Memory-bound work: weights should order by DMA bandwidth 16 > 12 > 8.
	w := m.BalanceWeights(1, 1000, tensor.Int8)
	if !(w[0] > w[1] && w[1] > w[2]) {
		t.Errorf("memory-bound weights %v not ordered by DMA bandwidth", w)
	}
	// Compute-bound work: equal MACs/cycle -> equal weights.
	wc := m.BalanceWeights(1e6, 1, tensor.Int8)
	if wc[0] != wc[1] || wc[1] != wc[2] {
		t.Errorf("compute-bound weights %v should be equal", wc)
	}
}

func TestBalanceWeightsZeroWork(t *testing.T) {
	m := model()
	w := m.BalanceWeights(0, 0, tensor.Int8)
	for _, v := range w {
		if v != 1 {
			t.Errorf("zero-work weights = %v, want all 1", w)
		}
	}
}

func TestSyncCyclesIncludesExpectedJitter(t *testing.T) {
	m := model()
	want := m.Arch.SyncCost(3) + m.Arch.SyncJitterCycles/2
	if m.SyncCycles(3) != want {
		t.Errorf("SyncCycles(3) = %d, want %d (barrier + expected jitter)", m.SyncCycles(3), want)
	}
	if m.SyncCycles(1) != 0 {
		t.Error("single core sync must be free")
	}
}
