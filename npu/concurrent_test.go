package npu_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/npu"
)

func TestRunConcurrent(t *testing.T) {
	a := npu.Exynos2100Like()
	g1 := npu.BuildModel("MobileNetV2")
	g2 := npu.BuildModel("MobileNetV2")
	rep, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: g1, Cores: []int{0, 1}, Options: npu.Halo()},
		{Graph: g2, Cores: []int{2}, Options: npu.Halo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerWorkloadUS) != 2 {
		t.Fatalf("workload times = %v", rep.PerWorkloadUS)
	}
	for i, us := range rep.PerWorkloadUS {
		if us <= 0 {
			t.Errorf("workload %d time %f", i, us)
		}
	}
	// The 2-core placement must beat the 1-core placement for the
	// same network.
	if rep.PerWorkloadUS[0] >= rep.PerWorkloadUS[1] {
		t.Errorf("2-core run %.1fus >= 1-core run %.1fus", rep.PerWorkloadUS[0], rep.PerWorkloadUS[1])
	}
}

func TestRunConcurrentRejectsOverlap(t *testing.T) {
	a := npu.Exynos2100Like()
	g := npu.BuildModel("MobileNetV2")
	_, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: g, Cores: []int{0, 1}, Options: npu.Base()},
		{Graph: g, Cores: []int{1, 2}, Options: npu.Base()},
	})
	if err == nil {
		t.Fatal("overlapping cores accepted")
	}
	var cc *npu.CoreConflictError
	if !errors.As(err, &cc) {
		t.Fatalf("want *CoreConflictError, got %T: %v", err, err)
	}
	if cc.Core != 1 || cc.Owner != 0 || cc.Workload != 1 {
		t.Errorf("conflict fields = %+v", cc)
	}
}

func TestRunConcurrentRejectsOutOfRangeAndDuplicate(t *testing.T) {
	a := npu.Exynos2100Like()
	g := npu.BuildModel("TinyCNN")

	_, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: g, Cores: []int{5}, Options: npu.Base()},
	})
	var cc *npu.CoreConflictError
	if !errors.As(err, &cc) {
		t.Fatalf("out-of-range: want *CoreConflictError, got %T: %v", err, err)
	}
	if cc.Core != 5 || cc.Owner != -1 {
		t.Errorf("out-of-range fields = %+v", cc)
	}

	_, err = npu.RunConcurrent(a, []npu.Workload{
		{Graph: g, Cores: []int{0, 0}, Options: npu.Base()},
	})
	if !errors.As(err, &cc) {
		t.Fatalf("duplicate: want *CoreConflictError, got %T: %v", err, err)
	}
	if cc.Core != 0 || cc.Owner != 0 || cc.Workload != 0 {
		t.Errorf("duplicate fields = %+v", cc)
	}
}

// The concurrent path must honor caller deadlines the way the
// single-model RunCtx path does: a canceled context aborts promptly
// with a typed, classifiable error.
func TestRunConcurrentCtxCancellation(t *testing.T) {
	a := npu.Exynos2100Like()
	g1 := npu.BuildModel("MobileNetV2")
	g2 := npu.BuildModel("TinyCNN")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := npu.RunConcurrentCtx(ctx, a, []npu.Workload{
		{Graph: g1, Cores: []int{0, 1}, Options: npu.Halo()},
		{Graph: g2, Cores: []int{2}, Options: npu.Halo()},
	}, npu.SimConfig{})
	if err == nil {
		t.Fatal("canceled context did not abort the concurrent run")
	}
	if !errors.Is(err, npu.ErrCanceled) {
		t.Errorf("want ErrCanceled, got %v", err)
	}
}

// Concurrent runs must go through the fingerprint compile cache:
// re-running the identical (model, subset, options) placement performs
// zero fresh compiles.
func TestRunConcurrentUsesCompileCache(t *testing.T) {
	a := npu.Exynos2100Like()
	workloads := []npu.Workload{
		{Graph: npu.BuildModel("TinyCNN"), Cores: []int{0}, Options: npu.Halo()},
		{Graph: npu.BuildModel("ShuffleNetV2"), Cores: []int{1, 2}, Options: npu.Halo()},
	}
	if _, err := npu.RunConcurrent(a, workloads); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := core.CacheStats()
	if _, err := npu.RunConcurrent(a, workloads); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := core.CacheStats()
	if misses1 != misses0 {
		t.Errorf("identical concurrent run recompiled: %d fresh compiles", misses1-misses0)
	}
	if hits1-hits0 < 2 {
		t.Errorf("identical concurrent run hit the cache %d times, want >= 2", hits1-hits0)
	}
}

// perWorkloadPlacements builds distinct-size models so each workload's
// completion time is distinguishable, pinning that PerWorkloadUS (and
// Stats.ProgramCycles) indexes align with the input workload order.
func TestPerWorkloadOrderTwoTenants(t *testing.T) {
	a := npu.Exynos2100Like()
	big := npu.BuildModel("MobileNetV2")
	tiny := npu.BuildModel("TinyCNN")

	rep, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: big, Cores: []int{0, 1}, Options: npu.Halo()},
		{Graph: tiny, Cores: []int{2}, Options: npu.Halo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerWorkloadUS) != 2 {
		t.Fatalf("PerWorkloadUS = %v", rep.PerWorkloadUS)
	}
	// TinyCNN on one core is far faster than MobileNetV2 on two; if
	// the indexes were permuted, this inequality flips.
	if rep.PerWorkloadUS[1] >= rep.PerWorkloadUS[0] {
		t.Errorf("order broken: tiny workload [1] %.1fus >= big workload [0] %.1fus",
			rep.PerWorkloadUS[1], rep.PerWorkloadUS[0])
	}
	// Swap the inputs: the times must swap with them.
	swapped, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: tiny, Cores: []int{2}, Options: npu.Halo()},
		{Graph: big, Cores: []int{0, 1}, Options: npu.Halo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if swapped.PerWorkloadUS[0] != rep.PerWorkloadUS[1] || swapped.PerWorkloadUS[1] != rep.PerWorkloadUS[0] {
		t.Errorf("swapped inputs did not swap times: %v vs %v", swapped.PerWorkloadUS, rep.PerWorkloadUS)
	}
}

func TestPerWorkloadOrderThreeTenants(t *testing.T) {
	a := npu.Exynos2100Like()
	rep, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: npu.BuildModel("MobileNetV2"), Cores: []int{0}, Options: npu.Halo()},
		{Graph: npu.BuildModel("TinyCNN"), Cores: []int{1}, Options: npu.Halo()},
		{Graph: npu.BuildModel("ShuffleNetV2"), Cores: []int{2}, Options: npu.Halo()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerWorkloadUS) != 3 {
		t.Fatalf("PerWorkloadUS = %v", rep.PerWorkloadUS)
	}
	if len(rep.Stats.ProgramCycles) != 3 {
		t.Fatalf("ProgramCycles = %v", rep.Stats.ProgramCycles)
	}
	for i, us := range rep.PerWorkloadUS {
		if want := rep.Stats.ProgramCycles[i] / float64(a.ClockMHz); us != want {
			t.Errorf("workload %d: PerWorkloadUS %.3f != ProgramCycles/clock %.3f", i, us, want)
		}
	}
	// TinyCNN (workload 1) is the smallest model; on identical-compute
	// cores it must finish first.
	if rep.PerWorkloadUS[1] >= rep.PerWorkloadUS[0] || rep.PerWorkloadUS[1] >= rep.PerWorkloadUS[2] {
		t.Errorf("TinyCNN at index 1 not fastest: %v", rep.PerWorkloadUS)
	}
}

// Under a partial kill (one placement's core dies), the typed
// CoreFailure's Partial stats must keep ProgramCycles aligned with the
// input workload order: the failed placement's index is reported, and
// the surviving placements' entries stay at their indexes.
func TestPerWorkloadOrderPartialKill(t *testing.T) {
	a := npu.Exynos2100Like()
	plan := &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: 1000}}}
	_, err := npu.RunConcurrentCtx(nil, a, []npu.Workload{
		{Graph: npu.BuildModel("TinyCNN"), Cores: []int{0, 1}, Options: npu.Halo()},
		{Graph: npu.BuildModel("MobileNetV2"), Cores: []int{2}, Options: npu.Halo()},
	}, npu.SimConfig{Faults: plan})
	if err == nil {
		t.Fatal("killed core did not fail the run")
	}
	var cf *sim.CoreFailure
	if !errors.As(err, &cf) {
		t.Fatalf("want *sim.CoreFailure, got %T: %v", err, err)
	}
	if cf.Core != 2 {
		t.Errorf("failed core = %d, want 2", cf.Core)
	}
	if cf.Placement != 1 {
		t.Errorf("failed placement = %d, want 1 (workload order)", cf.Placement)
	}
	if len(cf.Partial.ProgramCycles) != 2 {
		t.Fatalf("partial ProgramCycles = %v", cf.Partial.ProgramCycles)
	}
	// The failed placement (index 1) cannot have completed; its entry
	// is bounded by the failure time.
	if cf.Partial.ProgramCycles[1] > cf.AtCycle {
		t.Errorf("dead placement progressed past the kill: %.0f > %.0f",
			cf.Partial.ProgramCycles[1], cf.AtCycle)
	}
}

// Workloads listing the same cores form a stream: the second starts
// when the first retires, so time multiplexing the whole NPU is one
// RunConcurrent and the second completes after both isolated runs.
func TestRunConcurrentStreamTimeMultiplexes(t *testing.T) {
	a := npu.Exynos2100Like()
	det := npu.BuildModel("MobileNetV2-SSD")
	cls := npu.BuildModel("MobileNetV2")
	all := []int{0, 1, 2}
	rep, err := npu.RunConcurrent(a, []npu.Workload{
		{Graph: det, Cores: all, Options: npu.Stratum()},
		{Graph: cls, Cores: all, Options: npu.Stratum()},
	})
	if err != nil {
		t.Fatal(err)
	}
	alone := make([]float64, 2)
	for i, g := range []*npu.Graph{det, cls} {
		r, err := npu.Run(g, a, npu.Stratum())
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = r.LatencyMicros()
	}
	if got := rep.PerWorkloadUS[0]; math.Abs(got-alone[0]) > 1e-9*alone[0] {
		t.Errorf("first workload done at %v us, alone %v us", got, alone[0])
	}
	if got, want := rep.PerWorkloadUS[1], alone[0]+alone[1]; math.Abs(got-want) > 1e-9*want {
		t.Errorf("second workload done at %v us, isolated latencies sum to %v us", got, want)
	}
}
