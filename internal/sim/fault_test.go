package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
)

// faultRun compiles and simulates under a fault plan.
func faultRun(t *testing.T, g *graph.Graph, a *arch.Arch, opt core.Options, p *fault.Plan) (*Result, error) {
	t.Helper()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return Run(res.Program, Config{Faults: p})
}

func TestFaultDeterminism(t *testing.T) {
	// Same (program, plan, seed) must reproduce byte-identical traces
	// and stats across runs — the acceptance bar for fault injection.
	g := convNet(4)
	a := arch.Exynos2100Like()
	plan := &fault.Plan{
		Seed:      99,
		DropRate:  0.05,
		Throttles: []fault.Throttle{{Core: 1, AtCycle: 20000, Factor: 0.5}},
	}
	res, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	first, firstTrace, err := runTraced(res.Program, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	second, secondTrace, err := runTraced(res.Program, Config{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Stats, second.Stats) {
		t.Errorf("stats differ across identical runs:\n%+v\nvs\n%+v", first.Stats, second.Stats)
	}
	if !reflect.DeepEqual(firstTrace, secondTrace) {
		t.Error("event traces differ across identical runs")
	}
	// A different seed must actually change behavior (drops land on
	// different transfers).
	_, otherTrace, err := runTraced(res.Program, Config{Faults: &fault.Plan{
		Seed:      100,
		DropRate:  0.05,
		Throttles: plan.Throttles,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(firstTrace, otherTrace) {
		t.Error("different fault seeds produced identical traces")
	}
}

func TestDropsCostLatencyAndCountRetries(t *testing.T) {
	g := convNet(4)
	a := arch.Exynos2100Like()
	clean, err := faultRun(t, g, a, core.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := faultRun(t, g, a, core.Base(), &fault.Plan{Seed: 7, DropRate: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	for _, cs := range flaky.Stats.PerCore {
		retries += cs.Retries
	}
	if retries <= 0 {
		t.Fatal("15% drop rate produced no retries")
	}
	if flaky.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("flaky run %.0f not slower than clean %.0f",
			flaky.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
	// Retried transfers re-move their bytes, but the accounted traffic
	// (bytes that arrived) must match the clean run.
	if flaky.Stats.TotalBytes() != clean.Stats.TotalBytes() {
		t.Errorf("accounted bytes changed under drops: %d vs %d",
			flaky.Stats.TotalBytes(), clean.Stats.TotalBytes())
	}
	for _, cs := range clean.Stats.PerCore {
		if cs.Retries != 0 {
			t.Error("clean run recorded retries")
		}
	}
}

func TestThrottleSlowsRun(t *testing.T) {
	g := convNet(4)
	a := arch.Exynos2100Like()
	clean, err := faultRun(t, g, a, core.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := faultRun(t, g, a, core.Base(), &fault.Plan{
		Throttles: []fault.Throttle{{Core: 0, AtCycle: 0, Factor: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("throttled run %.0f not slower than clean %.0f",
			hot.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
	// Throttling an out-of-range core is a configuration bug, rejected
	// with a typed error before the run starts.
	_, err = faultRun(t, g, a, core.Base(), &fault.Plan{
		Throttles: []fault.Throttle{{Core: 17, AtCycle: 0, Factor: 0.25}},
	})
	var cre *fault.CoreRangeError
	if !errors.As(err, &cre) {
		t.Fatalf("out-of-range throttle: got %v, want *fault.CoreRangeError", err)
	}
	if cre.Core != 17 || cre.NCores != a.NumCores() {
		t.Errorf("CoreRangeError = %+v", cre)
	}
}

func TestCoreDeathReturnsTypedFailure(t *testing.T) {
	// Base stores every layer to global memory, so a mid-run death
	// checkpoints a real prefix of the execution order.
	g := convNet(6)
	a := arch.Exynos2100Like()
	clean, err := faultRun(t, g, a, core.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	killAt := clean.Stats.TotalCycles / 2
	_, err = faultRun(t, g, a, core.Base(), &fault.Plan{
		Deaths: []fault.Death{{Core: 1, AtCycle: killAt}},
	})
	var cf *CoreFailure
	if !errors.As(err, &cf) {
		t.Fatalf("expected *CoreFailure, got %v", err)
	}
	if cf.Kind != FailCoreDeath || cf.Core != 1 {
		t.Errorf("failure = %+v", cf)
	}
	if cf.AtCycle != killAt {
		t.Errorf("failed at %.0f, killed at %.0f", cf.AtCycle, killAt)
	}
	if cf.Partial.TotalCycles != killAt {
		t.Errorf("partial stats end at %.0f, want %.0f", cf.Partial.TotalCycles, killAt)
	}
	if len(cf.Completed) == 0 {
		t.Error("mid-run death under Base checkpointed nothing")
	}
	if len(cf.Completed) >= g.Len() {
		t.Error("mid-run death checkpointed the whole graph")
	}
	// The checkpoint must be a strict prefix of the program's flattened
	// strata order.
	res, err := core.Compile(g, a, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	var order []graph.LayerID
	for _, s := range res.Program.Strata {
		order = append(order, s...)
	}
	for i, id := range cf.Completed {
		if order[i] != id {
			t.Fatalf("checkpoint[%d] = layer %d, execution order has %d", i, id, order[i])
		}
	}
}

func TestForwardingConfigsCheckpointNothingMidRun(t *testing.T) {
	// +Halo and +Stratum forward every intermediate through SPM — only
	// the final layer is stored to global memory. A mid-run core death
	// therefore loses everything (empty checkpoint): the exposure the
	// stratum trade-off buys its speed with, quantified by ablation A11.
	g := convNet(6)
	a := arch.Exynos2100Like()
	for _, opt := range []core.Options{core.Halo(), core.Stratum()} {
		clean, err := faultRun(t, g, a, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = faultRun(t, g, a, opt, &fault.Plan{
			Deaths: []fault.Death{{Core: 1, AtCycle: clean.Stats.TotalCycles / 2}},
		})
		var cf *CoreFailure
		if !errors.As(err, &cf) {
			t.Fatalf("%s: expected *CoreFailure, got %v", opt.Name(), err)
		}
		if len(cf.Completed) != 0 {
			t.Errorf("%s: mid-run death checkpointed %d layers, want 0 (SPM-only intermediates)",
				opt.Name(), len(cf.Completed))
		}
	}
}

func TestDeathAfterCompletionIsHarmless(t *testing.T) {
	g := convNet(3)
	a := arch.Exynos2100Like()
	clean, err := faultRun(t, g, a, core.Base(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := faultRun(t, g, a, core.Base(), &fault.Plan{
		Deaths: []fault.Death{{Core: 0, AtCycle: clean.Stats.TotalCycles * 10}},
	})
	if err != nil {
		t.Fatalf("death after completion failed the run: %v", err)
	}
	if out.Stats.TotalCycles != clean.Stats.TotalCycles {
		t.Errorf("latency changed: %.0f vs %.0f", out.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
}

func TestDeathOfUnassignedCoreIsHarmless(t *testing.T) {
	// A placement on cores {0, 1} must survive core 2 dying.
	global := arch.Exynos2100Like()
	p := compileOn(t, convNet(3), global, []int{0, 1})
	out, err := RunConcurrent(global, []Placement{p}, Config{
		Faults: &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: 10}}},
	})
	if err != nil {
		t.Fatalf("unassigned core death failed the run: %v", err)
	}
	if out.Stats.TotalCycles <= 0 {
		t.Error("run did not complete")
	}
}

func TestDMARetriesExhaustedFailsCore(t *testing.T) {
	g := convNet(3)
	a := arch.Exynos2100Like()
	_, err := faultRun(t, g, a, core.Base(), &fault.Plan{
		Seed: 3, DropRate: 0.9, MaxRetries: 1,
	})
	var cf *CoreFailure
	if !errors.As(err, &cf) {
		t.Fatalf("expected *CoreFailure, got %v", err)
	}
	if cf.Kind != FailDMAExhausted {
		t.Errorf("kind = %v, want %v", cf.Kind, FailDMAExhausted)
	}
	if cf.Partial.PerCore[cf.Core].Retries < 2 {
		t.Errorf("failed core retried %d times, want >= 2", cf.Partial.PerCore[cf.Core].Retries)
	}
}

func TestInvalidPlanRejected(t *testing.T) {
	g := convNet(2)
	if _, err := faultRun(t, g, arch.Exynos2100Like(), core.Base(),
		&fault.Plan{DropRate: 1.5}); err == nil {
		t.Error("drop rate 1.5 accepted")
	}
}

func TestLatencyMicrosGuardsBadClock(t *testing.T) {
	s := &Stats{TotalCycles: 1300}
	if got := s.LatencyMicros(1300); got != 1 {
		t.Errorf("LatencyMicros(1300) = %g", got)
	}
	if got := s.LatencyMicros(0); got != 0 {
		t.Errorf("LatencyMicros(0) = %g, want 0", got)
	}
	if got := s.LatencyMicros(-5); got != 0 {
		t.Errorf("LatencyMicros(-5) = %g, want 0", got)
	}
}

// TestConcurrentFaultStress exercises fault-injected simulations from
// many goroutines sharing one compiled program — the race-detector
// target for CI. Each seed is run twice and must agree with itself.
func TestConcurrentFaultStress(t *testing.T) {
	g := convNet(3)
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			p := &fault.Plan{
				Seed:      seed,
				DropRate:  0.08,
				Throttles: []fault.Throttle{{Core: int(seed % 3), AtCycle: 5000, Factor: 0.6}},
			}
			first, err := Run(res.Program, Config{Faults: p})
			if err != nil {
				errs <- err
				return
			}
			second, err := Run(res.Program, Config{Faults: p})
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(first.Stats, second.Stats) {
				errs <- errors.New("stats diverged for identical seed")
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
