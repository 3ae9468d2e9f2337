package recovery

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestRecoverConcurrentIdentical: concurrent Recover calls from the
// same checkpoint must neither race (run with -race) nor diverge — a
// serving layer may re-partition the same failure from several
// goroutines at once, and every one must produce the identical plan.
func TestRecoverConcurrentIdentical(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	killAt := 0.4 * cleanCycles(t, g, a, opt)
	plan := &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: killAt}}}
	cf := failWith(t, g, a, opt, plan)

	const workers = 4
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = RecoverFrom(g, a, cf, Options{Opt: opt, Sim: sim.Config{Faults: plan}})
		}(w)
	}
	wg.Wait()

	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	ref := results[0]
	for w := 1; w < workers; w++ {
		r := results[w]
		if !reflect.DeepEqual(r.DeadCores, ref.DeadCores) ||
			!reflect.DeepEqual(r.Survivors, ref.Survivors) ||
			!reflect.DeepEqual(r.Completed, ref.Completed) {
			t.Fatalf("worker %d recovered a different checkpoint: dead %v survivors %v completed %v, want %v %v %v",
				w, r.DeadCores, r.Survivors, r.Completed, ref.DeadCores, ref.Survivors, ref.Completed)
		}
		if !reflect.DeepEqual(r.Compiled.Plans, ref.Compiled.Plans) {
			t.Fatalf("worker %d partitioned the suffix differently", w)
		}
		if !reflect.DeepEqual(r.Compiled.Order, ref.Compiled.Order) {
			t.Fatalf("worker %d scheduled the suffix differently", w)
		}
		if got, want := r.Compiled.Program.NumInstrs(), ref.Compiled.Program.NumInstrs(); got != want {
			t.Fatalf("worker %d emitted %d instructions, want %d", w, got, want)
		}
		if !reflect.DeepEqual(r.Final.Stats, ref.Final.Stats) {
			t.Fatalf("worker %d resumed run diverged: %+v vs %+v", w, r.Final.Stats, ref.Final.Stats)
		}
		if r.TotalCycles != ref.TotalCycles {
			t.Fatalf("worker %d degraded latency %v, want %v", w, r.TotalCycles, ref.TotalCycles)
		}
	}
	if err := Validate(g, ref); err != nil {
		t.Fatalf("recovered plan fails numeric validation: %v", err)
	}
}
