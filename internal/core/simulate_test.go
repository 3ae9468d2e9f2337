package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestSimulateReusesAdmissionRun: for every Table 2 model under each
// Table 3 configuration, a plain Simulate equals a fresh sim.Run bit
// for bit, with and without a live context.
func TestSimulateReusesAdmissionRun(t *testing.T) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		if testing.Short() && (m.Name == "UNet" || m.Name == "DeepLabV3+") {
			continue
		}
		g := m.Build()
		for _, opt := range []Options{Base(), Halo(), Stratum()} {
			res, err := Compile(g, a, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", m.Name, opt.Name(), err)
			}
			want, err := sim.Run(res.Program, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range []sim.Config{{}, {Ctx: context.Background()}, {Faults: &fault.Plan{}}} {
				got, err := res.Simulate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s: Simulate(%+v) = %+v, sim.Run = %+v", m.Name, opt.Name(), cfg, got.Stats, want.Stats)
				}
			}
		}
	}
}

// countingHook counts retired instructions.
type countingHook struct{ instrs int }

func (h *countingHook) OnInstr(sim.InstrSample) { h.instrs++ }
func (h *countingHook) OnBus(sim.BusSample)     {}

// TestSimulateRunsWhenConfigMatters: an active fault plan, a trace or
// a hook can change what the run reports, so Simulate simulates.
func TestSimulateRunsWhenConfigMatters(t *testing.T) {
	res, err := Compile(models.TinyCNN(), arch.Exynos2100Like(), Stratum())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}

	throttle := &fault.Plan{Throttles: []fault.Throttle{{Core: 1, AtCycle: 0, Factor: 0.5}}}
	cfg := sim.Config{Faults: throttle}
	got, err := res.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(res.Program, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("throttled Simulate = %.0f cycles, sim.Run %.0f, clean %.0f",
			got.Stats.TotalCycles, want.Stats.TotalCycles, clean.Stats.TotalCycles)
	}

	traced, err := res.Simulate(sim.Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) != res.Program.NumInstrs() {
		t.Errorf("traced Simulate recorded %d events, want %d", len(traced.Trace), res.Program.NumInstrs())
	}

	hook := &countingHook{}
	if _, err := res.Simulate(sim.Config{Hook: hook}); err != nil {
		t.Fatal(err)
	}
	if hook.instrs != res.Program.NumInstrs() {
		t.Errorf("hook saw %d instructions, want %d", hook.instrs, res.Program.NumInstrs())
	}
}

// TestSimulateCanceled: a done context gets sim.Run's own error, even
// though a live one would be answered from the admission run.
func TestSimulateCanceled(t *testing.T) {
	res, err := Compile(models.TinyCNN(), arch.Exynos2100Like(), Stratum())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, got := res.Simulate(sim.Config{Ctx: ctx})
	_, want := sim.Run(res.Program, sim.Config{Ctx: ctx})
	if got == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Simulate on a canceled context = %v, sim.Run = %v", got, want)
	}
}

// TestSimulateCopyIsPrivate: a caller mutating a returned run changes
// neither the next Simulate nor the cache entry.
func TestSimulateCopyIsPrivate(t *testing.T) {
	ResetCache()
	defer ResetCache()
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	res, err := CompileCached(g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	first.Stats.TotalCycles = -1
	first.Stats.PerCore[0].MACs = -1
	first.Stats.ProgramCycles[0] = -1

	again, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := CompileCached(g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	fromCache, err := hit.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("second CompileCached missed")
	}
	if !reflect.DeepEqual(again, want) || !reflect.DeepEqual(fromCache, want) {
		t.Error("mutating a Simulate result leaked into later calls")
	}
}

// TestSimulateWithoutAdmissionRun: a Result the compiler did not
// produce has no admission run to reuse, so Simulate simulates.
func TestSimulateWithoutAdmissionRun(t *testing.T) {
	res, err := Compile(models.TinyCNN(), arch.Exynos2100Like(), Base())
	if err != nil {
		t.Fatal(err)
	}
	bare := &Result{Program: res.Program}
	got, err := bare.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Simulate without an admission run differs from the reused one")
	}
}
