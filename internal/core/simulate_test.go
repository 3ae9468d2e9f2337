package core

import (
	"context"
	"errors"
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

func (h *countingHook) OnInstr(sim.Event) { h.instrs++ }

// TestSimulateRunsWhenConfigMatters: an active fault plan or a hook (a
// trace recorder included) can change what the run reports, so
// Simulate simulates.
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

	rec := &sim.Recorder{}
	if _, err := res.Simulate(sim.Config{Hook: rec}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != res.Program.NumInstrs() {
		t.Errorf("traced Simulate recorded %d events, want %d", len(rec.Events), res.Program.NumInstrs())
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

// TestFlipOnlySimulateMatchesEngines: a flip-only plan never changes
// timing, so Simulate answers it from the admission run plus the
// checksum pass. Across the Table 2 models, Base and +Stratum, one to
// three cores, flip rates over three decades, five fault seeds and a
// watchdog off and on, that answer must equal both engines' runs,
// corruptions and their order included.
func TestFlipOnlySimulateMatchesEngines(t *testing.T) {
	archs := []*arch.Arch{arch.SingleCore(), arch.Homogeneous(2), arch.Exynos2100Like()}
	rates := []float64{0.0005, 0.005, 0.05, 0.5}
	seeds := uint64(5)
	if testing.Short() {
		rates, seeds = []float64{0.005, 0.5}, 2
	}
	corruptions := 0
	for _, m := range models.All() {
		if testing.Short() && (m.Name == "UNet" || m.Name == "DeepLabV3+") {
			continue
		}
		g := m.Build()
		for _, a := range archs {
			for _, opt := range []Options{Base(), Stratum()} {
				res, err := Compile(g, a, opt)
				if err != nil {
					t.Fatalf("%s %s %d cores: %v", m.Name, opt.Name(), a.NumCores(), err)
				}
				for _, rate := range rates {
					for seed := uint64(1); seed <= seeds; seed++ {
						for _, wd := range []float64{0, 5000} {
							cfg := sim.Config{Faults: &fault.Plan{Seed: seed, FlipRate: rate}, WatchdogCycles: wd}
							got, err := res.Simulate(cfg)
							if err != nil {
								t.Fatal(err)
							}
							ev, err := sim.Run(res.Program, cfg)
							if err != nil {
								t.Fatal(err)
							}
							ref, err := sim.RunReference(res.Program, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, ev) || !reflect.DeepEqual(got, ref) {
								t.Fatalf("%s %s %d cores, flip=%g seed %d watchdog %g: Simulate %d corruptions at %.0f cycles, sim.Run %d at %.0f, reference %d at %.0f",
									m.Name, opt.Name(), a.NumCores(), rate, seed, wd,
									len(got.Corruptions), got.Stats.TotalCycles, len(ev.Corruptions), ev.Stats.TotalCycles,
									len(ref.Corruptions), ref.Stats.TotalCycles)
							}
							corruptions += len(got.Corruptions)
						}
					}
				}
			}
		}
	}
	if corruptions == 0 {
		t.Fatal("no flip was detected anywhere in the matrix")
	}
	t.Logf("%d corruptions matched", corruptions)
}

// TestFlipOnlySimulateReusesAdmissionRun: a flip-only Simulate reads
// the admission run instead of simulating (a marked run shows through),
// computes the finish row once for every copy of the Result, validates
// the plan like the engine does, and sends every other plan to the
// engine.
func TestFlipOnlySimulateReusesAdmissionRun(t *testing.T) {
	res, err := Compile(models.TinyCNN(), arch.Exynos2100Like(), Stratum())
	if err != nil {
		t.Fatal(err)
	}
	marked := *res.clean.run
	marked.Stats.TotalCycles = -1
	r := *res
	r.clean = &admission{run: &marked}
	cp := r

	flip := sim.Config{Faults: &fault.Plan{Seed: 3, FlipRate: 0.2}, WatchdogCycles: 1000}
	got, err := r.Simulate(flip)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TotalCycles != -1 || len(got.Corruptions) == 0 {
		t.Fatalf("flip-only Simulate = %.0f cycles, %d corruptions; want the admission run's -1 and some corruptions",
			got.Stats.TotalCycles, len(got.Corruptions))
	}
	row := r.clean.finish
	if row == nil {
		t.Fatal("no finish row kept")
	}
	if again, err := cp.Simulate(flip); err != nil || !reflect.DeepEqual(again, got) || &cp.clean.finish[0] != &row[0] {
		t.Fatalf("a copy of the Result recomputed or changed the answer: %v", err)
	}

	drop := sim.Config{Faults: &fault.Plan{Seed: 3, DropRate: 0.01, FlipRate: 0.2}}
	if out, err := r.Simulate(drop); err != nil || out.Stats.TotalCycles <= 0 {
		t.Fatalf("a drop+flip plan was answered from the admission run: %v", err)
	}

	bad := sim.Config{Faults: &fault.Plan{FlipRate: 1.5}}
	_, gotErr := r.Simulate(bad)
	_, wantErr := sim.Run(r.Program, bad)
	if gotErr == nil || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("invalid flip plan: Simulate error %v, sim.Run error %v", gotErr, wantErr)
	}
}

// TestSimulateOnReusesAdmissionRun: a program compiled for a core
// subset and placed on those cores of the global machine is answered
// from its admission run (a marked run shows through, PerCore moved to
// global cores and an unplaced core idle throughout) when the plan has
// nothing on the placed cores but flips; events on the unplaced core do
// not count. Any event on a placed core, a drop, or a placement that is
// not the admitted machine (other cores, or its own in descending order)
// goes to the engine, and a plan naming a core the machine lacks gets
// the engine's error.
func TestSimulateOnReusesAdmissionRun(t *testing.T) {
	a := arch.Exynos2100Like()
	cores := []int{0, 2}
	sub, err := a.Subset(cores)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(models.TinyCNN(), sub, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	marked := *res.clean.run
	marked.Stats.TotalCycles = -1
	r := *res
	r.clean = &admission{run: &marked}
	T := res.clean.run.Stats.TotalCycles

	idle := &fault.Plan{Seed: 5, FlipRate: 0.2,
		Deaths: []fault.Death{{Core: 1, AtCycle: T / 3}},
		Hangs:  []fault.Hang{{Core: 1, AtCycle: T / 4, ResumeAfter: T / 8}}}
	cfg := sim.Config{Faults: idle, WatchdogCycles: T / 20}
	got, err := r.SimulateOn(a, cores, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunConcurrent(a, []sim.Placement{{Program: res.Program, Cores: cores}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.TotalCycles != -1 || len(got.Corruptions) == 0 || !reflect.DeepEqual(got.Corruptions, want.Corruptions) {
		t.Fatalf("SimulateOn = %.0f cycles, %d corruptions; want the admission run's -1 and the engine's %d corruptions",
			got.Stats.TotalCycles, len(got.Corruptions), len(want.Corruptions))
	}
	if len(got.Stats.PerCore) != a.NumCores() || got.Stats.PerCore[1] != (sim.CoreStats{Idle: -1}) ||
		got.Stats.PerCore[2] != marked.Stats.PerCore[1] {
		t.Fatalf("PerCore not moved to global cores: %+v", got.Stats.PerCore)
	}

	for name, c := range map[string]struct {
		cores []int
		plan  *fault.Plan
	}{
		"kill on a placed core":     {cores, &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: 2 * T}}}},
		"slowdown on a placed core": {cores, &fault.Plan{Slowdowns: []fault.Slowdown{{Core: 0, AtCycle: T / 2, Factor: 0.5}}}},
		"drop":                      {cores, &fault.Plan{Seed: 1, DropRate: 0.01}},
		"other cores":               {[]int{1, 2}, nil},
	} {
		cfg := sim.Config{Faults: c.plan}
		out, gotErr := r.SimulateOn(a, c.cores, cfg)
		_, wantErr := sim.RunConcurrent(a, []sim.Placement{{Program: res.Program, Cores: c.cores}}, cfg)
		if (out != nil && out.Stats.TotalCycles == -1) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("%s: answered from the admission run (err %v, engine err %v)", name, gotErr, wantErr)
		}
	}

	// The engines order same-time work by global core, so a permuted
	// placement is simulated even on the machine it was admitted for.
	desc := []int{2, 0}
	dsub, err := a.Subset(desc)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Compile(models.TinyCNN(), dsub, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	dmarked := *dres.clean.run
	dmarked.Stats.TotalCycles = -1
	dres.clean = &admission{run: &dmarked}
	if out, err := dres.SimulateOn(a, desc, sim.Config{}); err != nil || out.Stats.TotalCycles == -1 {
		t.Errorf("descending cores %v: answered from the admission run (err %v)", desc, err)
	}

	beyond := sim.Config{Faults: &fault.Plan{FlipRate: 0.1, Deaths: []fault.Death{{Core: 3, AtCycle: T}}}}
	_, gotErr := r.SimulateOn(a, cores, beyond)
	_, wantErr := sim.RunConcurrent(a, []sim.Placement{{Program: res.Program, Cores: cores}}, beyond)
	var cre *fault.CoreRangeError
	if !errors.As(gotErr, &cre) || !reflect.DeepEqual(gotErr, wantErr) {
		t.Errorf("kill on core 3: SimulateOn error %v, engine error %v", gotErr, wantErr)
	}
}

// TestFaultedSimulateRunsPreparedLayout: every engine run on the
// admitted whole machine (traced, faulted or already canceled) goes
// through the program's prepared layout, built once and shared by every
// copy of the Result, and matches a fresh sim.Run bit for bit, typed
// failures, cancellations and traces included; a run on other cores
// builds no layout.
func TestFaultedSimulateRunsPreparedLayout(t *testing.T) {
	a := arch.Exynos2100Like()
	names := []string{"MobileNetV2", "InceptionV3", "MobileNetV2-SSD", "MobileDet-SSD"}
	if testing.Short() {
		names = names[:1]
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range names {
		res, err := Compile(models.ByNameMust(name), a, Stratum())
		if err != nil {
			t.Fatal(err)
		}
		wantRec, gotRec := &sim.Recorder{}, &sim.Recorder{}
		want, wantErr := sim.Run(res.Program, sim.Config{Hook: wantRec})
		got, gotErr := res.Simulate(sim.Config{Hook: gotRec})
		if !reflect.DeepEqual(got, want) || gotErr != nil || wantErr != nil || !reflect.DeepEqual(gotRec.Events, wantRec.Events) {
			t.Fatalf("%s: traced Simulate %+v (err %v), sim.Run %+v (err %v)", name, got, gotErr, want, wantErr)
		}
		lay := res.clean.lay
		if lay == nil {
			t.Fatalf("%s: a traced run on the admitted machine built no layout", name)
		}
		T := res.clean.run.Stats.TotalCycles
		plans := map[string]sim.Config{
			"canceled":  {Ctx: canceled},
			"kill":      {Faults: &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: T / 2}}}},
			"hang":      {Faults: &fault.Plan{Hangs: []fault.Hang{{Core: 2, AtCycle: T / 3}}}, WatchdogCycles: T / 20},
			"drop":      {Faults: &fault.Plan{Seed: 3, DropRate: 0.05, MaxRetries: 12}},
			"throttle":  {Faults: &fault.Plan{Throttles: []fault.Throttle{{Core: 0, AtCycle: T / 4, Factor: 0.5}}}},
			"kill+flip": {Faults: &fault.Plan{Seed: 7, FlipRate: 0.05, Deaths: []fault.Death{{Core: 0, AtCycle: 0.7 * T}}}},
		}
		for plan, cfg := range plans {
			for _, traced := range []bool{false, true} {
				wantCfg, gotCfg := cfg, cfg
				wantRec, gotRec := &sim.Recorder{}, &sim.Recorder{}
				if traced {
					wantCfg.Hook, gotCfg.Hook = wantRec, gotRec
				}
				want, wantErr := sim.Run(res.Program, wantCfg)
				r := *res // a cache hit's copy shares the layout
				got, gotErr := r.Simulate(gotCfg)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) ||
					!reflect.DeepEqual(gotRec.Events, wantRec.Events) {
					t.Fatalf("%s %s (traced %v): Simulate %+v (err %v, %d events), sim.Run %+v (err %v, %d events)",
						name, plan, traced, got, gotErr, len(gotRec.Events), want, wantErr, len(wantRec.Events))
				}
				if res.clean.lay != lay {
					t.Fatalf("%s %s: layout %p, first built %p", name, plan, res.clean.lay, lay)
				}
			}
		}
	}

	sub, err := a.Subset([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(models.TinyCNN(), sub, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	kill := sim.Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: res.clean.run.Stats.TotalCycles / 2}}}}
	if _, err := res.SimulateOn(a, []int{0, 2}, kill); err == nil || res.clean.lay != nil {
		t.Errorf("a faulted run on cores [0 2] of the global machine built a layout (err %v)", err)
	}
}
