package recovery

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/sim"
)

// checkFinalMatchesEngines requires r's final run, which SimulateOn may
// have answered from the suffix's admission run, to equal both engines'
// runs of the suffix program on the survivors of a under cfg. It
// reports whether cfg left nothing on the survivors but flips, the case
// SimulateOn answers without an engine.
func checkFinalMatchesEngines(t *testing.T, a *arch.Arch, r *Result, cfg sim.Config) bool {
	t.Helper()
	pl := []sim.Placement{{Program: r.Compiled.Program, Cores: r.Survivors}}
	ev, err := sim.RunConcurrent(a, pl, cfg)
	if err != nil {
		t.Fatalf("event engine on survivors %v: %v", r.Survivors, err)
	}
	ref, err := sim.RunConcurrentReference(a, pl, cfg)
	if err != nil {
		t.Fatalf("reference engine on survivors %v: %v", r.Survivors, err)
	}
	if !reflect.DeepEqual(r.Final, ev) || !reflect.DeepEqual(r.Final, ref) {
		t.Fatalf("final run on survivors %v: %+v\nevent engine: %+v\nreference:    %+v", r.Survivors, r.Final, ev, ref)
	}
	on := make([]bool, a.NumCores())
	for _, c := range r.Survivors {
		on[c] = true
	}
	return cfg.Faults.KeepsTiming(on)
}

// TestRecoveredSuffixMatchesEngines: a single kill or a watchdog-caught
// hang leaves the resumed run a plan with nothing on the survivors, so
// it is answered from the suffix's admission run; across the four
// mobile Table 2 models, each victim core and injections at 10-90% of
// the clean run, that answer must equal both engines' runs of the same
// placement and plan. A kill with flips exercises the checksum pass on
// a placement over a core subset, and a cascade's second kill must
// still reach an engine, which loses that core too.
func TestRecoveredSuffixMatchesEngines(t *testing.T) {
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	names := []string{"InceptionV3", "MobileNetV2", "MobileNetV2-SSD", "MobileDet-SSD"}
	fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if testing.Short() {
		names, fracs = names[1:2], []float64{0.3, 0.7}
	}
	answered := 0
	for _, name := range names {
		res, err := core.CompileCached(models.ByNameMust(name), a, opt)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := res.Simulate(sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		T := clean.Stats.TotalCycles
		for _, hang := range []bool{false, true} {
			for victim := 0; victim < a.NumCores(); victim++ {
				for _, frac := range fracs {
					t.Run(fmt.Sprintf("%s/hang=%v/core%d/%.1f", name, hang, victim, frac), func(t *testing.T) {
						cfg := sim.Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: victim, AtCycle: frac * T}}}}
						if hang {
							cfg = sim.Config{
								Faults:         &fault.Plan{Hangs: []fault.Hang{{Core: victim, AtCycle: frac * T}}},
								WatchdogCycles: 0.05 * T,
							}
						}
						r, err := Run(res, Options{Opt: opt, Sim: cfg})
						if err != nil {
							t.Fatal(err)
						}
						if r.Degraded() && checkFinalMatchesEngines(t, a, r, cfg) {
							answered++
						}
					})
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("no resumed run was left with nothing on its survivors")
	}
	t.Logf("%d resumed runs answered from their admission run", answered)

	res, err := core.CompileCached(models.MobileNetV2(), a, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	T := clean.Stats.TotalCycles

	flips := sim.Config{Faults: &fault.Plan{Seed: 7, FlipRate: 0.05, Deaths: []fault.Death{{Core: 1, AtCycle: 0.4 * T}}}}
	r, err := Run(res, Options{Opt: opt, Sim: flips})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded() || !checkFinalMatchesEngines(t, a, r, flips) || len(r.Final.Corruptions) == 0 {
		t.Errorf("kill+flip: degraded %v, %d corruptions in the final run; want a degraded run with corruptions answered from its admission run",
			r.Degraded(), len(r.Final.Corruptions))
	}

	cascade := sim.Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: 0.3 * T}, {Core: 2, AtCycle: 0.2 * T}}}}
	r, err = Run(res, Options{Opt: opt, Sim: cascade})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Failures) != 2 || !reflect.DeepEqual(r.Survivors, []int{0}) {
		t.Fatalf("cascade: %d failures, survivors %v; want 2 and [0]", len(r.Failures), r.Survivors)
	}
	checkFinalMatchesEngines(t, a, r, cascade)
}
