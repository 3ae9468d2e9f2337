package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
)

// These tests cover the silent-failure kinds: Hang (a core stops
// retiring without signaling), Slowdown (a throttle the scheduler
// cannot see), and BitFlip (per-transfer corruption caught by
// stratum-boundary checksums) — plus the watchdog that turns silent
// hangs into typed HangDetected errors. Every behavior is asserted on
// both engines, which must agree bit-exactly.

// wholeMachine wraps a compiled program as a one-placement run over
// every core of its architecture.
func wholeMachine(t *testing.T, g *graph.Graph, opt core.Options) (*arch.Arch, []Placement) {
	t.Helper()
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cores := make([]int, a.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return a, []Placement{{Program: res.Program, Cores: cores}}
}

func TestWatchdogDetectsHang(t *testing.T) {
	g := convNet(5)
	a, pl := wholeMachine(t, g, core.Base())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hangAt := clean.Stats.TotalCycles / 2
	heartbeat := clean.Stats.TotalCycles / 20
	_, _, err = runBoth(t, a, pl, Config{
		Faults:         &fault.Plan{Hangs: []fault.Hang{{Core: 1, AtCycle: hangAt}}},
		WatchdogCycles: heartbeat,
	})
	var hd *HangDetected
	if !errors.As(err, &hd) {
		t.Fatalf("expected *HangDetected, got %v", err)
	}
	if len(hd.Cores) != 1 || hd.Cores[0] != 1 {
		t.Errorf("stalled cores = %v, want [1]", hd.Cores)
	}
	if hd.AtCycle < hangAt {
		t.Errorf("detected at %.0f, before the hang at %.0f", hd.AtCycle, hangAt)
	}
	// The acceptance bound: a hang is caught within two heartbeats.
	if latency := hd.AtCycle - hangAt; latency > 2*heartbeat {
		t.Errorf("detection latency %.0f exceeds 2x heartbeat %.0f", latency, 2*heartbeat)
	}
	if hd.Partial.TotalCycles != hd.AtCycle {
		t.Errorf("partial stats end at %.0f, want %.0f", hd.Partial.TotalCycles, hd.AtCycle)
	}
	// Base stores every layer, so a mid-run hang checkpoints a real,
	// strict prefix.
	if len(hd.Completed) == 0 {
		t.Error("mid-run hang under Base checkpointed nothing")
	}
	if len(hd.Completed) >= g.Len() {
		t.Error("mid-run hang checkpointed the whole graph")
	}
}

func TestWatchdogDetectionLatencySweep(t *testing.T) {
	g := convNet(5)
	a, pl := wholeMachine(t, g, core.Base())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hangAt := clean.Stats.TotalCycles * 0.4
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.25} {
		heartbeat := clean.Stats.TotalCycles * frac
		_, _, err := runBoth(t, a, pl, Config{
			Faults:         &fault.Plan{Hangs: []fault.Hang{{Core: 0, AtCycle: hangAt}}},
			WatchdogCycles: heartbeat,
		})
		var hd *HangDetected
		if !errors.As(err, &hd) {
			t.Fatalf("heartbeat %.0f: expected *HangDetected, got %v", heartbeat, err)
		}
		// A beat can land on the injection cycle itself, so the latency
		// may be exactly zero (modulo float -0).
		if latency := hd.AtCycle - hangAt; latency < -1e-6 || latency > 2*heartbeat {
			t.Errorf("heartbeat %.0f: detection latency %.0f outside [0, %.0f]",
				heartbeat, latency, 2*heartbeat)
		}
	}
}

func TestWatchdogNoFalsePositives(t *testing.T) {
	// An armed watchdog must never perturb or fail runs whose cores all
	// make progress — including slowed-down and flaky ones.
	g := convNet(4)
	a, pl := wholeMachine(t, g, core.Halo())
	plans := []struct {
		name string
		plan *fault.Plan
	}{
		{"drop", &fault.Plan{Seed: 9, DropRate: 0.05}},
		{"throttle", &fault.Plan{Throttles: []fault.Throttle{{Core: 1, AtCycle: 1000, Factor: 0.2}}}},
		{"slowdown", &fault.Plan{Slowdowns: []fault.Slowdown{{Core: 2, AtCycle: 1000, Factor: 0.1}}}},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			bare, err := RunConcurrent(a, pl, Config{Faults: tc.plan})
			if err != nil {
				t.Fatal(err)
			}
			watched, _, err := runBoth(t, a, pl, Config{Faults: tc.plan, WatchdogCycles: 500})
			if err != nil {
				t.Fatalf("watchdog false positive: %v", err)
			}
			// Beats subdivide the DMA integration steps, so cycle counts
			// may drift at float-rounding scale — but no further, and the
			// two engines must still agree bit-exactly (runBoth).
			d := watched.Stats.TotalCycles - bare.Stats.TotalCycles
			if d < 0 {
				d = -d
			}
			if d > 1e-6*bare.Stats.TotalCycles {
				t.Errorf("arming the watchdog shifted latency by %.3g cycles (%.0f vs %.0f)",
					d, watched.Stats.TotalCycles, bare.Stats.TotalCycles)
			}
		})
	}
}

func TestHangWithoutWatchdogDeadlocks(t *testing.T) {
	// No watchdog, no detection: the machine quiesces and the deadlock
	// diagnostic must name the silently hung core.
	g := convNet(3)
	a, pl := wholeMachine(t, g, core.Base())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = runBoth(t, a, pl, Config{
		Faults: &fault.Plan{Hangs: []fault.Hang{{Core: 1, AtCycle: clean.Stats.TotalCycles / 2}}},
	})
	if err == nil {
		t.Fatal("hung run without watchdog completed")
	}
	if !strings.Contains(err.Error(), "silently hung") || !strings.Contains(err.Error(), "[1]") {
		t.Errorf("deadlock diagnostic does not name the hung core: %v", err)
	}
	if !strings.Contains(err.Error(), "WatchdogCycles") {
		t.Errorf("deadlock diagnostic does not suggest the watchdog: %v", err)
	}
}

func TestResumingHangCompletesSlower(t *testing.T) {
	g := convNet(4)
	a, pl := wholeMachine(t, g, core.Stratum())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stall := clean.Stats.TotalCycles / 4
	res, _, err := runBoth(t, a, pl, Config{
		Faults: &fault.Plan{Hangs: []fault.Hang{
			{Core: 1, AtCycle: clean.Stats.TotalCycles / 3, ResumeAfter: stall},
		}},
	})
	if err != nil {
		t.Fatalf("resuming hang failed the run: %v", err)
	}
	if res.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("hung-then-resumed run %.0f not slower than clean %.0f",
			res.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
	// The whole machine stalls at the next barrier, so the overhead is
	// at most the stall plus one barrier wait — it must not balloon.
	if res.Stats.TotalCycles > clean.Stats.TotalCycles+2*stall {
		t.Errorf("resumed run %.0f overshoots clean+2*stall %.0f",
			res.Stats.TotalCycles, clean.Stats.TotalCycles+2*stall)
	}
	// A watchdog with a heartbeat longer than the stall never sees the
	// frozen core at a beat where it is still frozen... it may or may
	// not fire depending on alignment, so only the no-watchdog contract
	// is pinned here.
}

func TestSilentSlowdownSlowsRun(t *testing.T) {
	g := convNet(4)
	a, pl := wholeMachine(t, g, core.Base())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := runBoth(t, a, pl, Config{
		Faults: &fault.Plan{Slowdowns: []fault.Slowdown{{Core: 0, AtCycle: 0, Factor: 0.25}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("slowed run %.0f not slower than clean %.0f",
			slow.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
	// Slowdown composes with an announced throttle: both at 0.5 on the
	// same core behave like an effective 0.25.
	both, _, err := runBoth(t, a, pl, Config{
		Faults: &fault.Plan{
			Throttles: []fault.Throttle{{Core: 0, AtCycle: 0, Factor: 0.5}},
			Slowdowns: []fault.Slowdown{{Core: 0, AtCycle: 0, Factor: 0.5}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(both.Stats, slow.Stats) {
		t.Error("throttle 0.5 x slowdown 0.5 differs from slowdown 0.25")
	}
}

func TestBitFlipsDetectedAtStratumBoundaries(t *testing.T) {
	g := convNet(5)
	a, pl := wholeMachine(t, g, core.Stratum())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runBoth(t, a, pl, Config{
		Faults: &fault.Plan{Seed: 5, FlipRate: 0.2},
	})
	if err != nil {
		t.Fatalf("flip run failed: %v", err)
	}
	if len(res.Corruptions) == 0 {
		t.Fatal("20% flip rate produced no detected corruptions")
	}
	// Flips corrupt payloads, never timing: the run's cycle counts are
	// bit-identical to the clean run.
	if !reflect.DeepEqual(res.Stats, clean.Stats) {
		t.Error("bit flips changed the run's timing statistics")
	}
	var transfers int
	for i, c := range res.Corruptions {
		if c.Transfers <= 0 {
			t.Errorf("corruption %d records %d transfers", i, c.Transfers)
		}
		transfers += c.Transfers
		if c.DetectedAtCycle <= 0 || c.DetectedAtCycle > clean.Stats.TotalCycles {
			t.Errorf("corruption %d detected at %.0f, outside the run", i, c.DetectedAtCycle)
		}
		if i > 0 && res.Corruptions[i-1].DetectedAtCycle > c.DetectedAtCycle {
			t.Error("corruptions not in detection order")
		}
	}
	if transfers == 0 {
		t.Error("corruptions recorded zero corrupted transfers")
	}
	// A clean plan with the same seed detects nothing.
	none, err := RunConcurrent(a, pl, Config{Faults: &fault.Plan{Seed: 5, DropRate: 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Corruptions) != 0 {
		t.Errorf("flip-free plan reported %d corruptions", len(none.Corruptions))
	}
}

func TestResilienceDeterminism(t *testing.T) {
	// Same plan, same seed: byte-identical outcomes for each new fault
	// kind, including the failure path.
	g := convNet(4)
	a, pl := wholeMachine(t, g, core.Stratum())
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Faults: &fault.Plan{
			Seed:      77,
			FlipRate:  0.1,
			Slowdowns: []fault.Slowdown{{Core: 2, AtCycle: clean.Stats.TotalCycles / 5, Factor: 0.5}},
			Hangs:     []fault.Hang{{Core: 1, AtCycle: clean.Stats.TotalCycles / 2}},
		},
		WatchdogCycles: clean.Stats.TotalCycles / 10,
	}
	_, _, err1 := runBoth(t, a, pl, cfg)
	_, _, err2 := runBoth(t, a, pl, cfg)
	var hd1, hd2 *HangDetected
	if !errors.As(err1, &hd1) || !errors.As(err2, &hd2) {
		t.Fatalf("expected hang detections, got %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(hd1, hd2) {
		t.Errorf("identical runs detected different hangs:\n%+v\nvs\n%+v", hd1, hd2)
	}
}

func TestHangPlanValidation(t *testing.T) {
	g := convNet(2)
	a, pl := wholeMachine(t, g, core.Base())
	// Out-of-range hang core: typed error.
	_, err := RunConcurrent(a, pl, Config{
		Faults: &fault.Plan{Hangs: []fault.Hang{{Core: 9, AtCycle: 10}}},
	})
	var cre *fault.CoreRangeError
	if !errors.As(err, &cre) {
		t.Fatalf("out-of-range hang: got %v, want *fault.CoreRangeError", err)
	}
	if cre.Core != 9 || cre.What != "hang" {
		t.Errorf("CoreRangeError = %+v", cre)
	}
	// Hang after completion is inert (watchdog off so the timing is
	// exactly the clean run's: beats subdivide integration steps).
	clean, err := RunConcurrent(a, pl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	late, err := RunConcurrent(a, pl, Config{
		Faults: &fault.Plan{Hangs: []fault.Hang{{Core: 0, AtCycle: clean.Stats.TotalCycles * 10}}},
	})
	if err != nil {
		t.Fatalf("post-completion hang failed the run: %v", err)
	}
	if late.Stats.TotalCycles != clean.Stats.TotalCycles {
		t.Error("post-completion hang changed latency")
	}
}
