package npu_test

import (
	"errors"
	"testing"

	"repro/npu"
)

func TestBuildModelByName(t *testing.T) {
	g, err := npu.BuildModelByName("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() == 0 {
		t.Fatal("empty model")
	}
	if _, err := npu.BuildModelByName("nope"); err == nil {
		t.Fatal("unknown model did not error")
	}
}

func TestParseFaultSpec(t *testing.T) {
	p, err := npu.ParseFaultSpec("drop=0.05,kill=2@400000", 11)
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0.05 || len(p.Deaths) != 1 || p.Seed != 11 {
		t.Errorf("parsed %+v", p)
	}
	if _, err := npu.ParseFaultSpec("bogus=1", 0); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestRunWithFaultsCleanPlan(t *testing.T) {
	g := npu.BuildModel("TinyCNN")
	rep, err := npu.RunWithFaults(g, npu.Exynos2100Like(), npu.Halo(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() {
		t.Error("fault-free run reported degraded")
	}
	if rep.LatencyMicros() <= 0 {
		t.Error("non-positive latency")
	}
}

func TestRunWithFaultsSurvivesCoreDeath(t *testing.T) {
	g := npu.BuildModel("TinyCNN")
	a := npu.Exynos2100Like()
	opt := npu.Stratum()
	clean, err := npu.Run(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	plan := &npu.FaultPlan{Deaths: []npu.FaultDeath{
		{Core: 1, AtCycle: 0.5 * clean.Stats.TotalCycles},
	}}
	rep, err := npu.RunWithFaults(g, a, opt, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded() || len(rep.Failures) != 1 || rep.Recovery == nil {
		t.Fatalf("degradation not reported: %+v", rep)
	}
	if rep.Stats.TotalCycles <= clean.Stats.TotalCycles {
		t.Errorf("degraded run %.0f not slower than clean %.0f",
			rep.Stats.TotalCycles, clean.Stats.TotalCycles)
	}
	if err := npu.ValidateRecovery(g, rep.Recovery); err != nil {
		t.Errorf("recovery changed numerics: %v", err)
	}
}

// TestRunWithFaultsUnrecoverableIsTyped: when the survivors cannot
// finish either, the caller gets the original typed failure, not the
// recovery's error, so errors.As and the CLI exit codes still apply.
func TestRunWithFaultsUnrecoverableIsTyped(t *testing.T) {
	g := npu.BuildModel("TinyCNN")
	a := npu.Exynos2100Like()

	kills, err := npu.ParseFaultSpec("kill=0@5000,kill=1@6000,kill=2@7000", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = npu.RunWithFaults(g, a, npu.Stratum(), kills)
	var cf *npu.CoreFailure
	if !errors.As(err, &cf) || cf.Core != 0 || cf.AtCycle != 5000 {
		t.Errorf("all cores killed: got %v, want the first *CoreFailure (core 0 at 5000)", err)
	}

	hangs, err := npu.ParseFaultSpec("hang=0@8000,hang=1@8000,hang=2@8000", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = npu.RunWithFaultsWatched(g, a, npu.Stratum(), hangs, 2000)
	var hd *npu.HangDetected
	if !errors.As(err, &hd) || len(hd.Cores) != 3 {
		t.Errorf("all cores hung: got %v, want a *HangDetected naming all three cores", err)
	}
}

func TestReportGuardsZeroClock(t *testing.T) {
	a := npu.Exynos2100Like()
	g := npu.BuildModel("TinyCNN")
	rep, err := npu.Run(g, a, npu.Base())
	if err != nil {
		t.Fatal(err)
	}
	broken := *a
	broken.ClockMHz = 0
	rep.Arch = &broken
	if got := rep.LatencyMicros(); got != 0 {
		t.Errorf("zero-clock latency %g, want 0", got)
	}
}
