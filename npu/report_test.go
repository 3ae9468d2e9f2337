package npu_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/npu"
)

func report(t *testing.T, trace bool) *npu.Report {
	t.Helper()
	g := npu.BuildModel("MobileNetV2")
	res, err := npu.Compile(g, npu.Exynos2100Like(), npu.Halo())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := npu.Simulate(res, trace)
	if err != nil {
		t.Fatal(err)
	}
	rep.Config = "+Halo"
	return rep
}

func TestReportString(t *testing.T) {
	rep := report(t, false)
	s := rep.String()
	for _, want := range []string{"+Halo", "P0", "P2", "barriers", "GMACs"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestReportEnergy(t *testing.T) {
	rep := report(t, false)
	e8 := rep.EnergyMicroJoules(false)
	e16 := rep.EnergyMicroJoules(true)
	if e8 <= 0 || e16 <= e8 {
		t.Errorf("energy int8 %f, int16 %f", e8, e16)
	}
}

func TestReportGanttAndChrome(t *testing.T) {
	rep := report(t, true)
	var g bytes.Buffer
	if err := rep.WriteGantt(&g, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "compute") {
		t.Error("gantt missing lanes")
	}
	var c bytes.Buffer
	if err := rep.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.String(), "traceEvents") {
		t.Error("chrome trace malformed")
	}
}

func TestRunBatch(t *testing.T) {
	g := npu.BuildModel("MobileNetV2")
	a := npu.Exynos2100Like()
	period, err := npu.RunBatch(g, a, npu.Stratum(), 4)
	if err != nil {
		t.Fatal(err)
	}
	single, err := npu.Run(g, a, npu.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	// Back-to-back inferences run as a stream, one after another.
	if L := single.LatencyMicros(); math.Abs(period-L) > 1e-9*L {
		t.Errorf("period %v us, latency %v us", period, L)
	}
}

func TestExplorePublicAPI(t *testing.T) {
	g := npu.BuildModel("TinyCNN")
	a := npu.Exynos2100Like()
	base := npu.Stratum()
	res, err := npu.Explore(context.Background(), g, a, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCycles > res.BaselineCycles || !res.EngineMatch {
		t.Fatalf("search result: best %.0f, baseline %.0f, engines match %v",
			res.BestCycles, res.BaselineCycles, res.EngineMatch)
	}
	// The winning genome lowers onto base and recompiles to the
	// reported latency.
	best, err := npu.Compile(g, a, res.Best.Options(base))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := npu.Simulate(best, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.TotalCycles != res.BestCycles {
		t.Errorf("winner simulates to %.0f cycles, reported %.0f", rep.Stats.TotalCycles, res.BestCycles)
	}
}
