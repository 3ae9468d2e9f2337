package metrics

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/sim"
)

// TestExclusiveAttributionHandComputed checks the priority sweep on a
// hand-built overlap pattern:
//
//	compute  [0,10)
//	load     [5,20)   (overlaps compute 5..10)
//	barrier  [18,25)  (overlaps load 18..20)
//	total    30
//
// Exclusive: compute 10, load 10 (only 10..20), stall 5 (only 20..25),
// idle 5.
func TestExclusiveAttributionHandComputed(t *testing.T) {
	a := arch.Homogeneous(1)
	col := &Collector{Recorder: sim.Recorder{Events: []sim.Event{
		{Core: 0, Op: plan.Compute, Start: 0, End: 10, MACs: 100},
		{Core: 0, Op: plan.LoadInput, Start: 5, End: 20, Bytes: 64},
		{Core: 0, Op: plan.Barrier, Start: 18, End: 25},
	}}}
	stats := &sim.Stats{TotalCycles: 30, PerCore: make([]sim.CoreStats, 1)}
	rep := BuildReport(a, nil, stats, col)
	got := rep.Cores[0].Exclusive
	want := Breakdown{Compute: 10, Load: 10, Stall: 5, Idle: 5}
	if got != want {
		t.Fatalf("exclusive = %+v, want %+v", got, want)
	}
	f := got.Fractions(30)
	sum := f.Compute + f.Halo + f.Load + f.Store + f.Stall + f.Idle
	if d := sum - 1; d > 1e-12 || d < -1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
	eng := rep.Cores[0].Engines
	if eng.Compute != 10 || eng.Load != 15 || eng.Sync != 7 {
		t.Fatalf("engine sums = %+v", eng)
	}
	if rep.Cores[0].BytesLoaded != 64 || rep.Cores[0].MACs != 100 {
		t.Fatalf("traffic totals = %+v", rep.Cores[0])
	}
}

// TestExclusiveHaloPriority pins halo above load and below compute.
func TestExclusiveHaloPriority(t *testing.T) {
	a := arch.Homogeneous(1)
	col := &Collector{Recorder: sim.Recorder{Events: []sim.Event{
		{Core: 0, Op: plan.Compute, Start: 0, End: 4},
		{Core: 0, Op: plan.LoadHalo, Start: 2, End: 8, Bytes: 8},
		{Core: 0, Op: plan.LoadInput, Start: 2, End: 10, Bytes: 8},
	}}}
	stats := &sim.Stats{TotalCycles: 10, PerCore: make([]sim.CoreStats, 1)}
	rep := BuildReport(a, nil, stats, col)
	got := rep.Cores[0].Exclusive
	want := Breakdown{Compute: 4, Halo: 4, Load: 2, Idle: 0}
	if got != want {
		t.Fatalf("exclusive = %+v, want %+v", got, want)
	}
}

// TestBusIntegration checks the piecewise-constant integration on a
// synthetic series: contended half, uncontended half, closed at 100.
func TestBusIntegration(t *testing.T) {
	a := arch.Homogeneous(1)
	col := &Collector{Bus: []sim.BusSample{
		{At: 0, Demand: 20, Granted: 10, Channels: 2},
		{At: 50, Demand: 5, Granted: 5, Channels: 1},
		{At: 100},
	}}
	stats := &sim.Stats{TotalCycles: 100, PerCore: make([]sim.CoreStats, 1)}
	br := BuildReport(a, nil, stats, col).Bus
	if br.BusyCycles != 100 || br.ContendedCycles != 50 {
		t.Fatalf("busy %v contended %v", br.BusyCycles, br.ContendedCycles)
	}
	if br.DeficitByteCycles != 500 {
		t.Fatalf("deficit %v", br.DeficitByteCycles)
	}
	if br.AvgDemand != 12.5 || br.AvgGranted != 7.5 {
		t.Fatalf("avg demand %v granted %v", br.AvgDemand, br.AvgGranted)
	}
	if br.PeakChannels != 2 || br.PeakDemand != 20 {
		t.Fatalf("peaks %v %v", br.PeakChannels, br.PeakDemand)
	}
	if len(br.Series) != 3 {
		t.Fatalf("series kept %d points", len(br.Series))
	}
}

// TestLayerReports checks per-layer aggregation and naming on a real
// compiled model.
func TestLayerReports(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	out, err := sim.Run(res.Program, sim.Config{Hook: col})
	if err != nil {
		t.Fatal(err)
	}
	cores := make([]int, a.NumCores())
	for i := range cores {
		cores[i] = i
	}
	placements := []sim.Placement{{Program: res.Program, Cores: cores}}
	rep := BuildReport(a, placements, &out.Stats, col)
	if len(rep.Layers) == 0 {
		t.Fatal("no layer reports")
	}
	var macs int64
	var named, computed int
	for _, lr := range rep.Layers {
		macs += lr.MACs
		if lr.Name != "" {
			named++
		}
		if lr.Compute > 0 {
			if lr.Tiles == 0 {
				t.Fatalf("layer %d computes %v cycles with 0 tiles", lr.Layer, lr.Compute)
			}
			computed++
		}
	}
	if macs != out.Stats.TotalMACs() {
		t.Fatalf("layer MACs %d != run MACs %d", macs, out.Stats.TotalMACs())
	}
	if named != len(rep.Layers) || computed == 0 {
		t.Fatalf("%d/%d layers named, %d computed", named, len(rep.Layers), computed)
	}
}

// TestStratumReports cross-foots the per-stratum redundancy ratios
// against the compile result's totals.
func TestStratumReports(t *testing.T) {
	g := models.ByNameMust("MobileNetV2")
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	srs := StratumReports(res)
	if len(srs) != len(res.Strata) {
		t.Fatalf("%d reports for %d strata", len(srs), len(res.Strata))
	}
	var redundant int64
	for i, sr := range srs {
		redundant += sr.RedundantMACs
		if sr.Index != i || len(sr.Layers) != len(res.Strata[i].Layers) {
			t.Fatalf("report %d misaligned: %+v", i, sr)
		}
		if sr.ExecutedMACs > 0 {
			want := float64(sr.RedundantMACs) / float64(sr.ExecutedMACs)
			if sr.RedundancyRatio != want {
				t.Fatalf("report %d ratio %v, want %v", i, sr.RedundancyRatio, want)
			}
		} else if sr.RedundancyRatio != 0 {
			t.Fatalf("report %d: ratio %v with no executed MACs", i, sr.RedundancyRatio)
		}
	}
	if redundant != res.RedundantMACs {
		t.Fatalf("per-stratum redundant MACs sum to %d, compile says %d", redundant, res.RedundantMACs)
	}
	// Per-layer executed MACs from the program must cover every stratum
	// with a compute layer.
	var executed int64
	for _, sr := range srs {
		executed += sr.ExecutedMACs
	}
	var progMACs int64
	for c := range res.Program.Cores {
		progMACs += res.Program.TotalMACs(c)
	}
	if executed != progMACs {
		t.Fatalf("stratum executed MACs %d != program MACs %d", executed, progMACs)
	}
}

// TestAttachCompile checks the timing passthrough.
func TestAttachCompile(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{}
	rep.AttachCompile(res)
	if rep.Compile == nil || rep.Compile.TotalMillis <= 0 {
		t.Fatalf("compile timing not attached: %+v", rep.Compile)
	}
	stages := rep.Compile.PartitionMillis + rep.Compile.ScheduleMillis +
		rep.Compile.StratumMillis + rep.Compile.EmitMillis
	if stages > rep.Compile.TotalMillis {
		t.Fatalf("stage sum %v exceeds total %v", stages, rep.Compile.TotalMillis)
	}
	if len(rep.Strata) == 0 {
		t.Fatal("no stratum reports attached")
	}
}

// TestReportJSONRoundTrip keeps the report serializable and stable.
func TestReportJSONRoundTrip(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	col := &Collector{}
	out, err := sim.Run(res.Program, sim.Config{Hook: col})
	if err != nil {
		t.Fatal(err)
	}
	cores := []int{0, 1, 2}
	rep := BuildReport(a, []sim.Placement{{Program: res.Program, Cores: cores}}, &out.Stats, col)
	rep.AttachCompile(res)
	rep.Model = "TinyCNN"
	rep.Config = "+Stratum"
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatal("report does not survive a JSON round trip")
	}
}

// TestCollectorReset keeps capacity, drops samples.
func TestCollectorReset(t *testing.T) {
	c := &Collector{}
	c.OnInstr(sim.Event{Core: 1})
	c.OnBus(sim.BusSample{At: 2})
	c.Reset()
	if len(c.Events) != 0 || len(c.Bus) != 0 {
		t.Fatalf("reset left %d/%d samples", len(c.Events), len(c.Bus))
	}
	if cap(c.Events) == 0 || cap(c.Bus) == 0 {
		t.Fatal("reset dropped capacity")
	}
}
