package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/metrics"
)

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	s := buf.String()
	for _, want := range []string{"spatial", "channel*", "partial sum reduction", "kernel"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestTable2(t *testing.T) {
	rows := Table2()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Layers == 0 || r.GMACs <= 0 {
			t.Errorf("%s: empty stats", r.Info.Name)
		}
	}
	var buf bytes.Buffer
	PrintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "DeepLabV3+") || !strings.Contains(buf.String(), "INT16") {
		t.Error("table2 missing models")
	}
}

func TestTable4ShapeMatchesPaper(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table4Row{}
	total := func(r Table4Row) int64 {
		var s int64
		for _, b := range r.BytesPerCore {
			s += b
		}
		return s
	}
	for _, r := range rows {
		byName[r.Scheme] = r
	}
	// Paper's finding: adaptive moves the least data.
	if total(byName["adaptive"]) > total(byName["spatial"]) {
		t.Errorf("adaptive transfer %d > spatial %d", total(byName["adaptive"]), total(byName["spatial"]))
	}
	if total(byName["adaptive"]) > total(byName["channel"]) {
		t.Errorf("adaptive transfer %d > channel %d", total(byName["adaptive"]), total(byName["channel"]))
	}
	// And the lowest latency.
	if byName["adaptive"].LatencyUS > byName["spatial"].LatencyUS ||
		byName["adaptive"].LatencyUS > byName["channel"].LatencyUS {
		t.Errorf("adaptive latency %.1f not best (spatial %.1f, channel %.1f)",
			byName["adaptive"].LatencyUS, byName["spatial"].LatencyUS, byName["channel"].LatencyUS)
	}
	// And the lowest idle mean and spread across cores (the paper's
	// core-utilization argument for adaptive partitioning).
	idle := func(r Table4Row) (mean, std float64) {
		s := metrics.Summarize(r.IdleUSPerCore)
		return s.Mean, s.Std
	}
	am, as := idle(byName["adaptive"])
	for _, other := range []string{"spatial", "channel"} {
		om, os := idle(byName[other])
		if am > om {
			t.Errorf("adaptive idle μ %.0f > %s %.0f", am, other, om)
		}
		if as > os {
			t.Errorf("adaptive idle σ %.0f > %s %.0f", as, other, os)
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, rows)
	if !strings.Contains(buf.String(), "adaptive") {
		t.Error("table4 print missing scheme")
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	// Stratum-bearing configs execute more MACs (redundant halo
	// compute) than halo-exchange alone.
	if byName["+Stratum"].GMACs < byName["+Halo"].GMACs {
		t.Errorf("+Stratum GMACs %.3f < +Halo %.3f", byName["+Stratum"].GMACs, byName["+Halo"].GMACs)
	}
	// Stratum reduces sync overhead versus halo (paper: 17.5 vs 21.2us).
	if byName["+Stratum"].SyncUS.Mean > byName["+Halo"].SyncUS.Mean {
		t.Errorf("+Stratum sync %.1f > +Halo %.1f", byName["+Stratum"].SyncUS.Mean, byName["+Halo"].SyncUS.Mean)
	}
	// Combined must not lose to halo-only (paper: 378.8 vs 387 us).
	if byName["Combined"].LatencyUS > byName["+Halo"].LatencyUS*1.02 {
		t.Errorf("Combined %.1fus much worse than +Halo %.1fus",
			byName["Combined"].LatencyUS, byName["+Halo"].LatencyUS)
	}
	var buf bytes.Buffer
	PrintTable5(&buf, rows)
	if !strings.Contains(buf.String(), "Combined") {
		t.Error("table5 print incomplete")
	}
}

func TestFig12HaloFirstHidesIdle(t *testing.T) {
	variants, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 3 {
		t.Fatalf("variants = %d", len(variants))
	}
	a, b, c := variants[0], variants[1], variants[2]
	// Halo-exchange must reduce the exposed boundary idle versus the
	// store-sync-load round trip, and halo-first must not regress it.
	if b.ExposedIdleUS > a.ExposedIdleUS {
		t.Errorf("halo-exchange idle %.2f > store-sync-load %.2f", b.ExposedIdleUS, a.ExposedIdleUS)
	}
	if c.ExposedIdleUS > b.ExposedIdleUS {
		t.Errorf("halo-first idle %.2f > no-halo-first %.2f", c.ExposedIdleUS, b.ExposedIdleUS)
	}
	if c.LatencyUS > a.LatencyUS {
		t.Errorf("full halo variant %.1fus slower than store-sync-load %.1fus", c.LatencyUS, a.LatencyUS)
	}
	if len(b.Trace) == 0 {
		t.Error("variant (b) has no trace for the first two convs")
	}
	var buf bytes.Buffer
	if err := PrintFig12(&buf, variants, arch.Exynos2100Like()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "halo-first") {
		t.Error("fig12 print incomplete")
	}
}

func TestFig11ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep in -short mode")
	}
	rows, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	better := 0
	for _, r := range rows {
		// Multicore with all optimizations must beat single core on
		// every model (Figure 11).
		if r.StratumUS >= r.SingleUS {
			t.Errorf("%s: +Stratum %.1f >= single %.1f", r.Model, r.StratumUS, r.SingleUS)
		}
		// The full optimization stack must beat Base everywhere.
		if r.StratumUS >= r.BaseUS {
			t.Errorf("%s: +Stratum %.1f >= Base %.1f", r.Model, r.StratumUS, r.BaseUS)
		}
		if r.HaloUS < r.BaseUS {
			better++
		}
	}
	// Halo may occasionally degrade (the paper's DeepLabV3+ does) but
	// must win on most models.
	if better < 4 {
		t.Errorf("+Halo beat Base on only %d/6 models", better)
	}
	var buf bytes.Buffer
	PrintFig11(&buf, rows)
	if !strings.Contains(buf.String(), "geomean") {
		t.Error("fig11 print incomplete")
	}
}
