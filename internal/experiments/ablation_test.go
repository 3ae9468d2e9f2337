package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSyncCostSweepShape(t *testing.T) {
	points, err := SyncCostSweep("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	// Group by config and check monotonic growth with sync cost, and
	// that the optimized configurations dominate Base at high cost.
	byCfg := map[string][]AblationPoint{}
	for _, p := range points {
		byCfg[p.Config] = append(byCfg[p.Config], p)
	}
	for cfg, ps := range byCfg {
		for i := 1; i < len(ps); i++ {
			if ps[i].LatencyUS < ps[i-1].LatencyUS {
				t.Errorf("%s: latency dropped as sync cost rose: %.1f -> %.1f",
					cfg, ps[i-1].LatencyUS, ps[i].LatencyUS)
			}
		}
	}
	base := byCfg["Base"]
	strat := byCfg["+Stratum"]
	last := len(base) - 1
	if strat[last].LatencyUS >= base[last].LatencyUS {
		t.Errorf("at max sync cost, +Stratum %.1f >= Base %.1f",
			strat[last].LatencyUS, base[last].LatencyUS)
	}
	// The absolute gap Base - Stratum must widen with sync cost (the
	// optimizations remove synchronization).
	gapFirst := base[0].LatencyUS - strat[0].LatencyUS
	gapLast := base[last].LatencyUS - strat[last].LatencyUS
	if gapLast <= gapFirst {
		t.Errorf("sync-elimination gap did not grow: %.1f -> %.1f", gapFirst, gapLast)
	}
}

func TestBusSweepShape(t *testing.T) {
	points, err := BusSweep("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	// More bandwidth never hurts.
	byCfg := map[string][]AblationPoint{}
	for _, p := range points {
		byCfg[p.Config] = append(byCfg[p.Config], p)
	}
	for cfg, ps := range byCfg {
		for i := 1; i < len(ps); i++ {
			if ps[i].LatencyUS > ps[i-1].LatencyUS*1.001 {
				t.Errorf("%s: latency rose with more bandwidth: %.1f -> %.1f",
					cfg, ps[i-1].LatencyUS, ps[i].LatencyUS)
			}
		}
	}
}

func TestSPMSweepShape(t *testing.T) {
	rows, err := SPMSweep("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	// Smaller SPM can only need more instructions (more tiles) and
	// never runs faster.
	for i := 1; i < len(rows); i++ {
		if rows[i].Instrs > rows[i-1].Instrs {
			t.Errorf("instructions rose with larger SPM: %d -> %d at %dKB",
				rows[i-1].Instrs, rows[i].Instrs, rows[i].SPMKB)
		}
		if rows[i].LatencyUS > rows[i-1].LatencyUS*1.01 {
			t.Errorf("latency rose with larger SPM: %.1f -> %.1f", rows[i-1].LatencyUS, rows[i].LatencyUS)
		}
	}
}

func TestCoreScalingShape(t *testing.T) {
	points, err := CoreScaling("MobileNetV2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Four cores must beat one core.
	if points[3].LatencyUS >= points[0].LatencyUS {
		t.Errorf("4 cores %.1f >= 1 core %.1f", points[3].LatencyUS, points[0].LatencyUS)
	}
}

func TestEnergySweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	rows, err := EnergySweep()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]EnergyRow{}
	for _, r := range rows {
		byKey[r.Model+"/"+r.Config] = r
	}
	// The optimized configurations move less data, so they use less
	// energy despite stratum's extra MACs (DRAM dominates).
	for _, m := range []string{"MobileNetV2", "InceptionV3"} {
		if byKey[m+"/+Halo"].UJ >= byKey[m+"/Base"].UJ {
			t.Errorf("%s: +Halo energy %.0f >= Base %.0f", m, byKey[m+"/+Halo"].UJ, byKey[m+"/Base"].UJ)
		}
	}
	// Stratum executes at least as many MACs as Halo on models where
	// strata form.
	if byKey["InceptionV3/+Stratum"].GMACs < byKey["InceptionV3/+Halo"].GMACs {
		t.Error("stratum lost MACs")
	}
}

func TestSchedulingSweepValid(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	rows, err := SchedulingSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Algorithm1 <= 0 || r.DepthFirst <= 0 || r.BreadthFirst <= 0 {
			t.Errorf("%s: non-positive latency", r.Model)
		}
		// On a pure chain (MobileNetV2 is nearly one), the strategies
		// coincide.
		if r.Model == "MobileNetV2" {
			if r.Algorithm1 != r.DepthFirst {
				t.Errorf("MobileNetV2: algorithm1 %.1f != depth-first %.1f on a chain-like graph",
					r.Algorithm1, r.DepthFirst)
			}
		}
	}
}

func TestInterconnectNeverHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	rows, err := InterconnectSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// A dedicated link can only remove bus contention.
		if r.DirectUS > r.DRAMUS*1.001 {
			t.Errorf("%s bus=%g: direct link %.1f worse than DRAM path %.1f",
				r.Model, r.Bus, r.DirectUS, r.DRAMUS)
		}
	}
	// The gain must be larger under the congested bus for InceptionV3.
	var tight, roomy float64
	for _, r := range rows {
		if r.Model != "InceptionV3" {
			continue
		}
		gain := r.DRAMUS - r.DirectUS
		if r.Bus == 8 {
			tight = gain
		} else {
			roomy = gain
		}
	}
	if tight <= roomy {
		t.Errorf("congested-bus gain %.1f <= roomy-bus gain %.1f", tight, roomy)
	}
}

func TestConcurrentExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	rows, err := Concurrent()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ConcurrentUS <= 0 || r.SequentialUS <= 0 {
			t.Errorf("%s: bad latencies", r.Pair)
		}
		// Spatial sharing must beat time multiplexing for these
		// workload pairs (the bus is not the bottleneck at 32 B/cyc).
		if r.ConcurrentUS >= r.SequentialUS {
			t.Errorf("%s: concurrent %.1f >= sequential %.1f", r.Pair, r.ConcurrentUS, r.SequentialUS)
		}
	}
}

func TestThroughputSweep(t *testing.T) {
	rows, err := ThroughputSweep("MobileNetV2", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Back-to-back inferences run as a stream, one after another.
		if math.Abs(r.PeriodUS-r.LatencyUS) > 1e-9*r.LatencyUS {
			t.Errorf("%s: period %v us, latency %v us", r.Config, r.PeriodUS, r.LatencyUS)
		}
	}
}

func TestPipelineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full model sweep")
	}
	rows, err := PipelineSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Removing double buffering can only slow things down.
		if r.PipelinedUS > r.SerialUS+0.1 {
			t.Errorf("%s: pipelined %.1f > single-buffer %.1f", r.Model, r.PipelinedUS, r.SerialUS)
		}
	}
}

func TestPrintAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep")
	}
	var buf bytes.Buffer
	if err := PrintAblations(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A1", "A2", "A3", "A4", "A5", "speedup"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}
