package sim_test

import (
	. "repro/internal/sim"

	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
)

// Back-to-back inferences form a stream: each issues nothing until the
// one before it retires and keeps its own barrier IDs, so the period
// over a batch is the single-shot latency, on every Table 2 model but
// UNet (the slowest to simulate) under each configuration.
func TestThroughputEqualsLatency(t *testing.T) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		if m.Name == "UNet" || testing.Short() && m.Name != "MobileNetV2" {
			continue
		}
		for _, opt := range []core.Options{core.Base(), core.Halo(), core.Stratum()} {
			res, err := core.CompileCached(models.ByNameMust(m.Name), a, opt)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Run(res.Program, Config{})
			if err != nil {
				t.Fatal(err)
			}
			L := single.Stats.TotalCycles
			period, err := Throughput(res.Program, 8, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(period-L) > 1e-9*L {
				t.Errorf("%s %s: period %v cycles, single-shot latency %v", m.Name, opt.Name(), period, L)
			}
		}
	}
	res, err := core.CompileCached(models.TinyCNN(), a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Throughput(res.Program, 0, Config{}); err == nil {
		t.Error("empty batch accepted")
	}
}

// The period of a batch never exceeds the single-shot latency, and it
// is the end of the stream Throughput runs (n copies of Whole(p) back
// to back) over n; that stream does n inferences' work.
func TestThroughputBeatsLatency(t *testing.T) {
	res, err := core.Compile(models.TinyCNN(), arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	period, err := Throughput(res.Program, 6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if period > single.Stats.TotalCycles+1 {
		t.Errorf("period %.0f > single-shot latency %.0f", period, single.Stats.TotalCycles)
	}
	var stream []Placement
	for range 6 {
		stream = append(stream, Whole(res.Program)...)
	}
	batch, err := RunConcurrent(res.Program.Arch, stream, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Stats.TotalCycles <= single.Stats.TotalCycles {
		t.Error("batch finished faster than one inference")
	}
	if got := batch.Stats.TotalCycles / 6; got != period {
		t.Errorf("stream end over 6 = %v, Throughput period = %v", got, period)
	}
	// Total work scales exactly with the batch size.
	if batch.Stats.TotalMACs() != 6*single.Stats.TotalMACs() {
		t.Errorf("batch MACs %d != 6x single %d", batch.Stats.TotalMACs(), single.Stats.TotalMACs())
	}
}
