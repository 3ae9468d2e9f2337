package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// AblationPoint is one (parameter value, configuration) measurement.
type AblationPoint struct {
	Param     float64
	Config    string
	LatencyUS float64
}

// SyncCostSweep measures how the barrier cost shifts the balance
// between the three configurations: stratum construction's value is
// exactly the synchronization it removes, so its margin over +Halo
// must grow with the sync cost (DESIGN.md design-choice ablation).
func SyncCostSweep(model string) ([]AblationPoint, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	g := m.Build()
	syncs := []float64{0.5, 2, 8, 32}
	opts := []core.Options{core.Base(), core.Halo(), core.Stratum()}
	return parallel.Map(len(syncs)*len(opts), func(i int) (AblationPoint, error) {
		syncUS, opt := syncs[i/len(opts)], opts[i%len(opts)]
		a := arch.Exynos2100Like()
		a.SyncBaseCycles = a.MicrosToCycles(syncUS)
		a.SyncJitterCycles = a.SyncBaseCycles
		_, out, err := runOne(g, a, opt)
		if err != nil {
			return AblationPoint{}, fmt.Errorf("sync sweep %gus %s: %w", syncUS, opt.Name(), err)
		}
		return AblationPoint{
			Param: syncUS, Config: opt.Name(),
			LatencyUS: out.Stats.LatencyMicros(a.ClockMHz),
		}, nil
	})
}

// BusSweep measures sensitivity to the shared-bus ceiling: below the
// sum of per-core DMA rates the fabric congests and the traffic-saving
// optimizations matter most.
func BusSweep(model string) ([]AblationPoint, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	g := m.Build()
	buses := []float64{8, 16, 32, 64}
	opts := []core.Options{core.Base(), core.Stratum()}
	return parallel.Map(len(buses)*len(opts), func(i int) (AblationPoint, error) {
		bus, opt := buses[i/len(opts)], opts[i%len(opts)]
		a := arch.Exynos2100Like()
		a.BusBytesPerCycle = bus
		_, out, err := runOne(g, a, opt)
		if err != nil {
			return AblationPoint{}, fmt.Errorf("bus sweep %g %s: %w", bus, opt.Name(), err)
		}
		return AblationPoint{
			Param: bus, Config: opt.Name(),
			LatencyUS: out.Stats.LatencyMicros(a.ClockMHz),
		}, nil
	})
}

// SPMSweepRow is one SPM capacity's compilation profile.
type SPMSweepRow struct {
	SPMKB       int64
	LatencyUS   float64
	Instrs      int
	MultiStrata int
}

// SPMSweep shows tiling and stratum construction reacting to SPM
// pressure: smaller scratch-pads force more tiles (more instructions)
// and break strata apart.
func SPMSweep(model string) ([]SPMSweepRow, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	g := m.Build()
	kbs := []int64{512, 1024, 2048, 4096}
	return parallel.Map(len(kbs), func(i int) (SPMSweepRow, error) {
		kb := kbs[i]
		a := arch.Exynos2100Like()
		for c := range a.Cores {
			a.Cores[c].SPMBytes = kb << 10
		}
		res, out, err := runOne(g, a, core.Stratum())
		if err != nil {
			return SPMSweepRow{}, fmt.Errorf("spm sweep %dKB: %w", kb, err)
		}
		multi := 0
		for _, s := range res.Strata {
			if s.Len() > 1 {
				multi++
			}
		}
		return SPMSweepRow{
			SPMKB:       kb,
			LatencyUS:   out.Stats.LatencyMicros(a.ClockMHz),
			Instrs:      res.Program.NumInstrs(),
			MultiStrata: multi,
		}, nil
	})
}

// CoreScaling measures speedup versus core count beyond the paper's
// three-core platform (homogeneous cores, +Stratum).
func CoreScaling(model string, maxCores int) ([]AblationPoint, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	g := m.Build()
	return parallel.Map(maxCores, func(i int) (AblationPoint, error) {
		n := i + 1
		a := arch.Homogeneous(n)
		_, out, err := runOne(g, a, core.Stratum())
		if err != nil {
			return AblationPoint{}, fmt.Errorf("core scaling %d: %w", n, err)
		}
		return AblationPoint{
			Param: float64(n), Config: "+Stratum",
			LatencyUS: out.Stats.LatencyMicros(a.ClockMHz),
		}, nil
	})
}

// EnergyRow is one model/config energy estimate.
type EnergyRow struct {
	Model  string
	Config string
	UJ     float64
	GMACs  float64
	MB     float64
}

// EnergySweep estimates inference energy per configuration: stratum
// trades DRAM traffic (expensive) for redundant MACs (cheap), so the
// optimized configurations should also be the most efficient.
func EnergySweep() ([]EnergyRow, error) {
	a := arch.Exynos2100Like()
	ms := models.All()
	opts := []core.Options{core.Base(), core.Halo(), core.Stratum()}
	return parallel.Map(len(ms)*len(opts), func(i int) (EnergyRow, error) {
		m, opt := ms[i/len(opts)], opts[i%len(opts)]
		_, out, err := runOne(m.Build(), a, opt)
		if err != nil {
			return EnergyRow{}, fmt.Errorf("energy %s %s: %w", m.Name, opt.Name(), err)
		}
		return EnergyRow{
			Model:  m.Name,
			Config: opt.Name(),
			UJ:     out.Stats.EnergyMicroJoules(a.PJPerMAC, a.PJPerDRAMByte, m.DType == tensor.Int16),
			GMACs:  float64(out.Stats.TotalMACs()) / 1e9,
			MB:     float64(out.Stats.TotalBytes()) / 1e6,
		}, nil
	})
}

// InterconnectRow compares halo-exchange through global memory (the
// Exynos 2100's only option) against a hypothetical dedicated
// core-to-core link.
type InterconnectRow struct {
	Model    string
	Bus      float64
	DRAMUS   float64 // halo via global memory
	DirectUS float64 // halo via dedicated link
}

// InterconnectSweep quantifies what a direct halo interconnect would
// buy (a hardware design-space question the paper's platform cannot
// answer): halo transfers stop competing for the shared bus.
func InterconnectSweep() ([]InterconnectRow, error) {
	names := []string{"InceptionV3", "MobileNetV2"}
	buses := []float64{8, 32}
	return parallel.Map(len(names)*len(buses), func(i int) (InterconnectRow, error) {
		name, bus := names[i/len(buses)], buses[i%len(buses)]
		g := models.ByNameMust(name)
		row := InterconnectRow{Model: name, Bus: bus}
		for _, direct := range []bool{false, true} {
			a := arch.Exynos2100Like()
			a.BusBytesPerCycle = bus
			a.DirectHaloInterconnect = direct
			_, out, err := runOne(g, a, core.Halo())
			if err != nil {
				return InterconnectRow{}, fmt.Errorf("interconnect %s bus%g: %w", name, bus, err)
			}
			us := out.Stats.LatencyMicros(a.ClockMHz)
			if direct {
				row.DirectUS = us
			} else {
				row.DRAMUS = us
			}
		}
		return row, nil
	})
}

// PrintInterconnect renders the interconnect study.
func PrintInterconnect(w io.Writer, rows []InterconnectRow) {
	fmt.Fprintln(w, "Ablation A8: halo-exchange path — global memory vs dedicated link (+Halo)")
	fmt.Fprintf(w, "%-17s %10s %12s %12s %8s\n", "Model", "bus(B/cyc)", "via DRAM", "direct link", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %10.0f %10.1fus %10.1fus %7.2f%%\n",
			r.Model, r.Bus, r.DRAMUS, r.DirectUS, 100*(r.DRAMUS-r.DirectUS)/r.DRAMUS)
	}
}

// PipelineRow compares double-buffered pipelining against
// single-buffered execution for one model.
type PipelineRow struct {
	Model       string
	PipelinedUS float64
	SerialUS    float64
}

// PipelineSweep quantifies the double-buffered load/compute/store
// pipeline of Section 2.2: without it, a tile's load waits for the
// previous tile to finish entirely, exposing all DMA time.
func PipelineSweep() ([]PipelineRow, error) {
	a := arch.Exynos2100Like()
	names := []string{"InceptionV3", "MobileNetV2", "UNet"}
	return parallel.Map(len(names), func(i int) (PipelineRow, error) {
		name := names[i]
		g := models.ByNameMust(name)
		row := PipelineRow{Model: name}
		for _, serial := range []bool{false, true} {
			opt := core.Stratum()
			opt.NoDoubleBuffer = serial
			_, out, err := runOne(g, a, opt)
			if err != nil {
				return PipelineRow{}, fmt.Errorf("pipeline %s: %w", name, err)
			}
			us := out.Stats.LatencyMicros(a.ClockMHz)
			if serial {
				row.SerialUS = us
			} else {
				row.PipelinedUS = us
			}
		}
		return row, nil
	})
}

// PrintPipeline renders the pipelining ablation.
func PrintPipeline(w io.Writer, rows []PipelineRow) {
	fmt.Fprintln(w, "Ablation A10: double-buffered pipelining vs single-buffered tiles (+Stratum)")
	fmt.Fprintf(w, "%-17s %14s %14s %9s\n", "Model", "pipelined", "single-buffer", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %12.1fus %12.1fus %8.1f%%\n",
			r.Model, r.PipelinedUS, r.SerialUS, 100*(r.SerialUS-r.PipelinedUS)/r.SerialUS)
	}
}

// ThroughputRow is one model/config latency-vs-throughput comparison.
type ThroughputRow struct {
	Model     string
	Config    string
	LatencyUS float64 // single-shot latency
	PeriodUS  float64 // steady-state inference period over a batch
}

// ThroughputSweep measures sustained throughput (a camera stream) next
// to the paper's single-shot latency. Back-to-back inferences run as a
// sim stream, each starting when the one before it retires, as
// tenancy books them, so the period equals the latency and the
// pipelining gain column reads 0.0%: no inference overlaps the next.
func ThroughputSweep(model string, batch int) ([]ThroughputRow, error) {
	a := arch.Exynos2100Like()
	g := models.ByNameMust(model)
	opts := []core.Options{core.Base(), core.Halo(), core.Stratum()}
	return parallel.Map(len(opts), func(i int) (ThroughputRow, error) {
		opt := opts[i]
		res, out, err := runOne(g, a, opt)
		if err != nil {
			return ThroughputRow{}, fmt.Errorf("throughput %s: %w", opt.Name(), err)
		}
		period, err := sim.Throughput(res.Program, batch, sim.Config{})
		if err != nil {
			return ThroughputRow{}, err
		}
		return ThroughputRow{
			Model:     model,
			Config:    opt.Name(),
			LatencyUS: out.Stats.LatencyMicros(a.ClockMHz),
			PeriodUS:  period / float64(a.ClockMHz),
		}, nil
	})
}

// PrintThroughput renders the latency/throughput comparison.
func PrintThroughput(w io.Writer, rows []ThroughputRow, batch int) {
	fmt.Fprintf(w, "Ablation A9: single-shot latency vs steady-state period (batch of %d)\n", batch)
	fmt.Fprintf(w, "%-17s %-10s %12s %12s %18s\n", "Model", "config", "latency", "period", "pipelining gain")
	for _, r := range rows {
		// Rounded first, and -0 made +0, so a period a few ulps above
		// the latency reads 0.0%.
		gain := math.Round(1000*(r.LatencyUS-r.PeriodUS)/r.LatencyUS)/10 + 0
		fmt.Fprintf(w, "%-17s %-10s %10.1fus %10.1fus %17.1f%%\n",
			r.Model, r.Config, r.LatencyUS, r.PeriodUS, gain)
	}
}

// SchedulingRow compares layer-ordering strategies on one model.
type SchedulingRow struct {
	Model        string
	Algorithm1   float64 // latency us
	DepthFirst   float64
	BreadthFirst float64
}

// SchedulingSweep compares Algorithm 1 against pure depth-first and
// breadth-first orders under the full optimization stack (Figure 6/8:
// depth-first maximizes reuse, breadth-first widens sync spans;
// Algorithm 1 mixes them by partition direction).
func SchedulingSweep() ([]SchedulingRow, error) {
	a := arch.Exynos2100Like()
	names := []string{"InceptionV3", "MobileNetV2", "MobileNetV2-SSD"}
	return parallel.Map(len(names), func(i int) (SchedulingRow, error) {
		name := names[i]
		g := models.ByNameMust(name)
		row := SchedulingRow{Model: name}
		for _, pt := range []struct {
			s    core.Scheduling
			dest *float64
		}{
			{core.ScheduleAlgorithm1, &row.Algorithm1},
			{core.ScheduleDepthFirst, &row.DepthFirst},
			{core.ScheduleBreadthFirst, &row.BreadthFirst},
		} {
			opt := core.Stratum()
			opt.Scheduling = pt.s
			_, out, err := runOne(g, a, opt)
			if err != nil {
				return SchedulingRow{}, fmt.Errorf("scheduling %s %v: %w", name, pt.s, err)
			}
			*pt.dest = out.Stats.LatencyMicros(a.ClockMHz)
		}
		return row, nil
	})
}

// PrintScheduling renders the strategy comparison.
func PrintScheduling(w io.Writer, rows []SchedulingRow) {
	fmt.Fprintln(w, "Ablation A7: layer scheduling strategies (+Stratum, latency us)")
	fmt.Fprintf(w, "%-17s %12s %12s %14s\n", "Model", "Algorithm1", "depth-first", "breadth-first")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %12.1f %12.1f %14.1f\n", r.Model, r.Algorithm1, r.DepthFirst, r.BreadthFirst)
	}
}

// ConcurrentRow compares spatial sharing against time multiplexing
// for a two-network workload.
type ConcurrentRow struct {
	Pair         string
	ConcurrentUS float64 // both done, cores partitioned
	SequentialUS float64 // both done, whole NPU time-multiplexed
}

// Concurrent measures the multi-network scenario: two streams on
// disjoint core subsets versus running each on all cores in turn.
func Concurrent() ([]ConcurrentRow, error) {
	a := arch.Exynos2100Like()
	pairs := [][2]string{
		{"MobileNetV2-SSD", "MobileNetV2"},
		{"MobileDet-SSD", "MobileNetV2"},
	}
	return parallel.Map(len(pairs), func(i int) (ConcurrentRow, error) {
		pair := pairs[i]
		g1 := models.ByNameMust(pair[0])
		g2 := models.ByNameMust(pair[1])

		sub01, err := a.Subset([]int{0, 1})
		if err != nil {
			return ConcurrentRow{}, err
		}
		sub2, err := a.Subset([]int{2})
		if err != nil {
			return ConcurrentRow{}, err
		}
		r1, err := core.CompileCached(g1, sub01, core.Stratum())
		if err != nil {
			return ConcurrentRow{}, err
		}
		r2, err := core.CompileCached(g2, sub2, core.Stratum())
		if err != nil {
			return ConcurrentRow{}, err
		}
		both, err := sim.RunConcurrent(a, []sim.Placement{
			{Program: r1.Program, Cores: []int{0, 1}},
			{Program: r2.Program, Cores: []int{2}},
		}, sim.Config{})
		if err != nil {
			return ConcurrentRow{}, err
		}

		var seq float64
		for _, g := range []string{pair[0], pair[1]} {
			_, out, err := runOne(models.ByNameMust(g), a, core.Stratum())
			if err != nil {
				return ConcurrentRow{}, err
			}
			seq += out.Stats.LatencyMicros(a.ClockMHz)
		}
		return ConcurrentRow{
			Pair:         pair[0] + " + " + pair[1],
			ConcurrentUS: both.Stats.TotalCycles / float64(a.ClockMHz),
			SequentialUS: seq,
		}, nil
	})
}

// PrintConcurrent renders the multi-network comparison.
func PrintConcurrent(w io.Writer, rows []ConcurrentRow) {
	fmt.Fprintln(w, "Multi-network concurrency: spatial core sharing vs time multiplexing")
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "pair", "concurrent", "sequential", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %12.1fus %12.1fus %8.1f%%\n",
			r.Pair, r.ConcurrentUS, r.SequentialUS, 100*(r.SequentialUS-r.ConcurrentUS)/r.SequentialUS)
	}
}

// PrintAblations renders every ablation study.
func PrintAblations(w io.Writer) error {
	fmt.Fprintln(w, "Ablation A1: synchronization cost sweep (MobileNetV2, latency us)")
	sync, err := SyncCostSweep("MobileNetV2")
	if err != nil {
		return err
	}
	printSweep(w, sync, "sync_us")

	fmt.Fprintln(w, "\nAblation A2: shared-bus bandwidth sweep (InceptionV3, latency us)")
	bus, err := BusSweep("InceptionV3")
	if err != nil {
		return err
	}
	printSweep(w, bus, "bus_B/cyc")

	fmt.Fprintln(w, "\nAblation A3: SPM capacity sweep (InceptionV3, +Stratum)")
	spm, err := SPMSweep("InceptionV3")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %12s %10s %12s\n", "SPM(KB)", "latency(us)", "instrs", "multi-strata")
	for _, r := range spm {
		fmt.Fprintf(w, "%10d %12.1f %10d %12d\n", r.SPMKB, r.LatencyUS, r.Instrs, r.MultiStrata)
	}

	fmt.Fprintln(w, "\nAblation A4: core-count scaling (MobileNetV2, +Stratum)")
	scaling, err := CoreScaling("MobileNetV2", 8)
	if err != nil {
		return err
	}
	base := scaling[0].LatencyUS
	fmt.Fprintf(w, "%8s %12s %9s\n", "cores", "latency(us)", "speedup")
	for _, p := range scaling {
		fmt.Fprintf(w, "%8.0f %12.1f %8.2fx\n", p.Param, p.LatencyUS, base/p.LatencyUS)
	}

	sched, err := SchedulingSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	PrintScheduling(w, sched)

	fmt.Fprintln(w, "\nAblation A5: energy model (uJ per inference)")
	energy, err := EnergySweep()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-17s %10s %10s %10s\n", "Model", "Base", "+Halo", "+Stratum")
	byModel := map[string]map[string]EnergyRow{}
	for _, r := range energy {
		if byModel[r.Model] == nil {
			byModel[r.Model] = map[string]EnergyRow{}
		}
		byModel[r.Model][r.Config] = r
	}
	for _, m := range models.All() {
		e := byModel[m.Name]
		fmt.Fprintf(w, "%-17s %10.0f %10.0f %10.0f\n",
			m.Name, e["Base"].UJ, e["+Halo"].UJ, e["+Stratum"].UJ)
	}

	ic, err := InterconnectSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	PrintInterconnect(w, ic)

	tp, err := ThroughputSweep("MobileNetV2", 8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	PrintThroughput(w, tp, 8)

	pl, err := PipelineSweep()
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	PrintPipeline(w, pl)
	return nil
}

// printSweep renders points grouped by parameter value.
func printSweep(w io.Writer, points []AblationPoint, param string) {
	configs := []string{}
	seen := map[string]bool{}
	for _, p := range points {
		if !seen[p.Config] {
			seen[p.Config] = true
			configs = append(configs, p.Config)
		}
	}
	fmt.Fprintf(w, "%10s", param)
	for _, c := range configs {
		fmt.Fprintf(w, " %10s", c)
	}
	fmt.Fprintln(w)
	byParam := map[float64]map[string]float64{}
	var params []float64
	for _, p := range points {
		if byParam[p.Param] == nil {
			byParam[p.Param] = map[string]float64{}
			params = append(params, p.Param)
		}
		byParam[p.Param][p.Config] = p.LatencyUS
	}
	for _, v := range params {
		fmt.Fprintf(w, "%10.1f", v)
		for _, c := range configs {
			fmt.Fprintf(w, " %10.1f", byParam[v][c])
		}
		fmt.Fprintln(w)
	}
}
