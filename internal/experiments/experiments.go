// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the simulated platform: Figure 11
// (per-model performance across configurations), Figure 12 (pipelining
// profiles for the halo-first policy), Table 1 (partitioning methods),
// Table 2 (benchmark models), Table 4 (partitioning-scheme profile for
// InceptionV3), and Table 5 (Halo vs Stratum on the InceptionV3 stem).
//
// Each experiment returns structured rows and can print a formatted
// report; cmd/npubench and the repository benchmarks drive them.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sim"
)

// runOne compiles and simulates one (graph, arch, options) point.
// Compilation goes through the compile-result cache, so sweeps that
// revisit a configuration (the Base point appears in Figure 11,
// Table 4, and the energy ablation alike) compile it once.
func runOne(g *graph.Graph, a *arch.Arch, opt core.Options) (*core.Result, *sim.Result, error) {
	res, err := core.CompileCached(g, a, opt)
	if err != nil {
		return nil, nil, err
	}
	out, err := res.Simulate(sim.Config{})
	if err != nil {
		return nil, nil, err
	}
	return res, out, nil
}

// Fig11Row is one model's result in Figure 11.
type Fig11Row struct {
	Model string
	// Latencies in microseconds.
	SingleUS, BaseUS, HaloUS, StratumUS float64
}

// Speedup returns latency-relative performance over the single-core
// run (performance = 1/latency, Figure 11's y-axis).
func (r Fig11Row) Speedup(us float64) float64 { return r.SingleUS / us }

// Fig11 measures all six benchmark models in the four configurations
// of Figure 11: single-core, and three-core Base, +Halo, +Stratum.
// Every (model, configuration) point compiles and simulates
// independently, so the full grid fans out across the worker pool;
// rows are assembled in model order afterwards, identical to the
// serial sweep.
func Fig11() ([]Fig11Row, error) {
	single := arch.SingleCore()
	multi := arch.Exynos2100Like()
	ms := models.All()
	points := []struct {
		a   *arch.Arch
		opt core.Options
	}{
		{single, core.Base()},
		{multi, core.Base()},
		{multi, core.Halo()},
		{multi, core.Stratum()},
	}
	lats, err := parallel.Map(len(ms)*len(points), func(i int) (float64, error) {
		m := ms[i/len(points)]
		pt := points[i%len(points)]
		_, out, err := runOne(m.Build(), pt.a, pt.opt)
		if err != nil {
			return 0, fmt.Errorf("fig11 %s: %w", m.Name, err)
		}
		return out.Stats.LatencyMicros(pt.a.ClockMHz), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig11Row, len(ms))
	for mi, m := range ms {
		rows[mi] = Fig11Row{
			Model:     m.Name,
			SingleUS:  lats[mi*len(points)+0],
			BaseUS:    lats[mi*len(points)+1],
			HaloUS:    lats[mi*len(points)+2],
			StratumUS: lats[mi*len(points)+3],
		}
	}
	return rows, nil
}

// PrintFig11 renders Figure 11 as a table of speedups over single core.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Figure 11: performance (speedup over 1-core; performance = 1/latency)")
	fmt.Fprintf(w, "%-17s %10s %10s %10s %10s | %6s %6s %6s\n",
		"Model", "1core(us)", "Base(us)", "+Halo(us)", "+Strat(us)", "Base", "+Halo", "+Strat")
	gBase, gHalo, gStrat := 1.0, 1.0, 1.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %10.1f %10.1f %10.1f %10.1f | %5.2fx %5.2fx %5.2fx\n",
			r.Model, r.SingleUS, r.BaseUS, r.HaloUS, r.StratumUS,
			r.Speedup(r.BaseUS), r.Speedup(r.HaloUS), r.Speedup(r.StratumUS))
		gBase *= r.Speedup(r.BaseUS)
		gHalo *= r.Speedup(r.HaloUS)
		gStrat *= r.Speedup(r.StratumUS)
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "%-17s %43s | %5.2fx %5.2fx %5.2fx  (geomean)\n", "average", "",
			math.Pow(gBase, 1/n), math.Pow(gHalo, 1/n), math.Pow(gStrat, 1/n))
	}
	fmt.Fprintln(w, "paper: Base ~1.7x, +Halo 1.07x over Base, +Stratum 1.23x over Base, 2.1x overall")
}

// Table1Row is one row of Table 1 (convolution partitioning methods).
type Table1Row struct {
	Method partition.Method
}

// Table1 returns the partitioning-method enumeration.
func Table1() []Table1Row {
	methods := partition.ConvMethods()
	rows := make([]Table1Row, len(methods))
	for i, m := range methods {
		rows[i] = Table1Row{Method: m}
	}
	return rows
}

// PrintTable1 renders Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: layer partitioning methods for convolution")
	fmt.Fprintf(w, "%-10s %-18s %-18s %-22s %s\n", "direction", "partitioned", "replicated", "extra comm & comp", "used")
	for _, r := range rows {
		m := r.Method
		used := "yes"
		if !m.Preferred {
			used = "no (reduction)"
		}
		fmt.Fprintf(w, "%-10s %-18s %-18s %-22s %s\n",
			m.Name, join(m.DataPartitioned), join(m.DataReplicated), m.ExtraCommComp, used)
	}
}

func join(xs []string) string {
	if len(xs) == 0 {
		return "none"
	}
	return strings.Join(xs, ", ")
}

// Table2Row is one benchmark model descriptor.
type Table2Row struct {
	Info   models.Info
	Layers int
	GMACs  float64
}

// Table2 builds every benchmark model and reports its geometry; the
// builds are independent and fan out across the worker pool.
func Table2() []Table2Row {
	ms := models.All()
	rows, _ := parallel.Map(len(ms), func(i int) (Table2Row, error) {
		g := ms[i].Build()
		return Table2Row{Info: ms[i], Layers: g.Len(), GMACs: float64(g.TotalMACs()) / 1e9}, nil
	})
	return rows
}

// PrintTable2 renders Table 2 (extended with layer and MAC counts).
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2: benchmark CNN models")
	fmt.Fprintf(w, "%-17s %-17s %-13s %-6s %7s %8s\n", "Model", "Category", "Input(HxWxC)", "Type", "Layers", "GMACs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-17s %-17s %-13s %-6s %7d %8.2f\n",
			r.Info.Name, r.Info.Category, r.Info.Input.String(), r.Info.DType.String(), r.Layers, r.GMACs)
	}
}

// Table4Row is one partitioning scheme's per-core profile for
// InceptionV3.
type Table4Row struct {
	Scheme string
	// BytesPerCore is global<->local traffic per core.
	BytesPerCore []int64
	// IdleUSPerCore is idle time per core in microseconds.
	IdleUSPerCore []float64
	// LatencyUS is the end-to-end latency.
	LatencyUS float64
}

// Table4 profiles InceptionV3 under spatial-only, channel-only, and
// adaptive partitioning (Base configuration otherwise), reporting the
// per-core data-transfer amounts and idle times of the paper's
// Table 4.
func Table4() ([]Table4Row, error) {
	g := models.InceptionV3()
	a := arch.Exynos2100Like()
	schemes := []struct {
		name string
		mode partition.Mode
	}{
		{"spatial", partition.ForceSpatial},
		{"channel", partition.ForceChannel},
		{"adaptive", partition.Adaptive},
	}
	return parallel.Map(len(schemes), func(i int) (Table4Row, error) {
		sch := schemes[i]
		opt := core.Base()
		opt.Partitioning = sch.mode
		res, out, err := runOne(g, a, opt)
		if err != nil {
			return Table4Row{}, fmt.Errorf("table4 %s: %w", sch.name, err)
		}
		row := Table4Row{Scheme: sch.name, LatencyUS: out.Stats.LatencyMicros(a.ClockMHz)}
		for c := range a.Cores {
			row.BytesPerCore = append(row.BytesPerCore, res.Program.TotalBytes(c))
			// Idle in the paper's sense: time a core spends waiting on
			// the others — barrier waits plus the tail after the
			// core's own work finished.
			cs := out.Stats.PerCore[c]
			idle := (cs.SyncWait + (out.Stats.TotalCycles - cs.Finish)) / float64(a.ClockMHz)
			row.IdleUSPerCore = append(row.IdleUSPerCore, idle)
		}
		return row, nil
	})
}

// PrintTable4 renders Table 4.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: InceptionV3 per-core profile by partitioning scheme")
	fmt.Fprintf(w, "%-10s %-34s %-26s %10s\n", "scheme", "data transfer (global<->local)", "idle time", "latency")
	for _, r := range rows {
		var bs, is []float64
		for i := range r.BytesPerCore {
			bs = append(bs, float64(r.BytesPerCore[i]))
			is = append(is, r.IdleUSPerCore[i])
		}
		fmt.Fprintf(w, "%-10s ", r.Scheme)
		for _, b := range r.BytesPerCore {
			fmt.Fprintf(w, "%7.0fKB ", float64(b)/1024)
		}
		fmt.Fprintf(w, " %s  ", metrics.Summarize(bs).KB())
		for _, i := range r.IdleUSPerCore {
			fmt.Fprintf(w, "%5.0fus ", i)
		}
		fmt.Fprintf(w, " %s  %8.1fus\n", metrics.Summarize(is).String()+"us", r.LatencyUS)
	}
	fmt.Fprintln(w, "paper: adaptive has the lowest total transfer and the lowest idle μ and σ")
}

// Table5Row is one configuration's result on the InceptionV3 stem.
type Table5Row struct {
	Config string
	// LatencyUS is the stem's end-to-end latency.
	LatencyUS float64
	// GMACs is the computation amount including stratum redundancy.
	GMACs float64
	// SyncUS summarizes per-core synchronization overhead.
	SyncUS metrics.Summary
}

// Table5 compares halo-exchange only, stratum only, and both combined
// on the stem region of InceptionV3 (the paper's Table 5 workload).
func Table5() ([]Table5Row, error) {
	g := models.InceptionV3Stem()
	a := arch.Exynos2100Like()
	configs := []struct {
		name string
		opt  core.Options
	}{
		{"+Halo", core.Halo()},
		{"+Stratum", func() core.Options {
			o := core.Base()
			o.Stratum = true
			return o
		}()},
		{"Combined", core.Stratum()},
	}
	return parallel.Map(len(configs), func(i int) (Table5Row, error) {
		cfg := configs[i]
		_, out, err := runOne(g, a, cfg.opt)
		if err != nil {
			return Table5Row{}, fmt.Errorf("table5 %s: %w", cfg.name, err)
		}
		var syncs []float64
		for _, c := range out.Stats.PerCore {
			syncs = append(syncs, c.SyncWait/float64(a.ClockMHz))
		}
		return Table5Row{
			Config:    cfg.name,
			LatencyUS: out.Stats.LatencyMicros(a.ClockMHz),
			GMACs:     float64(out.Stats.TotalMACs()) / 1e9,
			SyncUS:    metrics.Summarize(syncs),
		}, nil
	})
}

// PrintTable5 renders Table 5.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: Halo vs Stratum on the InceptionV3 stem region")
	fmt.Fprintf(w, "%-10s %14s %14s %s\n", "config", "latency", "computation", "sync overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12.1fus %13.2fG %s\n", r.Config, r.LatencyUS, r.GMACs, r.SyncUS.String()+"us")
	}
	fmt.Fprintln(w, "paper: 387us/1.34G, 386us/1.39G, 378.8us/1.35G — combined wins; stratum trades sync for compute")
}
