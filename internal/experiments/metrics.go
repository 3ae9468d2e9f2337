package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// UtilizationRow is one model's observed cycle attribution under a
// configuration — the simulated counterpart of Figure 10's stacked
// utilization bars.
type UtilizationRow struct {
	Model string
	// Report is the full structured report (per-core, per-layer, SPM,
	// bus, strata).
	Report *metrics.Report
	// MeanFractions averages the per-core exclusive fractions.
	MeanFractions metrics.Breakdown
}

// Utilization runs every Table 2 model under opt on the three-core
// platform with the metrics hook attached and reports the utilization
// breakdowns. Models fan out across the worker pool.
func Utilization(opt core.Options) ([]UtilizationRow, error) {
	a := arch.Exynos2100Like()
	ms := models.All()
	return parallel.Map(len(ms), func(i int) (UtilizationRow, error) {
		m := ms[i]
		res, err := core.CompileCached(m.Build(), a, opt)
		if err != nil {
			return UtilizationRow{}, fmt.Errorf("utilization %s: %w", m.Name, err)
		}
		col := &metrics.Collector{}
		out, err := sim.Run(res.Program, sim.Config{Hook: col})
		if err != nil {
			return UtilizationRow{}, fmt.Errorf("utilization %s: %w", m.Name, err)
		}
		cores := make([]int, a.NumCores())
		for c := range cores {
			cores[c] = c
		}
		rep := metrics.BuildReport(a, []sim.Placement{{Program: res.Program, Cores: cores}}, &out.Stats, col)
		rep.AttachCompile(res)
		rep.Model = m.Name
		rep.Config = opt.Name()

		row := UtilizationRow{Model: m.Name, Report: rep}
		if n := float64(len(rep.Cores)); n > 0 {
			for _, cr := range rep.Cores {
				f := cr.Exclusive.Fractions(cr.TotalCycles)
				row.MeanFractions.Compute += f.Compute / n
				row.MeanFractions.Halo += f.Halo / n
				row.MeanFractions.Load += f.Load / n
				row.MeanFractions.Store += f.Store / n
				row.MeanFractions.Stall += f.Stall / n
				row.MeanFractions.Idle += f.Idle / n
			}
		}
		return row, nil
	})
}

// PrintUtilization renders the Figure-10-style table: where each
// model's cycles go, averaged over cores, plus SPM pressure and bus
// contention.
func PrintUtilization(w io.Writer, config string, rows []UtilizationRow) {
	fmt.Fprintf(w, "Figure 10 (sim): per-model cycle attribution, %s, mean over cores\n", config)
	fmt.Fprintf(w, "%-17s %8s %8s %8s %8s %8s %8s | %9s %9s %8s %-14s\n",
		"Model", "compute", "halo", "load", "store", "stall", "idle", "SPM-peak", "bus-cont", "redund", "fallback")
	for _, r := range rows {
		f := r.MeanFractions
		var peakUtil float64
		for _, sp := range r.Report.SPM {
			if sp.Utilization > peakUtil {
				peakUtil = sp.Utilization
			}
		}
		var contended float64
		if r.Report.TotalCycles > 0 {
			contended = r.Report.Bus.ContendedCycles / r.Report.TotalCycles
		}
		var redundant, executed int64
		for _, sr := range r.Report.Strata {
			redundant += sr.RedundantMACs
			executed += sr.ExecutedMACs
		}
		var redundPct float64
		if executed > 0 {
			redundPct = 100 * float64(redundant) / float64(executed)
		}
		fallback := ""
		if r.Report.Compile != nil {
			fallback = r.Report.Compile.Fallback
		}
		fmt.Fprintf(w, "%-17s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% | %8.0f%% %8.1f%% %7.2f%% %-14s\n",
			r.Model, 100*f.Compute, 100*f.Halo, 100*f.Load, 100*f.Store, 100*f.Stall, 100*f.Idle,
			100*peakUtil, 100*contended, redundPct, fallback)
	}
	fmt.Fprintln(w, "compute+halo+load+store+stall+idle = 100% per core by construction; the admission check holds SPM-peak <= 100%; fallback is how far the compile driver backed off to fit")
}
