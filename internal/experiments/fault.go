package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// faultLatency simulates g under a fault plan and returns the
// end-to-end latency in microseconds, recovering onto surviving cores
// when a core fails.
func faultLatency(g *graph.Graph, a *arch.Arch, opt core.Options, p *fault.Plan) (float64, error) {
	res, err := core.CompileCached(g, a, opt)
	if err != nil {
		return 0, err
	}
	rec, err := recovery.Run(res, recovery.Options{Opt: opt, Sim: sim.Config{Faults: p}})
	if err != nil {
		return 0, err
	}
	return rec.TotalCycles / float64(a.ClockMHz), nil
}

// FaultRateSweep measures the latency-degradation curve under
// transient DMA drops for the three Table 3 configurations: every
// dropped transfer re-consumes bus bandwidth after an exponential
// backoff, so the curve steepens with the configuration's traffic.
func FaultRateSweep(model string) ([]AblationPoint, error) {
	m, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	g := m.Build()
	a := arch.Exynos2100Like()
	rates := []float64{0, 0.02, 0.05, 0.10, 0.20}
	opts := []core.Options{core.Base(), core.Halo(), core.Stratum()}
	return parallel.Map(len(rates)*len(opts), func(i int) (AblationPoint, error) {
		rate, opt := rates[i/len(opts)], opts[i%len(opts)]
		us, err := faultLatency(g, a, opt, &fault.Plan{Seed: 1, DropRate: rate})
		if err != nil {
			return AblationPoint{}, fmt.Errorf("fault sweep %g %s: %w", rate, opt.Name(), err)
		}
		// Percent, so printSweep's one-decimal column keeps the
		// 2% and 5% rows distinguishable.
		return AblationPoint{Param: 100 * rate, Config: opt.Name(), LatencyUS: us}, nil
	})
}

// DeathRow is one configuration's exposure to a mid-run core death.
type DeathRow struct {
	Config           string
	CleanUS          float64
	DegradedUS       float64 // failed attempt + re-dispatch + recovered rerun
	CheckpointLayers int     // layers safely published before the failure
	ReExecuted       int     // layers the recovery had to recompute
}

// DeathSweep kills one core halfway through a clean run under each
// configuration and measures the recovery cost. It quantifies the
// stratum trade-off the paper never had to face: Base stores every
// layer to global memory and resumes from a deep checkpoint, while
// +Halo/+Stratum forward intermediates through SPM across many layers
// without publishing — a dead core loses all of it, forcing a restart.
func DeathSweep(g *graph.Graph) ([]DeathRow, error) {
	a := arch.Exynos2100Like()
	opts := []core.Options{core.Base(), core.Halo(), core.Stratum()}
	return parallel.Map(len(opts), func(i int) (DeathRow, error) {
		opt := opts[i]
		res, err := core.CompileCached(g, a, opt)
		if err != nil {
			return DeathRow{}, err
		}
		clean, err := res.Simulate(sim.Config{})
		if err != nil {
			return DeathRow{}, err
		}
		plan := &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: 0.5 * clean.Stats.TotalCycles}}}
		rec, err := recovery.Run(res, recovery.Options{Opt: opt, Sim: sim.Config{Faults: plan}})
		if err != nil {
			return DeathRow{}, fmt.Errorf("death sweep %s: %w", opt.Name(), err)
		}
		if len(rec.Failures) == 0 {
			return DeathRow{}, fmt.Errorf("death sweep %s: expected core failure, run completed clean", opt.Name())
		}
		return DeathRow{
			Config:           opt.Name(),
			CleanUS:          clean.Stats.LatencyMicros(a.ClockMHz),
			DegradedUS:       rec.TotalCycles / float64(a.ClockMHz),
			CheckpointLayers: len(rec.Completed),
			ReExecuted:       rec.ReExecutedLayers(),
		}, nil
	})
}

func printDeathRows(w io.Writer, rows []DeathRow) {
	fmt.Fprintf(w, "%-10s %10s %12s %12s %12s %10s\n",
		"config", "clean", "degraded", "slowdown", "checkpoint", "re-exec")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8.1fus %10.1fus %11.2fx %12d %10d\n",
			r.Config, r.CleanUS, r.DegradedUS, r.DegradedUS/r.CleanUS,
			r.CheckpointLayers, r.ReExecuted)
	}
}

// PrintFaults renders ablation A11: graceful degradation under faults.
func PrintFaults(w io.Writer, model string) error {
	fmt.Fprintf(w, "Ablation A11: DMA drop rate vs latency (%s, latency us)\n", model)
	points, err := FaultRateSweep(model)
	if err != nil {
		return err
	}
	printSweep(w, points, "drop_%")

	fmt.Fprintf(w, "\nAblation A11: core death at 50%% of clean latency (%s)\n", model)
	m, err := models.ByName(model)
	if err != nil {
		return err
	}
	rows, err := DeathSweep(m.Build())
	if err != nil {
		return err
	}
	printDeathRows(w, rows)

	// A branching model stores at every residual junction, hiding the
	// stratum exposure; a deep SAME-conv chain is the workload strata
	// were built for, and there the trade-off is stark: Base resumes
	// from its per-layer stores while the forwarding configurations
	// restart from the input.
	chain := models.ConvChain(12, 96, 96, 32)
	fmt.Fprintf(w, "\nAblation A11: core death exposure on %s (strata span layers without stores)\n", chain.Name)
	rows, err = DeathSweep(chain)
	if err != nil {
		return err
	}
	printDeathRows(w, rows)
	return nil
}
