package npu

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Workload is one network of a concurrent multi-network run: the graph,
// the global core indices it owns, and its optimization options.
type Workload struct {
	Graph   *Graph
	Cores   []int
	Options Options
}

// SimConfig configures the shared simulation of a concurrent run
// (deadlines/cancellation via Ctx, fault injection, tracing). It is
// sim.Config re-exported so callers can thread serving-layer concerns
// into RunConcurrentCtx from the public API alone.
type SimConfig = sim.Config

// MultiReport is the outcome of a concurrent run.
type MultiReport struct {
	// Stats aggregates over the whole platform.
	Stats SimStats
	// PerWorkloadUS is each workload's completion time in microseconds,
	// indexed exactly like the input workload slice (PerWorkloadUS[i]
	// is workloads[i]; Stats.ProgramCycles shares the ordering). A
	// workload that follows another on the same cores starts when that
	// one retires, so its time includes the wait for its predecessor.
	PerWorkloadUS []float64
	// Arch is the shared platform.
	Arch *Arch
}

// CoreConflictError reports a workload whose core list breaks the
// placement rule, detected before any workload is compiled: a core out
// of range (Owner -1), a core listed twice (Owner == Workload), or a
// core shared with an earlier workload whose list differs.
type CoreConflictError = sim.CoreConflictError

// RunConcurrent compiles each workload for its core subset and
// simulates them together on one architecture, sharing the global
// memory bus — the multi-network concurrency scenario that motivates
// multicore NPU designs in the paper's introduction. Workloads on
// disjoint cores run side by side; workloads listing exactly the same
// cores run back to back in slice order, each starting when the one
// before it retires (time multiplexing, a sim.Placement stream). Any
// other overlap, an out-of-range core or a core listed twice is a
// *CoreConflictError.
func RunConcurrent(a *Arch, workloads []Workload) (*MultiReport, error) {
	return RunConcurrentCtx(nil, a, workloads, SimConfig{})
}

// RunConcurrentCtx is RunConcurrent with the caller's simulation
// configuration threaded through — deadlines and cancellation (ctx is
// polled at cooperative checkpoints in both the compile pipeline and
// the shared simulation, like the single-model RunCtx path), fault
// plans, tracing. Compilation goes through the fingerprint-keyed
// compile cache, so sweeps re-running identical (model, core subset,
// options) points compile once. A nil ctx and zero cfg behave exactly
// like RunConcurrent.
func RunConcurrentCtx(ctx context.Context, a *Arch, workloads []Workload, cfg SimConfig) (*MultiReport, error) {
	placements := make([]sim.Placement, len(workloads))
	for i, w := range workloads {
		placements[i].Cores = w.Cores
	}
	if err := sim.CheckCores(a, placements); err != nil {
		return nil, err
	}
	if ctx != nil {
		cfg.Ctx = ctx
	}
	for i, w := range workloads {
		sub, err := a.Subset(w.Cores)
		if err != nil {
			return nil, fmt.Errorf("workload %d: %w", i, err)
		}
		res, err := core.CompileCachedCtx(cfg.Ctx, w.Graph, sub, w.Options)
		if err != nil {
			return nil, fmt.Errorf("workload %d (%s): %w", i, w.Graph.Name, err)
		}
		placements[i].Program = res.Program
	}
	out, err := sim.RunConcurrent(a, placements, cfg)
	if err != nil {
		return nil, err
	}
	rep := &MultiReport{Stats: out.Stats, Arch: a}
	for _, pc := range out.Stats.ProgramCycles {
		rep.PerWorkloadUS = append(rep.PerWorkloadUS, pc/float64(a.ClockMHz))
	}
	return rep, nil
}
