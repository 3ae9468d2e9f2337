// Package autotune implements profile-guided rebalancing: the paper
// notes that independently compiled sub-layers "may incur unbalanced
// workload across multicores and unnecessary idle time", and that
// "profiling execution assists to detect unwanted idle times and fix
// the unbalance" (Section 3.1.3).
//
// AutoBalance closes that loop against the simulator: compile,
// simulate, scale each core's partitioning weight by its observed
// utilization, and recompile, keeping the best schedule found. Each
// iteration evaluates several step sizes of the rebalancing update as
// concurrent candidates on the worker pool and commits the winner —
// the candidate set and the winner selection are deterministic, so a
// parallel run returns exactly the serial result.
package autotune

import (
	"context"
	"math"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// dampings are the candidate step exponents tried each iteration: the
// square root is the historical oscillation-damped step, 0.25 a
// conservative half of it, and 1 the full proportional correction.
// Order matters — ties in simulated latency resolve to the lowest
// index, keeping the damped step the deterministic default.
var dampings = []float64{0.5, 0.25, 1}

// Step records one tuning iteration.
type Step struct {
	// LatencyCycles is the simulated latency of the iteration's winning
	// candidate.
	LatencyCycles float64
	// Scale is the per-core weight multiplier the winner used.
	Scale []float64
}

// Result is the outcome of AutoBalance.
type Result struct {
	// Best is the best compilation found.
	Best *core.Result
	// BestLatencyCycles is its simulated latency.
	BestLatencyCycles float64
	// Steps traces every iteration in order.
	Steps []Step
	// Evaluated counts the compile+simulate points tried across all
	// iterations (each iteration past the first tries len of the
	// candidate step set).
	Evaluated int
}

// eval is one candidate's compile+simulate outcome.
type eval struct {
	res *core.Result
	lat float64
	// work is each core's busiest-engine occupancy — the profile the
	// next iteration's candidates are derived from.
	work []float64
}

// AutoBalance runs up to iters profile-and-rebalance iterations
// (iters >= 1; the first iteration is the unscaled compile).
func AutoBalance(g *graph.Graph, a *arch.Arch, opt core.Options, iters int) (*Result, error) {
	return AutoBalanceCtx(nil, g, a, opt, iters, sim.Config{})
}

// AutoBalanceCtx is AutoBalance with cooperative cancellation and a
// caller-supplied simulator configuration. Candidate compiles go
// through the fingerprint-keyed compile cache, so a sweep that
// revisits a scale vector (or an outer search, like the design-space
// explorer, that re-evaluates the unscaled point) costs a cache hit.
// ctx threads into both the compile (core.CompileCachedCtx) and the
// simulation (cfg.Ctx), so a deadline cuts the tuning loop short like
// every other sweep; cfg otherwise passes through unchanged (hooks,
// trace, SPM-check policy).
func AutoBalanceCtx(ctx context.Context, g *graph.Graph, a *arch.Arch, opt core.Options, iters int, cfg sim.Config) (*Result, error) {
	if iters < 1 {
		iters = 1
	}
	n := a.NumCores()

	evalOne := func(ctx context.Context, scale []float64) (eval, error) {
		o := opt
		o.WeightScale = append([]float64(nil), scale...)
		res, err := core.CompileCachedCtx(ctx, g, a, o)
		if err != nil {
			return eval{}, err
		}
		runCfg := cfg
		if runCfg.Ctx == nil {
			runCfg.Ctx = ctx
		}
		out, err := res.Simulate(runCfg)
		if err != nil {
			return eval{}, err
		}
		// A core's pace is set by its busiest engine (compute, load DMA,
		// or store DMA); equalizing that occupancy across cores
		// equalizes per-layer finish times — the imbalance profiling is
		// meant to fix.
		work := make([]float64, n)
		for c, cs := range out.Stats.PerCore {
			work[c] = math.Max(cs.ComputeBusy, math.Max(cs.LoadBusy, cs.StoreBusy))
			if work[c] < 1 {
				work[c] = 1
			}
		}
		return eval{res: res, lat: out.Stats.TotalCycles, work: work}, nil
	}

	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 1
	}
	cur, err := evalOne(ctx, scale)
	if err != nil {
		return nil, err
	}
	result := &Result{
		Best:              cur.res,
		BestLatencyCycles: cur.lat,
		Steps:             []Step{{LatencyCycles: cur.lat, Scale: append([]float64(nil), scale...)}},
		Evaluated:         1,
	}

	for it := 1; it < iters; it++ {
		var mean float64
		for _, w := range cur.work {
			mean += w
		}
		mean /= float64(n)

		// One candidate per damping exponent, all derived from the
		// current winner's profile.
		cands := make([][]float64, len(dampings))
		for ci, d := range dampings {
			s := make([]float64, n)
			for c := range s {
				s[c] = scale[c] * math.Pow(mean/cur.work[c], d)
			}
			cands[ci] = s
		}
		evals, err := parallel.MapCtx(ctx, len(cands), func(ctx context.Context, i int) (eval, error) {
			return evalOne(ctx, cands[i])
		})
		if err != nil {
			return nil, err
		}
		result.Evaluated += len(cands)

		best := 0
		for i := 1; i < len(evals); i++ {
			if evals[i].lat < evals[best].lat {
				best = i
			}
		}
		scale, cur = cands[best], evals[best]
		result.Steps = append(result.Steps, Step{LatencyCycles: cur.lat, Scale: append([]float64(nil), scale...)})
		if cur.lat < result.BestLatencyCycles {
			result.Best = cur.res
			result.BestLatencyCycles = cur.lat
		}
	}
	return result, nil
}
