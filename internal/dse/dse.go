// Package dse is a design-space explorer for multicore-NPU schedules.
// The paper's compiler is one hand-picked point in a much larger
// space: heuristics h1–h5 fix each layer's partitioning method, h6–h8
// fix the stratum (layer-fusion) boundaries, and the partitioner
// balances cores by a static cost model. This package searches the
// joint space — per-layer partitioning-method overrides, per-layer
// stratum-boundary overrides (fusion depth), and quantized per-core
// weight scales — with seeded, deterministic random-restart hill
// climbing plus a beam over neighborhood perturbations. One of the
// scale moves is the paper's profile-guided rebalancing (Section
// 3.1.3), so this search is also the toolchain's only rebalancer.
//
// Candidate evaluation is the existing toolchain end to end: genomes
// lower to core.Options, compile through the fingerprint-keyed
// compile cache (revisits cost a cache hit), pass the SPM admission
// check and the compile driver's graceful-degradation chain like any
// other schedule, and score by simulated cycles from the event
// engine. Evaluation fans out on parallel.MapCtx; candidate
// generation, dedupe, and selection are single-threaded with
// splitmix64 randomness and lowest-index tie-breaks, so same-seed
// searches are byte-identical at any worker count. The winning
// schedule is re-verified for bit-identity between the event engine
// and the retained reference engine before it is reported.
package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// The search budget. Restart 0 climbs from the heuristic baseline
// genome; later restarts start from randomized genomes.
const (
	restarts  = 2 // hill-climbing restarts
	beamWidth = 3 // genomes surviving each generation
	iters     = 4 // generations per restart
	neighbors = 4 // perturbations each beam genome spawns per generation
)

// Explored records one evaluated genome, for the invariants suite.
type Explored struct {
	Genome   Genome
	Cycles   float64 // +Inf when infeasible
	Feasible bool
}

// Result is the outcome of one exploration.
type Result struct {
	// Model names the explored graph.
	Model string
	// Seed echoes the search seed.
	Seed uint64
	// BaselineCycles is the simulated latency of the heuristic (h1–h8)
	// schedule the search starts from.
	BaselineCycles float64
	// BestCycles is the best feasible latency found (<= baseline: the
	// baseline genome is always evaluated).
	BestCycles float64
	// ImprovementPct is the relative gain over the baseline.
	ImprovementPct float64
	// Best is the winning genome.
	Best Genome
	// BestFallback is the fallback level the winning schedule compiled
	// at ("none" when it admitted as requested).
	BestFallback string
	// Points is the number of unique genomes compiled and simulated.
	Points int
	// Revisits counts generated genomes that deduplicated onto an
	// already-evaluated point (no compile, no sim).
	Revisits int
	// Infeasible counts explored genomes the SPM fallback chain could
	// not fit at any level.
	Infeasible int
	// CacheHits/CacheMisses are the compile-cache deltas over the
	// exploration (the baseline is a hit when an earlier sweep already
	// compiled it; the winner's verification re-compile always is).
	CacheHits, CacheMisses int64
	// EngineMatch reports that the winning schedule simulated
	// bit-identically on the event and reference engines.
	EngineMatch bool
	// Explored lists every evaluated point, for the invariants tests.
	// It is not serialized into reports.
	Explored []Explored `json:"-"`
}

// scored is a genome with its evaluation, ordered by (cycles, seq):
// seq is the deterministic generation order, so equal-cycle candidates
// resolve to the earliest generated — the lowest-index tie-break.
type scored struct {
	genome Genome
	cycles float64
	work   []float64
	seq    int
}

// Explore searches the schedule design space of graph g on
// architecture a, starting from (and comparing against) base — the
// heuristic configuration to beat, typically core.Stratum(). seed
// drives every random decision: same seed, same result. ctx cancels
// the search cooperatively; the error then wraps ctx's error.
func Explore(ctx context.Context, g *graph.Graph, a *arch.Arch, base core.Options, seed uint64) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	hits0, misses0 := core.CacheStats()

	res := &Result{Model: g.Name, Seed: seed}
	ms := newMoveSpace(g)
	seen := make(map[string]scored)
	seq := 0

	// evalBatch compiles and simulates unseen genomes concurrently.
	// Results land in generation order; infeasible genomes (the SPM
	// chain exhausted) score +Inf and stay in the pool as dead ends.
	evalBatch := func(batch []Genome) ([]scored, error) {
		outs, err := parallel.MapCtx(ctx, len(batch), func(ctx context.Context, i int) (scored, error) {
			opt := batch[i].Options(base)
			cres, err := core.CompileCachedCtx(ctx, g, a, opt)
			if err != nil {
				var unfit *core.UnfitError
				if errors.As(err, &unfit) {
					return scored{genome: batch[i], cycles: math.Inf(1)}, nil
				}
				return scored{}, fmt.Errorf("dse: genome compile: %w", err)
			}
			out, err := cres.Simulate(sim.Config{Ctx: ctx})
			if err != nil {
				return scored{}, fmt.Errorf("dse: genome sim: %w", err)
			}
			work := make([]float64, len(out.Stats.PerCore))
			for c, cs := range out.Stats.PerCore {
				work[c] = math.Max(cs.ComputeBusy, math.Max(cs.LoadBusy, cs.StoreBusy))
			}
			return scored{genome: batch[i], cycles: out.Stats.TotalCycles, work: work}, nil
		})
		if err != nil {
			return nil, err
		}
		for i := range outs {
			outs[i].seq = seq
			seq++
			seen[outs[i].genome.key()] = outs[i]
			feasible := !math.IsInf(outs[i].cycles, 1)
			if !feasible {
				res.Infeasible++
			}
			res.Points++
			res.Explored = append(res.Explored, Explored{
				Genome: outs[i].genome, Cycles: outs[i].cycles, Feasible: feasible,
			})
		}
		return outs, nil
	}

	// Baseline: the all-auto genome, whose Options fingerprint-match
	// base exactly.
	baseGenome := newGenome(g, a.NumCores())
	basePts, err := evalBatch([]Genome{baseGenome})
	if err != nil {
		return nil, err
	}
	baseline := basePts[0]
	if math.IsInf(baseline.cycles, 1) {
		return nil, fmt.Errorf("dse: baseline configuration does not fit SPM on %s", g.Name)
	}
	res.BaselineCycles = baseline.cycles
	best := baseline

	better := func(x, y scored) bool {
		if x.cycles != y.cycles {
			return x.cycles < y.cycles
		}
		return x.seq < y.seq
	}

	for r := 0; r < restarts; r++ {
		rng := prng(seed + uint64(r)*0x9e3779b97f4a7c15)
		beam := []scored{baseline}
		if r > 0 {
			start := ms.randomize(&rng, baseGenome, 2+neighbors)
			if s, ok := seen[start.key()]; ok {
				res.Revisits++
				beam = []scored{s}
			} else {
				pts, err := evalBatch([]Genome{start})
				if err != nil {
					return nil, err
				}
				beam = pts
			}
		}
		for it := 0; it < iters; it++ {
			var batch []Genome
			var cached []scored
			for _, b := range beam {
				for n := 0; n < neighbors; n++ {
					child := ms.mutate(&rng, b.genome, b.work)
					if s, ok := seen[child.key()]; ok {
						res.Revisits++
						cached = append(cached, s)
						continue
					}
					// Mark pending so one generation never evaluates
					// the same genome twice.
					seen[child.key()] = scored{genome: child, cycles: math.Inf(1), seq: -1}
					batch = append(batch, child)
				}
			}
			pts, err := evalBatch(batch)
			if err != nil {
				return nil, err
			}
			pool := append(append(beam, cached...), pts...)
			sort.SliceStable(pool, func(i, j int) bool { return better(pool[i], pool[j]) })
			// Dedupe the pool by key (a cached hit may duplicate a beam
			// member) and truncate to the beam width.
			var next []scored
			inPool := make(map[string]bool)
			for _, s := range pool {
				if k := s.genome.key(); !inPool[k] {
					inPool[k] = true
					next = append(next, s)
				}
				if len(next) == beamWidth {
					break
				}
			}
			beam = next
			if better(beam[0], best) {
				best = beam[0]
			}
		}
	}

	res.Best = best.genome
	res.BestCycles = best.cycles
	res.ImprovementPct = 100 * (res.BaselineCycles - res.BestCycles) / res.BaselineCycles

	// Verify the winner: recompile (a cache hit), then require
	// bit-identical statistics from the event engine and the retained
	// reference oracle, with the SPM admission check on in both.
	wres, err := core.CompileCachedCtx(ctx, g, a, best.genome.Options(base))
	if err != nil {
		return nil, fmt.Errorf("dse: winner recompile: %w", err)
	}
	res.BestFallback = wres.Fallback.String()
	ev, err := wres.Simulate(sim.Config{Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("dse: winner event sim: %w", err)
	}
	ref, err := sim.RunReference(wres.Program, sim.Config{Ctx: ctx})
	if err != nil {
		return nil, fmt.Errorf("dse: winner reference sim: %w", err)
	}
	if !statsEqual(&ev.Stats, &ref.Stats) {
		return nil, fmt.Errorf("dse: winner schedule diverges between engines (event %.0f vs reference %.0f cycles)",
			ev.Stats.TotalCycles, ref.Stats.TotalCycles)
	}
	res.EngineMatch = true

	hits1, misses1 := core.CacheStats()
	res.CacheHits = hits1 - hits0
	res.CacheMisses = misses1 - misses0
	return res, nil
}

// statsEqual compares two simulation outcomes bit-exactly: total and
// per-core cycle accounting, traffic, and barrier counts.
func statsEqual(a, b *sim.Stats) bool {
	if a.TotalCycles != b.TotalCycles || a.Barriers != b.Barriers || len(a.PerCore) != len(b.PerCore) {
		return false
	}
	if len(a.ProgramCycles) != len(b.ProgramCycles) {
		return false
	}
	for i := range a.ProgramCycles {
		if a.ProgramCycles[i] != b.ProgramCycles[i] {
			return false
		}
	}
	for i := range a.PerCore {
		x, y := a.PerCore[i], b.PerCore[i]
		if x != y {
			return false
		}
	}
	return true
}
