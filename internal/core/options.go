// Package core is the multicore-NPU compiler: the paper's primary
// contribution. It orchestrates layer partitioning (heuristics h1–h5),
// layer scheduling (Algorithm 1), stratum construction (Algorithm 2,
// heuristics h6–h8), and tiling with the halo-first policy, and lowers
// the result to per-core instruction streams (package plan) that the
// discrete-event simulator (package sim) executes.
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/stratum"
)

// Scheduling selects the layer-ordering strategy (Figure 6 contrasts
// depth-first and breadth-first; Algorithm 1 mixes them by partition
// direction).
type Scheduling int

// Layer scheduling strategies.
const (
	// ScheduleAlgorithm1 follows the successor after spatially
	// partitioned layers and a sibling otherwise (the paper's
	// scheduler).
	ScheduleAlgorithm1 Scheduling = iota
	// ScheduleDepthFirst always follows a ready successor
	// (Figure 6(a): maximal data reuse).
	ScheduleDepthFirst
	// ScheduleBreadthFirst visits layers level by level (Figure 6(b):
	// longest spans between dependencies).
	ScheduleBreadthFirst
)

// String returns the strategy name.
func (s Scheduling) String() string {
	switch s {
	case ScheduleAlgorithm1:
		return "algorithm1"
	case ScheduleDepthFirst:
		return "depth-first"
	case ScheduleBreadthFirst:
		return "breadth-first"
	default:
		return "Scheduling(?)"
	}
}

// Options selects the optimization configuration (Table 3), plus
// fine-grained toggles the Figure 12 experiment isolates.
type Options struct {
	// Partitioning selects adaptive (h1–h5) or a forced direction
	// (Table 4 compares the three).
	Partitioning partition.Mode
	// Scheduling selects the layer execution order strategy.
	Scheduling Scheduling
	// HaloExchange exchanges borderline data between cores through the
	// halo-exchange interface instead of a full store-sync-load round
	// trip, removing the barrier from compatible adjacent layer pairs.
	HaloExchange bool
	// HaloFirst schedules halo-producing tiles before interior tiles
	// so the exchange overlaps with remaining computation.
	HaloFirst bool
	// Forwarding keeps a producer's output in SPM for the immediately
	// following consumer (feature-map forwarding), removing the local
	// store/load round trip as well.
	Forwarding bool
	// Stratum builds strata (Algorithm 2): synchronization-free chains
	// at the cost of redundant halo computation.
	Stratum bool
	// NoDoubleBuffer disables the double-buffered software pipeline
	// within each core: a tile's load then waits for the previous
	// tile's compute (single input buffer) and its compute for the
	// previous store (single output buffer). Exists to quantify the
	// pipelining benefit of Section 2.2 (ablation A10).
	NoDoubleBuffer bool
	// WeightScale optionally multiplies each core's partitioning
	// weight; the design-space explorer's scale genes (package dse),
	// including its profile-guided rebalancing move, feed measured
	// utilization back through it. Nil means unit scales.
	WeightScale []float64
	// ForceMethods optionally overrides the partitioning method per
	// layer, indexed by LayerID (the design-space explorer's genome;
	// see partition.MethodID). MethodAuto entries and overrides the
	// operator cannot support defer to h1–h5. Only consulted under
	// Partitioning == partition.Adaptive, so the fallback chain's
	// forced-channel last resort keeps its capacity guarantee.
	ForceMethods []partition.MethodID
	// StratumBoundary optionally overrides stratum accumulation per
	// layer, indexed by LayerID (see stratum.Boundary): Break forces a
	// stratum boundary, Fuse merges through the h8 cost cutoff where
	// h6/h7 legality holds. Nil means all-auto (the paper's h6–h8).
	StratumBoundary []stratum.Boundary
}

// Base returns the paper's Base configuration: adaptive partitioning
// and pipelined tiling, but every layer boundary goes through
// store-sync-load.
func Base() Options {
	return Options{Partitioning: partition.Adaptive}
}

// Halo returns the +Halo configuration: Base plus halo-exchange,
// halo-first tile order, and feature-map forwarding.
func Halo() Options {
	return Options{
		Partitioning: partition.Adaptive,
		HaloExchange: true,
		HaloFirst:    true,
		Forwarding:   true,
	}
}

// Stratum returns the +Stratum configuration: Halo plus stratum
// construction.
func Stratum() Options {
	o := Halo()
	o.Stratum = true
	return o
}

// Name returns the Table 3 label of the configuration.
func (o Options) Name() string {
	switch {
	case o.Stratum:
		return "+Stratum"
	case o.HaloExchange:
		return "+Halo"
	default:
		return "Base"
	}
}

// FallbackLevel identifies how far the compile driver's graceful-
// degradation chain had to back off before producing a schedule that
// fits SPM (tiler budget and simulator admission check both).
type FallbackLevel int

// Fallback chain levels, in the order the driver tries them. Each
// level keeps the restrictions of the previous ones.
const (
	// FallbackNone: the requested configuration compiled and admitted
	// as-is.
	FallbackNone FallbackLevel = iota
	// FallbackShrinkTiles: the tiler budget was scaled down (smaller
	// tiles, more of them), leaving headroom for cross-layer prefetch
	// overlap the per-layer budget cannot see.
	FallbackShrinkTiles
	// FallbackShallowStrata: stratum accumulation was capped so fewer
	// forwarded feature maps stay resident at once.
	FallbackShallowStrata
	// FallbackNoForwarding: feature-map forwarding was disabled; layer
	// boundaries go back through store-sync-load.
	FallbackNoForwarding
	// FallbackChannelPartition: the partitioner was forced to channel
	// mode (weights split, full feature maps per core) with forwarding
	// and strata off — the last resort for layers whose spatial slices
	// cannot fit.
	FallbackChannelPartition
)

// String returns a short human-readable label.
func (f FallbackLevel) String() string {
	switch f {
	case FallbackNone:
		return "none"
	case FallbackShrinkTiles:
		return "shrink-tiles"
	case FallbackShallowStrata:
		return "shallow-strata"
	case FallbackNoForwarding:
		return "no-forwarding"
	case FallbackChannelPartition:
		return "channel-partition"
	default:
		return "FallbackLevel(?)"
	}
}

// Downgrade records one step of the fallback chain: the level the
// driver moved to and the capacity failure that forced it.
type Downgrade struct {
	Level  FallbackLevel
	Reason string
}

// UnfitError reports that the fallback chain was exhausted without
// producing an admissible schedule.
type UnfitError struct {
	// Graph is the model name.
	Graph string
	// Downgrades lists every step the chain tried.
	Downgrades []Downgrade
	// Last is the failure of the final attempt.
	Last error
}

func (e *UnfitError) Error() string {
	return fmt.Sprintf("core: %s does not fit SPM at any fallback level (%d downgrades tried): %v",
		e.Graph, len(e.Downgrades), e.Last)
}

// Unwrap exposes the final attempt's failure for errors.As/Is.
func (e *UnfitError) Unwrap() error { return e.Last }

// Timing records the wall-clock cost of each compile pass. Cached
// compiles (CompileCached hits) return the timing of the original
// compilation, not the lookup.
type Timing struct {
	Partition time.Duration // stage 1: heuristics h1-h5
	Schedule  time.Duration // stage 2: Algorithm 1 + verification
	Stratum   time.Duration // stage 3: Algorithm 2 + trimming + validation
	Emit      time.Duration // stage 4: tiling + lowering
	Admit     time.Duration // stage 5: simulator SPM admission check
	Total     time.Duration // end to end, fallback retries included
}

// Result is the outcome of compilation.
type Result struct {
	// Program is the lowered, simulatable schedule.
	Program *plan.Program
	// Plans holds each layer's partitioning decision, by LayerID.
	Plans []partition.Plan
	// Order is the layer execution schedule (Algorithm 1).
	Order []graph.LayerID
	// Strata is the stratum decomposition actually lowered (singletons
	// when stratum construction is disabled or declined).
	Strata []stratum.Stratum
	// RedundantMACs is the extra compute stratum construction added.
	RedundantMACs int64
	// Timing is the wall-clock cost of each compile pass.
	Timing Timing
	// Fallback is how far the graceful-degradation chain backed off to
	// fit SPM (FallbackNone when the requested configuration admitted
	// as-is).
	Fallback FallbackLevel
	// Downgrades records each fallback step taken and why.
	Downgrades []Downgrade
	// CacheHit marks a Result that CompileCached served from the cache
	// without compiling. It is exact per call, and the stored entry
	// never carries it.
	CacheHit bool
	// Key is the compilation point's Fingerprint when the Result came
	// through CompileCached, hit or miss, and the zero CacheKey when it
	// came from Compile. Callers that memoize work on the program (the
	// tenancy co-run memo) key on it.
	Key CacheKey

	// clean is the admission run: the program's fault-free simulation,
	// shared by every copy of the Result (see SimulateOn).
	clean *admission
}

// admission is the compiler's clean run of its program, shared by every
// shallow copy of a Result (the compile cache hands out copies).
type admission struct {
	run *sim.Result

	// lay is the program's prepared layout on its whole machine, built
	// on the first engine run there (see SimulateOn) and shared by every
	// run after it.
	layOnce sync.Once
	lay     *sim.Layout

	// finish is the run's per-layer finish row (a sim.LayerFinish row),
	// computed on the first SimulateOn that checksums flips and kept for
	// the rest.
	once   sync.Once
	finish []float64
}

// layout returns p's prepared layout on its whole machine, building it
// the first time it is asked for; nil if p cannot be laid out.
func (c *admission) layout(p *plan.Program) *sim.Layout {
	c.layOnce.Do(func() { c.lay, _ = sim.Prepare(p.Arch, sim.Whole(p)) })
	return c.lay
}

// finishRow returns p's clean per-layer finish row, simulating p's
// layout once with a LayerFinish hook the first time it is asked for;
// nil if that run fails.
func (c *admission) finishRow(p *plan.Program) []float64 {
	c.once.Do(func() {
		lay := c.layout(p)
		if lay == nil {
			return
		}
		fin := sim.NewLayerFinish(sim.Whole(p))
		if _, err := lay.Run(sim.Config{Hook: fin}); err == nil {
			c.finish = fin.Finish[0]
		}
	})
	return c.finish
}
