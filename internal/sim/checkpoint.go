package sim

import (
	"repro/internal/graph"
	"repro/internal/plan"
)

// CutAtCycle computes a recovery checkpoint post-hoc from a recorded
// trace (a Recorder's Events): the longest safe prefix (same cut rule as CoreFailure.Completed
// — every prefix layer finished all its instructions by the cut, and
// every prefix output consumed outside the prefix was stored to global
// memory) considering only events on the given global cores with
// End <= cut. This is how a scheduler preempts a running placement at a
// stratum boundary without engine support: simulate with a Recorder
// as Config.Hook, pick the cut cycle, and resume the suffix from the
// returned layers.
//
// cores must be the placement's global core set (the cores its trace
// events carry); p is that placement's program. The returned layer IDs
// are in p.Graph's coordinates, ready for recovery.SuffixGraph.
func CutAtCycle(p *plan.Program, cores []int, trace []Event, cut float64) []graph.LayerID {
	nl := p.Graph.Len()
	done := make([]int, nl)
	total := make([]int, nl)
	hasStore := make([]bool, nl)
	for _, stream := range p.Cores {
		for _, in := range stream {
			total[in.Layer]++
			// Only plan.Store reaches global memory; halo stores land in
			// a peer's SPM and are lost to a preempted placement exactly
			// like they are to a dead core.
			if in.Op == plan.Store {
				hasStore[in.Layer] = true
			}
		}
	}
	mine := make([]bool, 0, 8)
	for _, c := range cores {
		for c >= len(mine) {
			mine = append(mine, false)
		}
		mine[c] = true
	}
	for i := range trace {
		ev := &trace[i]
		if ev.Core >= len(mine) || !mine[ev.Core] {
			continue
		}
		if ev.End > cut+eps {
			continue
		}
		if int(ev.Layer) < nl {
			done[ev.Layer]++
		}
	}
	return checkpoint(p, done, total, hasStore)
}
