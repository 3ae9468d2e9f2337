package sim

import (
	"math"

	"repro/internal/graph"
	"repro/internal/plan"
)

// LayerFinish is the Hook a preempting scheduler installs in place of a
// Recorder: per placement, when each layer retired its last
// instruction. That is all CutAtCycle needs, and it holds for a failed
// run's prefix as well as for a clean run: a layer whose instructions
// did not all retire never finishes.
type LayerFinish struct {
	// Finish[p][l] is when placement p's layer l (in p's graph) retired
	// its last instruction: +Inf until then, 0 for a layer with no
	// instructions.
	Finish [][]float64
	left   [][]int32 // instructions of each layer not yet retired
}

// NewLayerFinish returns a LayerFinish sized for placements: one row per
// placement, one entry per layer of its program's graph.
func NewLayerFinish(placements []Placement) *LayerFinish {
	f := &LayerFinish{Finish: make([][]float64, len(placements)), left: make([][]int32, len(placements))}
	for i, pl := range placements {
		f.Finish[i] = make([]float64, pl.Program.Graph.Len())
		f.left[i] = make([]int32, pl.Program.Graph.Len())
		for _, stream := range pl.Program.Cores {
			for k := range stream {
				f.left[i][stream[k].Layer]++
			}
		}
		for l, k := range f.left[i] {
			if k > 0 {
				f.Finish[i][l] = math.Inf(1)
			}
		}
	}
	return f
}

// OnInstr implements Hook. Instructions retire in End order, so a
// layer's last one to retire carries its latest End.
func (f *LayerFinish) OnInstr(e Event) {
	left := f.left[e.Placement]
	if left[e.Layer]--; left[e.Layer] == 0 {
		f.Finish[e.Placement][e.Layer] = e.End
	}
}

// CutAtCycle computes a recovery checkpoint post-hoc from a run's
// per-layer finish cycles (one LayerFinish row): the longest safe
// prefix, by the same cut rule as CoreFailure.Completed — every prefix
// layer finished all its instructions by the cut, and every prefix
// output consumed outside the prefix was stored to global memory. This
// is how a scheduler preempts a running placement at a stratum
// boundary without engine support: simulate with a LayerFinish as
// Config.Hook, pick the cut cycle, and resume the suffix from the
// returned layers. Cut at a failed run's loss cycle, it yields the
// checkpoint the engine reports for that placement.
//
// p is the placement's program and finish its row, indexed by p.Graph's
// layer IDs. The returned layer IDs are in p.Graph's coordinates, ready
// to fold into a recovery.Checkpoint.
func CutAtCycle(p *plan.Program, finish []float64, cut float64) []graph.LayerID {
	nl := p.Graph.Len()
	done := make([]int, nl)
	total := make([]int, nl)
	hasStore := make([]bool, nl)
	for _, stream := range p.Cores {
		for i := range stream {
			in := &stream[i]
			total[in.Layer]++
			// Only plan.Store reaches global memory; halo stores land in
			// a peer's SPM and are lost to a preempted placement exactly
			// like they are to a dead core.
			if in.Op == plan.Store {
				hasStore[in.Layer] = true
			}
		}
	}
	for l := range min(nl, len(finish)) {
		if finish[l] <= cut+eps {
			done[l] = total[l]
		}
	}
	return checkpoint(p, done, total, hasStore)
}
