package sim

import (
	"repro/internal/graph"
	"repro/internal/plan"
)

// LayerFinish is the Hook a preempting scheduler installs in place of a
// Recorder: per placement, the latest End among each layer's retired
// instructions. That is all CutAtCycle needs. A clean run retires every
// instruction, so a layer has finished all of its instructions by a cut
// exactly when its latest End is at or before the cut.
type LayerFinish struct {
	// Finish[p][l] is placement p's latest End over the instructions of
	// layer l (in p's graph), 0 when none retired.
	Finish [][]float64
}

// NewLayerFinish returns a LayerFinish sized for placements: one row per
// placement, one entry per layer of its program's graph, all zero.
func NewLayerFinish(placements []Placement) *LayerFinish {
	n := 0
	for _, pl := range placements {
		n += pl.Program.Graph.Len()
	}
	flat := make([]float64, n)
	f := &LayerFinish{Finish: make([][]float64, len(placements))}
	for i, pl := range placements {
		nl := pl.Program.Graph.Len()
		f.Finish[i], flat = flat[:nl:nl], flat[nl:]
	}
	return f
}

// OnInstr implements Hook.
func (f *LayerFinish) OnInstr(e Event) {
	row := f.Finish[e.Placement]
	if int(e.Layer) < len(row) && e.End > row[e.Layer] {
		row[e.Layer] = e.End
	}
}

// OnBus implements Hook; finish cycles need no bus series.
func (*LayerFinish) OnBus(BusSample) {}

// CutAtCycle computes a recovery checkpoint post-hoc from a clean run's
// per-layer finish cycles (one LayerFinish row): the longest safe
// prefix, by the same cut rule as CoreFailure.Completed — every prefix
// layer finished all its instructions by the cut, and every prefix
// output consumed outside the prefix was stored to global memory. A
// layer counts as finished when its latest End is <= cut. This is how a
// scheduler preempts a running placement at a stratum boundary without
// engine support: simulate with a LayerFinish as Config.Hook, pick the
// cut cycle, and resume the suffix from the returned layers.
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
