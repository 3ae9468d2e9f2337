package recovery

import "repro/internal/graph"

// Checkpoint is a set of completed layers of one graph, in that graph's
// layer IDs: their outputs sit in global memory, so a resumed program
// reads them instead of recomputing them. Every loss or preemption of
// one inference folds into the same Checkpoint. The zero value, and a
// nil *Checkpoint, is empty.
type Checkpoint struct {
	done []bool // by layer ID; nil until a layer completes
}

// Fold adds ids, which a run of a program built from g reported
// completed (sim.CoreFailure.Completed, sim.CutAtCycle). origin maps
// that program's graph back to g (Remapped.Origin); nil means the
// program's graph is g. Folding a layer again changes nothing.
func (c *Checkpoint) Fold(g *graph.Graph, ids []graph.LayerID, origin map[graph.LayerID]graph.LayerID) {
	for _, id := range ids {
		if origin != nil {
			id = origin[id]
		}
		if c.done == nil {
			c.done = make([]bool, g.Len())
		}
		c.done[id] = true
	}
}

// Empty reports whether no layer has completed.
func (c *Checkpoint) Empty() bool { return c == nil || c.done == nil }

// Layers lists the completed layers in layer-ID order, a topological
// order; nil when the checkpoint is empty.
func (c *Checkpoint) Layers() []graph.LayerID {
	if c.Empty() {
		return nil
	}
	var out []graph.LayerID
	for id, done := range c.done {
		if done {
			out = append(out, graph.LayerID(id))
		}
	}
	return out
}

// suffixGraph is SuffixGraph of the checkpoint's layers.
func (c *Checkpoint) suffixGraph(g *graph.Graph) (*graph.Graph, map[graph.LayerID]graph.LayerID, error) {
	keep := make([]bool, g.Len())
	for id := range keep {
		keep[id] = c.Empty() || !c.done[id]
	}
	return induced(g, g.Name+"-suffix", keep)
}
