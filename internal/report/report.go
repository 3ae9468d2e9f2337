// Package report renders compiler decisions for humans: a per-layer
// table of partitioning/tiling choices and a Graphviz DOT export of
// the network colored by partition direction.
package report

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Layers writes a per-layer table: operator, output shape, partition
// direction and deciding heuristic, per-core output rows/channels, and
// compute/traffic cost.
func Layers(w io.Writer, g *graph.Graph, res *core.Result) error {
	if _, err := fmt.Fprintf(w, "%-28s %-22s %-12s %-9s %10s %10s  %s\n",
		"layer", "op", "out", "direction", "MMACs", "kernelKB", "reason"); err != nil {
		return err
	}
	for _, id := range res.Order {
		l := g.Layer(id)
		if l.IsInput() {
			continue
		}
		p := res.Plans[id]
		var macs, kernel int64
		for _, s := range p.Subs {
			macs += s.MACs
			kernel += s.KernelBytes
		}
		opName := l.Op.String()
		if len(opName) > 22 {
			opName = opName[:22]
		}
		if _, err := fmt.Fprintf(w, "%-28s %-22s %-12s %-9s %10.2f %10.1f  %s\n",
			l.Name, opName, l.OutShape.String(), p.Direction,
			float64(macs)/1e6, float64(kernel)/1024, p.Reason); err != nil {
			return err
		}
	}
	return nil
}

// dirColor maps partition directions to Graphviz fill colors.
func dirColor(d partition.Direction) string {
	switch d {
	case partition.DirSpatialH, partition.DirSpatialW:
		return "lightblue"
	case partition.DirChannel:
		return "lightsalmon"
	default:
		return "lightgray"
	}
}

// DOT writes the network as a Graphviz digraph. Nodes are colored by
// partition direction (blue spatial, salmon channel, gray none) and
// layers merged into one stratum share a cluster.
func DOT(w io.Writer, g *graph.Graph, res *core.Result) error {
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, style=filled, fontsize=10];\n", g.Name); err != nil {
		return err
	}
	inStratum := map[graph.LayerID]int{}
	for si, s := range res.Strata {
		if s.Len() > 1 {
			for _, id := range s.Layers {
				inStratum[id] = si
			}
		}
	}
	// Emit stratum clusters first.
	emitted := map[graph.LayerID]bool{}
	for si, s := range res.Strata {
		if s.Len() <= 1 {
			continue
		}
		fmt.Fprintf(w, "  subgraph cluster_stratum%d {\n    label=\"stratum %d\";\n    color=forestgreen;\n", si, si)
		for _, id := range s.Layers {
			l := g.Layer(id)
			fmt.Fprintf(w, "    n%d [label=\"%s\\n%s\", fillcolor=%s];\n",
				id, l.Name, l.OutShape, dirColor(res.Plans[id].Direction))
			emitted[id] = true
		}
		fmt.Fprintln(w, "  }")
	}
	for _, l := range g.Layers() {
		if emitted[l.ID] {
			continue
		}
		color := "white"
		if !l.IsInput() {
			color = dirColor(res.Plans[l.ID].Direction)
		}
		fmt.Fprintf(w, "  n%d [label=\"%s\\n%s\", fillcolor=%s];\n", l.ID, l.Name, l.OutShape, color)
	}
	for _, l := range g.Layers() {
		for _, in := range l.Inputs {
			fmt.Fprintf(w, "  n%d -> n%d;\n", in, l.ID)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
