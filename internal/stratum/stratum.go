// Package stratum implements the paper's Algorithm 2: stratum
// construction. A stratum is a chain of consecutively scheduled,
// directly connected, spatially partitioned layers that every core
// executes locally with no inter-core synchronization and no
// intermediate global-memory traffic. The price is redundant halo
// computation that grows toward the top (earliest) layer of the
// stratum; heuristic h8 stops accumulation when the redundancy
// outweighs the synchronization saved.
package stratum

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// Stratum is a chain of layers executed without synchronization.
// Layers appear in execution order (top of the chain first).
type Stratum struct {
	// Layers in execution order; a singleton stratum is a layer that
	// could not merge with its neighbours and synchronizes normally.
	Layers []graph.LayerID
	// Expanded maps each layer to its per-core output regions
	// *including* the redundant halo needed by the next layer in the
	// stratum. For the last layer the expanded region equals the
	// partition plan's region.
	Expanded map[graph.LayerID][]tensor.Region
	// RedundantMACs is the total extra compute across all cores and
	// layers versus the plain partition plan.
	RedundantMACs int64
}

// Len returns the number of layers in the stratum.
func (s *Stratum) Len() int { return len(s.Layers) }

// Boundary tunes stratum accumulation at one layer, generalizing the
// fixed h8 cutoff into a per-layer knob the design-space explorer can
// search over. The structural legality rules h6 (single-user direct
// edge) and h7 (matching spatial partitioning) always hold — they are
// what makes a stratum synchronization-free — but whether a legal
// merge is *worth* it becomes tunable.
type Boundary int8

// Per-layer stratum boundary policies.
const (
	// BoundaryAuto applies the paper's cost cutoff h8: merge only when
	// the redundant compute undercuts the synchronization saved.
	BoundaryAuto Boundary = iota
	// BoundaryBreak forces a stratum boundary: the layer never merges
	// into its successor's stratum, regardless of h8.
	BoundaryBreak
	// BoundaryFuse merges the layer into its successor's stratum
	// whenever h6/h7 legality holds, skipping the h8 cost cutoff (the
	// SPM capacity chain still trims strata that do not fit).
	BoundaryFuse
)

// String returns a short policy label.
func (b Boundary) String() string {
	switch b {
	case BoundaryAuto:
		return "auto"
	case BoundaryBreak:
		return "break"
	case BoundaryFuse:
		return "fuse"
	default:
		return fmt.Sprintf("Boundary(%d)", int8(b))
	}
}

// Builder constructs strata over a scheduled, partitioned graph.
type Builder struct {
	Graph *graph.Graph
	Arch  *arch.Arch
	Model *cost.Model
	// Plans is indexed by LayerID (from partition.Partitioner.PlanAll).
	Plans []partition.Plan
	// Order is the execution schedule (Algorithm 1's output),
	// including graph inputs, which are skipped.
	Order []graph.LayerID
	// MaxLayers caps how many layers one stratum may accumulate
	// (0 = unlimited). The compile driver's fallback chain lowers it
	// when deep strata overrun SPM: shallower strata hold fewer
	// forwarded feature maps resident at once.
	MaxLayers int
	// Boundary optionally overrides the h8 cutoff per layer, indexed
	// by LayerID (see Boundary). Nil, short slices, and BoundaryAuto
	// entries keep the paper's behavior. Boundary applies to the edge
	// from the indexed layer to its (single) successor.
	Boundary []Boundary
}

// boundary returns the policy for the edge from layer id to its
// successor.
func (b *Builder) boundary(id graph.LayerID) Boundary {
	if int(id) < len(b.Boundary) {
		return b.Boundary[id]
	}
	return BoundaryAuto
}

// New returns a Builder.
func New(g *graph.Graph, a *arch.Arch, plans []partition.Plan, order []graph.LayerID) *Builder {
	return &Builder{Graph: g, Arch: a, Model: cost.New(a), Plans: plans, Order: order}
}

// Build walks the schedule in reverse (Algorithm 2), accumulating
// layers into the current stratum while heuristics h6–h8 hold, and
// returns the strata in execution order, covering every non-input
// layer exactly once.
func (b *Builder) Build() []Stratum {
	// Executable layers in schedule order.
	var exec []graph.LayerID
	for _, id := range b.Order {
		if !b.Graph.Layer(id).IsInput() {
			exec = append(exec, id)
		}
	}
	if len(exec) == 0 {
		return nil
	}

	var strata []Stratum
	// cur accumulates layers in execution order, built backward: the
	// base (bottom) layer is the last element.
	last := exec[len(exec)-1]
	cur := Stratum{
		Layers:   []graph.LayerID{last},
		Expanded: map[graph.LayerID][]tensor.Region{last: b.plannedRegions(last)},
	}
	prev := last

	flush := func() {
		strata = append([]Stratum{cur}, strata...)
	}

	for i := len(exec) - 2; i >= 0; i-- {
		curr := exec[i]
		if b.MaxLayers <= 0 || len(cur.Layers) < b.MaxLayers {
			if ok, expanded, redundant := b.tryAccumulate(curr, prev, &cur); ok {
				cur.Layers = append([]graph.LayerID{curr}, cur.Layers...)
				cur.Expanded[curr] = expanded
				cur.RedundantMACs += redundant
				prev = curr
				continue
			}
		}
		// Stop accumulating: emit the current stratum and restart with
		// curr as the new base.
		flush()
		cur = Stratum{
			Layers:   []graph.LayerID{curr},
			Expanded: map[graph.LayerID][]tensor.Region{curr: b.plannedRegions(curr)},
		}
		prev = curr
	}
	flush()
	return strata
}

// plannedRegions returns the per-core output regions of a layer's
// partition plan (no halo expansion).
func (b *Builder) plannedRegions(id graph.LayerID) []tensor.Region {
	plan := &b.Plans[id]
	regions := make([]tensor.Region, len(plan.Subs))
	for i, s := range plan.Subs {
		regions[i] = s.Out
	}
	return regions
}

// tryAccumulate evaluates h6–h8 for appending curr below the top of
// the current stratum (whose top layer is prevTop, the layer scheduled
// immediately after curr). On success it returns curr's expanded
// per-core output regions and the redundant MACs they introduce.
func (b *Builder) tryAccumulate(curr, prevTop graph.LayerID, cur *Stratum) (bool, []tensor.Region, int64) {
	g := b.Graph
	lCurr := g.Layer(curr)
	lPrev := g.Layer(prevTop)

	// Per-layer boundary override: a forced break refuses the merge
	// outright; legality (h6/h7) is still required below either way.
	if b.boundary(curr) == BoundaryBreak {
		return false, nil, 0
	}

	// h6 (immediate successor): prevTop must consume curr directly and
	// be its only user, and curr must be prevTop's only data input —
	// otherwise some tensor still needs a global-memory round trip and
	// the synchronization cannot be removed.
	if len(g.Users(curr)) != 1 || g.Users(curr)[0] != prevTop {
		return false, nil, 0
	}
	if len(lPrev.Inputs) != 1 {
		return false, nil, 0
	}

	// h7 (partitioning directions match): both layers spatial along
	// the same axis. Channel-partitioned layers need the whole input
	// on every core, which defeats local accumulation.
	pCurr := &b.Plans[curr]
	pPrev := &b.Plans[prevTop]
	if !pCurr.Direction.Spatial() || pCurr.Direction != pPrev.Direction {
		return false, nil, 0
	}

	// Expand curr's output to cover the halo the (already expanded)
	// prevTop regions require.
	prevExp := cur.Expanded[prevTop]
	inShapes := g.InShapes(lPrev)
	expanded := make([]tensor.Region, len(pCurr.Subs))
	var redundant int64
	var maxExtraPerCore int64
	for i, s := range pCurr.Subs {
		own := s.Out
		if prevExp[i].Empty() {
			expanded[i] = own
			continue
		}
		need := lPrev.Op.InputRegion(prevExp[i], 0, inShapes)
		exp := boundingBox(own, need)
		// A core that had no work may now need some (pure redundancy).
		expanded[i] = exp
		extra := lCurr.Op.MACs(exp.Ext, g.InShapes(lCurr)) - s.MACs
		if extra < 0 {
			extra = 0
		}
		redundant += extra
		if extra > maxExtraPerCore {
			maxExtraPerCore = extra
		}
	}

	// h8 (redundant computation is cheap): the extra compute on the
	// slowest-hit core must undercut the barrier this merge removes.
	// A BoundaryFuse override skips the cutoff: the merge is legal, so
	// let the capacity chain (TrimToFit, the SPM fallback rungs) be
	// the only brake.
	if b.boundary(curr) != BoundaryFuse {
		worst := int64(0)
		for i := range expanded {
			extra := lCurr.Op.MACs(expanded[i].Ext, g.InShapes(lCurr)) - pCurr.Subs[i].MACs
			if extra < 0 {
				extra = 0
			}
			c := b.Model.ComputeCycles(i, extra, lCurr.DType)
			if c > worst {
				worst = c
			}
		}
		if worst >= b.Model.SyncCycles(b.Arch.NumCores()) {
			return false, nil, 0
		}
	}
	return true, expanded, redundant
}

// boundingBox returns the smallest region containing both a and b.
// Empty operands are ignored.
func boundingBox(a, b tensor.Region) tensor.Region {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	var out tensor.Region
	for _, ax := range []tensor.Axis{tensor.AxisH, tensor.AxisW, tensor.AxisC} {
		lo := a.Off.Dim(ax)
		if v := b.Off.Dim(ax); v < lo {
			lo = v
		}
		hi := a.End(ax)
		if v := b.End(ax); v > hi {
			hi = v
		}
		out.Off = out.Off.WithDim(ax, lo)
		out.Ext = out.Ext.WithDim(ax, hi-lo)
	}
	return out
}

// SPMNeed returns the peak SPM bytes core needs to execute the stratum
// with feature-map forwarding: for each layer, the forwarded input
// region plus the kernel slice plus the produced (expanded) output
// region must be resident simultaneously.
func (b *Builder) SPMNeed(s *Stratum, core int) int64 {
	g := b.Graph
	var peak int64
	for _, id := range s.Layers {
		l := g.Layer(id)
		exp := s.Expanded[id][core]
		if exp.Empty() {
			continue
		}
		inShapes := g.InShapes(l)
		var need int64
		for i := range inShapes {
			need += l.Op.InputRegion(exp, i, inShapes).Bytes(l.DType)
		}
		need += l.Op.KernelBytes(exp.Ext, inShapes, l.DType)
		need += exp.Bytes(l.DType)
		if need > peak {
			peak = need
		}
	}
	return peak
}

// TrimToFit removes layers from the top of the stratum until every
// core's SPM requirement fits (the paper's final compilation step when
// tiling cannot reduce memory enough). Removed layers are returned as
// singleton strata, in execution order, followed by the trimmed
// remainder. The input stratum is not modified.
func (b *Builder) TrimToFit(s *Stratum) []Stratum {
	work := Stratum{
		Layers:   append([]graph.LayerID(nil), s.Layers...),
		Expanded: make(map[graph.LayerID][]tensor.Region, len(s.Expanded)),
	}
	for k, v := range s.Expanded {
		work.Expanded[k] = v
	}
	work.RedundantMACs = s.RedundantMACs

	var out []Stratum
	for work.Len() > 1 {
		fits := true
		for core := range b.Arch.Cores {
			if b.SPMNeed(&work, core) > b.Arch.Cores[core].SPMBytes {
				fits = false
				break
			}
		}
		if fits {
			break
		}
		top := work.Layers[0]
		work.Layers = work.Layers[1:]
		delete(work.Expanded, top)
		out = append(out, Stratum{
			Layers:   []graph.LayerID{top},
			Expanded: map[graph.LayerID][]tensor.Region{top: b.plannedRegions(top)},
		})
	}
	// Recompute redundancy for the trimmed remainder.
	work.RedundantMACs = b.redundancy(&work)
	return append(out, work)
}

// redundancy recomputes the total redundant MACs of a stratum against
// the partition plans.
func (b *Builder) redundancy(s *Stratum) int64 {
	var total int64
	for _, id := range s.Layers {
		l := b.Graph.Layer(id)
		in := b.Graph.InShapes(l)
		for core, exp := range s.Expanded[id] {
			extra := l.Op.MACs(exp.Ext, in) - b.Plans[id].Subs[core].MACs
			if extra > 0 {
				total += extra
			}
		}
	}
	return total
}

// Validate checks stratum invariants: layers contiguous in the
// schedule, expanded regions contain the planned regions, and chains
// are connected.
func (b *Builder) Validate(strata []Stratum) error {
	seen := make(map[graph.LayerID]bool)
	for si, s := range strata {
		if s.Len() == 0 {
			return fmt.Errorf("stratum %d: empty", si)
		}
		for li, id := range s.Layers {
			if seen[id] {
				return fmt.Errorf("stratum %d: layer %d appears in multiple strata", si, id)
			}
			seen[id] = true
			exp := s.Expanded[id]
			if len(exp) != len(b.Plans[id].Subs) {
				return fmt.Errorf("stratum %d: layer %d has %d expanded regions, want %d",
					si, id, len(exp), len(b.Plans[id].Subs))
			}
			for core, r := range exp {
				own := b.Plans[id].Subs[core].Out
				if !own.Empty() && !r.Contains(own) {
					return fmt.Errorf("stratum %d: layer %d core %d expanded %v loses planned %v",
						si, id, core, r, own)
				}
			}
			if li > 0 {
				prev := s.Layers[li-1]
				users := b.Graph.Users(prev)
				if len(users) != 1 || users[0] != id {
					return fmt.Errorf("stratum %d: %d -> %d not a direct single-user edge", si, prev, id)
				}
			}
		}
	}
	for _, l := range b.Graph.Layers() {
		if !l.IsInput() && !seen[l.ID] {
			return fmt.Errorf("layer %d not covered by any stratum", l.ID)
		}
	}
	return nil
}
