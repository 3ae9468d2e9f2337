// Package tiling decomposes per-core sub-layers into tiles executed as
// a load/compute/store software pipeline with double buffering
// (Section 2.2). A sub-layer is tiled when its working set exceeds the
// core's SPM or when tiling lets DMA overlap computation; with three
// or more tiles, double buffering also shrinks the SPM footprint.
//
// Tiles form a 2-D grid: a primary axis (the partition axis for
// spatially partitioned sub-layers, so halo transfers hide behind
// interior tiles; the channel axis for channel-partitioned ones) and a
// secondary channel/spatial axis engaged only under SPM pressure —
// e.g. a convolution whose kernel alone exceeds SPM streams
// output-channel slices.
//
// Tile execution order implements the halo-first policy (Section
// 3.1.3): tiles that produce halo data for the next layer run first,
// so the halo-exchange overlaps with the remaining tiles' computation.
package tiling

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// Tile is one pipeline unit of a sub-layer.
type Tile struct {
	// Index is the tile's creation-order position in the grid.
	Index int
	// CGroup identifies the tile's slice along the secondary axis;
	// tiles in one group share the same kernel slice.
	CGroup int
	// Out is the output region the tile produces (whole-layer output
	// coordinates).
	Out tensor.Region
	// In are the input regions required, one per layer input.
	In []tensor.Region
	// MACs is the tile's compute cost.
	MACs int64
	// KernelBytes is the kernel slice the tile's CGroup needs; the
	// emitter loads it once per group.
	KernelBytes int64
	// ProducesHalo marks tiles whose output contains rows/columns
	// adjacent to a partition boundary — the data neighbouring cores
	// will need. The halo-first policy schedules these before interior
	// tiles.
	ProducesHalo bool
}

// Plan is the tiling decision for one sub-layer on one core.
type Plan struct {
	// Axis is the primary tiling direction.
	Axis tensor.Axis
	// SecondaryAxis is the grid's other direction (meaningful when
	// SecondaryCuts > 1).
	SecondaryAxis tensor.Axis
	// SecondaryCuts is the number of slices along the secondary axis.
	SecondaryCuts int
	// Tiles in execution order.
	Tiles []Tile
	// HaloFirst records whether the halo-first policy reordered the
	// tiles.
	HaloFirst bool
	// ReloadInputs means input regions are re-loaded in every kernel
	// group instead of staying resident across groups. The tiler only
	// sets it when input-stationary reuse cannot fit the budget — the
	// resident set shrinks to the current group's working set at the
	// cost of re-fetching inputs once per group. The emitter must scope
	// its input-reuse cache per group to match.
	ReloadInputs bool
}

// Tiler sizes and orders tiles for an architecture.
type Tiler struct {
	Arch  *arch.Arch
	Model *cost.Model
	// MinPipelineTiles is the preferred minimum tile count when the
	// extent allows it (3+ tiles both pipeline and reduce SPM need);
	// defaults to 3.
	MinPipelineTiles int
	// MaxTiles caps the primary-axis tile count when SPM pressure does
	// not force more; defaults to 16.
	MaxTiles int
}

// New returns a Tiler with default pipelining parameters.
func New(a *arch.Arch) *Tiler {
	return &Tiler{Arch: a, Model: cost.New(a), MinPipelineTiles: 3, MaxTiles: 16}
}

// Options describes the context of the sub-layer being tiled.
type Options struct {
	// Direction is the layer's partitioning direction; spatially
	// partitioned sub-layers tile along the same axis so halo
	// transfers hide behind interior tiles.
	Direction partition.Direction
	// HaloLo/HaloHi report whether a neighbouring core's partition
	// abuts this sub-layer below/above along the partition axis (so
	// the respective edge tile produces halo).
	HaloLo, HaloHi bool
	// HaloWidth is the halo extent in elements along the axis (how
	// many edge rows neighbours need).
	HaloWidth int
	// HaloFirst enables the halo-first execution order.
	HaloFirst bool
	// ForwardedInput marks layer inputs resident in SPM via
	// feature-map forwarding; the emitter never loads them, so they
	// contribute nothing to the plan's own need — their bytes arrive
	// via ExtraResidentBytes (index parallel to layer inputs).
	ForwardedInput []bool
	// HoldOutput marks a sub-layer whose outputs stay resident for a
	// forwarded or in-stratum consumer instead of streaming out through
	// double-buffered stores: every tile's output is concurrently live
	// by the last tile.
	HoldOutput bool
	// ExtraResidentBytes is SPM claimed for the sub-layer's whole
	// execution by buffers the tiler does not plan: the forwarding
	// producer's held output, and halo-receive staging.
	ExtraResidentBytes int64
	// Budget overrides the core's SPM capacity when positive — the
	// compile driver shrinks it to re-tile after an admission failure.
	// A shrunken budget is a soft target: a sub-layer whose minimum
	// liveness-exact need exceeds it still plans, at its
	// minimum-footprint grid, as long as that minimum fits the core's
	// physical capacity. CannotFitError is reserved for sub-layers that
	// cannot fit the hardware at any tile count.
	Budget int64
}

// CannotFitError is returned when no tile grid fits the SPM budget: the
// sub-layer's minimum liveness-exact need exceeds it even at maximal
// tiling. The compile driver keys its fallback chain on this type.
type CannotFitError struct {
	Layer   string
	Core    int
	Budget  int64
	MinNeed int64 // smallest need over every grid searched
}

func (e *CannotFitError) Error() string {
	return fmt.Sprintf("tiling: layer %s does not fit SPM budget of core %d (min need %d B > budget %d B) at any tile count",
		e.Layer, e.Core, e.MinNeed, e.Budget)
}

// PlanSubLayer tiles sub-layer sub of layer l for the given core.
// It returns an error when even maximal tiling cannot fit the core's
// SPM.
func (t *Tiler) PlanSubLayer(l *graph.Layer, inShapes []tensor.Shape, sub partition.SubLayer, core int, opt Options) (Plan, error) {
	if sub.Empty() {
		return Plan{Axis: tensor.AxisH}, nil
	}
	primary, secondary := t.chooseAxes(l, sub, opt)
	hard := t.Arch.Cores[core].SPMBytes
	budget := hard
	if opt.Budget > 0 {
		budget = opt.Budget
	}

	extA := sub.Out.Ext.Dim(primary)
	alignA := t.alignFor(core, primary)
	maxA := maxCuts(extA, alignA)
	extB := sub.Out.Ext.Dim(secondary)
	alignB := t.alignFor(core, secondary)
	maxB := maxCuts(extB, alignB)

	loA := 1
	if extA >= t.minTiles()*alignA {
		loA = t.minTiles()
	}

	wantReorder := opt.HaloFirst && opt.Direction.Spatial() && primary == opt.Direction.Axis()
	// candidate marks halos and applies the execution order a grid will
	// actually run under before measuring its liveness: the halo-first
	// permutation changes which buffers are concurrently live, so the
	// need must be computed on the executed order, not the grid order.
	candidate := func(ka, kb int, reorder bool) []Tile {
		tiles := t.cutGrid(l, inShapes, sub, primary, ka, alignA, secondary, kb, alignB)
		t.markHalo(tiles, sub, primary, opt)
		if reorder {
			tiles = haloFirstOrder(tiles)
		}
		return tiles
	}

	// Passes in preference order: input-stationary reuse first (each
	// distinct region loaded once — minimal traffic), then per-group
	// reload (minimal residency) only if no reusing grid fits. The
	// halo-first permutation splinters reuse windows, so under pressure
	// a reusing grid in plain order beats a reloading grid in halo-first
	// order: the ordering is a latency overlap, the reload a real DMA
	// cost.
	type mode struct{ reload, reorder bool }
	passes := []mode{{false, false}, {true, false}}
	if wantReorder {
		passes = []mode{{false, true}, {false, false}, {true, true}, {true, false}}
	}
	minNeed := int64(-1)
	var chosen, best []Tile
	var chosenB, bestB int
	var chosenMode, bestMode mode
	for _, pm := range passes {
		pm := pm
		search := func(ka, kb int) bool {
			tiles := candidate(ka, kb, pm.reorder)
			need := t.spmNeed(tiles, l.DType, opt, pm.reload)
			if minNeed < 0 || need < minNeed {
				minNeed = need
				best, bestB, bestMode = tiles, kb, pm
			}
			if need <= budget {
				chosen, chosenB, chosenMode = tiles, kb, pm
				return true
			}
			return false
		}
	pass:
		for kb := 1; kb <= maxB; kb++ {
			for ka := loA; ka <= maxA; ka++ {
				if search(ka, kb) {
					break pass
				}
			}
			if kb == 1 && loA > 1 {
				// Also consider fewer-than-pipelining tile counts before
				// engaging the secondary axis.
				for ka := 1; ka < loA; ka++ {
					if search(ka, kb) {
						break pass
					}
				}
			}
		}
		if chosen != nil {
			break
		}
	}
	if chosen == nil && budget < hard && minNeed >= 0 && minNeed <= hard {
		// Soft-budget fallback: the shrunken budget is unreachable for
		// this sub-layer, but its minimum-footprint grid fits the
		// hardware — plan that and let the simulator's admission check
		// arbitrate.
		chosen, chosenB, chosenMode = best, bestB, bestMode
	}
	if chosen == nil {
		return Plan{}, &CannotFitError{Layer: l.Name, Core: core, Budget: budget, MinNeed: minNeed}
	}

	plan := Plan{Axis: primary, SecondaryAxis: secondary, SecondaryCuts: chosenB,
		Tiles: chosen, HaloFirst: chosenMode.reorder, ReloadInputs: chosenMode.reload}
	return plan, nil
}

func (t *Tiler) minTiles() int {
	if t.MinPipelineTiles > 0 {
		return t.MinPipelineTiles
	}
	return 3
}

// maxCuts bounds the cut count along an axis by its aligned capacity.
func maxCuts(extent, align int) int {
	n := extent / align
	if n < 1 {
		n = 1
	}
	return n
}

// chooseAxes picks the tiling grid: the partition axis first (halo
// hiding for spatial, kernel slicing for channel), with the other
// family as the pressure-relief secondary.
func (t *Tiler) chooseAxes(l *graph.Layer, sub partition.SubLayer, opt Options) (primary, secondary tensor.Axis) {
	switch {
	case opt.Direction.Spatial():
		return opt.Direction.Axis(), tensor.AxisC
	case opt.Direction == partition.DirChannel:
		return tensor.AxisC, tensor.AxisH
	}
	// Unpartitioned: longest legal spatial axis primary, channels
	// secondary.
	primary = tensor.AxisH
	if sub.Out.Ext.W > sub.Out.Ext.H && l.Op.SupportsPartition(tensor.AxisW) {
		primary = tensor.AxisW
	}
	return primary, tensor.AxisC
}

func (t *Tiler) alignFor(core int, a tensor.Axis) int {
	if a == tensor.AxisC {
		return t.Arch.Cores[core].AlignC
	}
	return t.Arch.Cores[core].AlignSpatial
}

// cutGrid slices the sub-layer output into a ka x kb grid (ka cuts
// along the primary axis, kb along the secondary) and derives per-tile
// inputs and costs. Iteration is always channel-outer: all tiles
// sharing one kernel slice (a CGroup) are contiguous, so each kernel
// slice is loaded once and streamed over the other axis.
func (t *Tiler) cutGrid(l *graph.Layer, inShapes []tensor.Shape, sub partition.SubLayer,
	axisA tensor.Axis, ka, alignA int, axisB tensor.Axis, kb, alignB int) []Tile {

	extA := sub.Out.Ext.Dim(axisA)
	extB := sub.Out.Ext.Dim(axisB)
	if ka > extA {
		ka = extA
	}
	if kb > extB {
		kb = extB
	}
	chunksA := tensor.SplitEven(extA, ka, alignA)
	chunksB := tensor.SplitEven(extB, kb, alignB)

	// One of the two axes is always the channel axis: iterate it on
	// the outside so kernel-slice groups are contiguous.
	axisOut, chunksOut := axisA, chunksA
	axisIn, chunksIn := axisB, chunksB
	if axisB == tensor.AxisC {
		axisOut, chunksOut = axisB, chunksB
		axisIn, chunksIn = axisA, chunksA
	}

	var tiles []Tile
	offOut := sub.Out.Off.Dim(axisOut)
	group := 0
	idx := 0
	for _, szOut := range chunksOut {
		if szOut == 0 {
			continue
		}
		offIn := sub.Out.Off.Dim(axisIn)
		emitted := false
		for _, szIn := range chunksIn {
			if szIn == 0 {
				continue
			}
			out := sub.Out
			out.Off = out.Off.WithDim(axisOut, offOut).WithDim(axisIn, offIn)
			out.Ext = out.Ext.WithDim(axisOut, szOut).WithDim(axisIn, szIn)
			offIn += szIn
			tile := Tile{Index: idx, CGroup: group, Out: out}
			tile.In = make([]tensor.Region, len(inShapes))
			for j := range inShapes {
				tile.In[j] = l.Op.InputRegion(out, j, inShapes)
			}
			tile.MACs = l.Op.MACs(out.Ext, inShapes)
			// Kernel slice of the group: ops charge kernels by output
			// channel extent only.
			tile.KernelBytes = l.Op.KernelBytes(out.Ext, inShapes, l.DType)
			tiles = append(tiles, tile)
			emitted = true
			idx++
		}
		offOut += szOut
		if emitted {
			group++
		}
	}
	return tiles
}

// spmNeed returns the liveness-exact SPM requirement of a tile plan:
// the peak set of concurrently resident buffers over the pipeline, not
// a sum of independent per-buffer worst cases.
//
// The sweep models the emitter's double-buffered pipeline at tile
// granularity. Position k is the interval during which tile k (in
// execution order) computes. Each buffer the emitter will allocate gets
// a live window in position terms, matching the simulator's SPM
// liveness rules (sim/spmcheck.go) for the instructions the emitter
// emits:
//
//   - an input region first read by tile f and last read by tile l is
//     loaded into the slot freed by compute f-2, so it is resident from
//     position f-1 through l (identical regions across tiles load once
//     — the emitter's input-stationary reuse);
//   - a kernel slice group spanning tiles f..l is slot-gated the same
//     way (the emitter bounds kernel prefetch with the same dependency)
//     and resident from position f-1 through l;
//   - tile k's output is written at position k; a streamed output is
//     stored while tile k+1 computes and its slot is reused by tile
//     k+2, so it spans [k, k+1] — but a held output (HoldOutput) has no
//     store and stays resident for the forwarded consumer, so every
//     output written so far is live through the last position;
//   - forwarded inputs are never loaded (nothing to plan); the
//     producer's held output and any halo-receive staging occupy SPM
//     for the whole sub-layer and arrive as ExtraResidentBytes.
//
// With reload set, input reuse is scoped per kernel group (the
// emitter's ReloadInputs contract): a region re-read in a later group
// is a fresh buffer, so its windows split instead of spanning the
// groups in between.
//
// The returned need is ExtraResidentBytes plus the maximum position
// occupancy. Cross-layer pipeline overlap beyond these terms (the next
// layer's bounded prefetch against this layer's tail) is not modeled
// here; the simulator's admission check is the authority and the
// compile driver re-tiles with a shrunken Budget if it fires.
func (t *Tiler) spmNeed(tiles []Tile, dt tensor.DType, opt Options, reload bool) int64 {
	n := len(tiles)
	if n == 0 {
		return 0
	}
	occ := make([]int64, n+1) // difference array over positions 0..n-1

	add := func(from, to int, bytes int64) {
		if bytes <= 0 {
			return
		}
		if from < 0 {
			from = 0
		}
		if to > n-1 {
			to = n - 1
		}
		occ[from] += bytes
		occ[to+1] -= bytes
	}

	// Input regions, deduplicated the way the emitter reuses them. The
	// group field scopes reuse per kernel group under reload; it stays
	// constant otherwise so identical regions share one window.
	type inKey struct {
		j, group int
		r        tensor.Region
	}
	type window struct{ first, last int }
	regions := map[inKey]window{}
	nIn := len(tiles[0].In)
	for j := 0; j < nIn; j++ {
		if j < len(opt.ForwardedInput) && opt.ForwardedInput[j] {
			continue // resident via forwarding; in ExtraResidentBytes
		}
		for k, tile := range tiles {
			key := inKey{j: j, r: tile.In[j]}
			if reload {
				key.group = tile.CGroup
			}
			w, ok := regions[key]
			if !ok {
				w = window{first: k, last: k}
			} else {
				w.last = k
			}
			regions[key] = w
		}
	}
	for key, w := range regions {
		add(w.first-1, w.last, key.r.Bytes(dt))
	}

	// Kernel slices, one buffer per contiguous group occurrence. After
	// a halo-first reorder a group can run in several disjoint spans;
	// the kernel is loaded once at its first tile and stays live until
	// its last, so the window covers the whole spread.
	kernels := map[int]window{}
	kernelBytes := map[int]int64{}
	for k, tile := range tiles {
		if tile.KernelBytes <= 0 {
			continue
		}
		w, ok := kernels[tile.CGroup]
		if !ok {
			w = window{first: k, last: k}
		} else {
			w.last = k
		}
		kernels[tile.CGroup] = w
		if tile.KernelBytes > kernelBytes[tile.CGroup] {
			kernelBytes[tile.CGroup] = tile.KernelBytes
		}
	}
	for g, w := range kernels {
		add(w.first-1, w.last, kernelBytes[g])
	}

	// Outputs.
	for k, tile := range tiles {
		if opt.HoldOutput {
			add(k, n-1, tile.Out.Bytes(dt))
		} else {
			add(k, k+1, tile.Out.Bytes(dt))
		}
	}

	var cur, peak int64
	for k := 0; k < n; k++ {
		cur += occ[k]
		if cur > peak {
			peak = cur
		}
	}
	return opt.ExtraResidentBytes + peak
}

// markHalo flags tiles whose output touches a partition boundary that
// a neighbour needs.
func (t *Tiler) markHalo(tiles []Tile, sub partition.SubLayer, axis tensor.Axis, opt Options) {
	if !opt.Direction.Spatial() || axis != opt.Direction.Axis() || opt.HaloWidth <= 0 {
		return
	}
	lo := sub.Out.Off.Dim(axis)
	hi := sub.Out.End(axis)
	for i := range tiles {
		tLo := tiles[i].Out.Off.Dim(axis)
		tHi := tiles[i].Out.End(axis)
		if opt.HaloLo && tLo < lo+opt.HaloWidth {
			tiles[i].ProducesHalo = true
		}
		if opt.HaloHi && tHi > hi-opt.HaloWidth {
			tiles[i].ProducesHalo = true
		}
	}
}

// haloFirstOrder moves halo-producing tiles to the front, preserving
// relative order within each class.
func haloFirstOrder(tiles []Tile) []Tile {
	out := make([]Tile, 0, len(tiles))
	for _, t := range tiles {
		if t.ProducesHalo {
			out = append(out, t)
		}
	}
	for _, t := range tiles {
		if !t.ProducesHalo {
			out = append(out, t)
		}
	}
	return out
}

// Validate checks that a plan's tiles exactly cover the sub-layer
// output without overlap.
func Validate(plan *Plan, sub partition.SubLayer) error {
	if sub.Empty() {
		if len(plan.Tiles) != 0 {
			return fmt.Errorf("tiling: empty sub-layer has %d tiles", len(plan.Tiles))
		}
		return nil
	}
	var total int64
	for i, a := range plan.Tiles {
		if !sub.Out.Contains(a.Out) {
			return fmt.Errorf("tiling: tile %d %v outside sub-layer %v", i, a.Out, sub.Out)
		}
		total += a.Out.Elems()
		for j := i + 1; j < len(plan.Tiles); j++ {
			if a.Out.Overlaps(plan.Tiles[j].Out) {
				return fmt.Errorf("tiling: tiles %d and %d overlap", i, j)
			}
		}
	}
	if total != sub.Out.Elems() {
		return fmt.Errorf("tiling: tiles cover %d elements, sub-layer has %d", total, sub.Out.Elems())
	}
	return nil
}
