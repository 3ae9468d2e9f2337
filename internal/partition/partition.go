// Package partition implements layer partitioning for multicore
// parallel execution: choosing a partitioning direction per layer with
// the paper's heuristics h1–h5, balancing sub-layer sizes across
// heterogeneous cores under alignment constraints, and computing the
// input regions (including halo) each core requires.
package partition

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Direction is the axis along which a layer's output is partitioned.
type Direction int

// Partitioning directions.
const (
	// DirNone marks layers that are not partitioned (graph inputs, or
	// operators that admit no reduction-free split; such layers run
	// whole on a single core).
	DirNone Direction = iota
	// DirSpatialH splits the output along image height.
	DirSpatialH
	// DirSpatialW splits the output along image width.
	DirSpatialW
	// DirChannel splits the output along channels.
	DirChannel
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case DirNone:
		return "none"
	case DirSpatialH:
		return "spatial-H"
	case DirSpatialW:
		return "spatial-W"
	case DirChannel:
		return "channel"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Spatial reports whether the direction splits an image axis.
func (d Direction) Spatial() bool { return d == DirSpatialH || d == DirSpatialW }

// Axis returns the tensor axis the direction splits. It panics for
// DirNone.
func (d Direction) Axis() tensor.Axis {
	switch d {
	case DirSpatialH:
		return tensor.AxisH
	case DirSpatialW:
		return tensor.AxisW
	case DirChannel:
		return tensor.AxisC
	default:
		panic("partition: DirNone has no axis")
	}
}

// SubLayer is the piece of a layer assigned to one core.
type SubLayer struct {
	// Core indexes arch.Cores.
	Core int
	// Out is the output region this core produces, in whole-layer
	// output coordinates. Empty when the core receives no work.
	Out tensor.Region
	// In are the input regions required, one per layer input, in each
	// producer's output coordinates.
	In []tensor.Region
	// MACs is the compute cost of producing Out.
	MACs int64
	// KernelBytes is the weight traffic needed for Out.
	KernelBytes int64
}

// Empty reports whether the sub-layer has no work.
func (s SubLayer) Empty() bool { return s.Out.Empty() }

// Plan is the partitioning decision for one layer.
type Plan struct {
	Layer     graph.LayerID
	Direction Direction
	// Reason records which heuristic fixed the direction, for
	// diagnostics and the compiler report.
	Reason string
	// Subs has one entry per core (possibly empty). It is nil for
	// graph inputs, whose tensor lives in global memory.
	Subs []SubLayer
}

// OwnerOf returns the index into Subs of the core whose output region
// contains element coordinates (h, w, c), or -1 if none does.
func (p *Plan) OwnerOf(h, w, c int) int {
	probe := tensor.Region{Off: tensor.NewShape(h, w, c), Ext: tensor.NewShape(1, 1, 1)}
	for i, s := range p.Subs {
		if !s.Empty() && s.Out.Contains(probe) {
			return i
		}
	}
	return -1
}

// Mode forces a partitioning policy; the Table 4 experiment compares
// the three.
type Mode int

// Partitioning policies.
const (
	// Adaptive applies heuristics h1–h5 per layer (the paper's
	// "adaptive partitioning", used by all Table 3 configurations).
	Adaptive Mode = iota
	// ForceSpatial partitions every layer spatially when legal.
	ForceSpatial
	// ForceChannel partitions every layer along channels when legal.
	ForceChannel
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "adaptive"
	case ForceSpatial:
		return "spatial"
	case ForceChannel:
		return "channel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Partitioner chooses directions and balances sub-layers for one graph
// on one architecture.
type Partitioner struct {
	Graph *graph.Graph
	Arch  *arch.Arch
	Model *cost.Model
	Mode  Mode
	// WeightScale optionally multiplies each core's balance weight —
	// the profile-guided rebalancing hook (Section 3.1.3: "profiling
	// execution assists to detect unwanted idle times and fix the
	// unbalance"). Nil means unit scales.
	WeightScale []float64
	// Force optionally overrides the partitioning method per layer,
	// indexed by LayerID (the design-space explorer's genome drives
	// it). MethodAuto entries, indexes past the slice, and overrides
	// the operator cannot support (MethodSupported says no) all defer
	// to the h1–h5 heuristics. Force only applies in Adaptive mode:
	// the whole-graph ForceSpatial/ForceChannel modes (Table 4, the
	// fallback chain's last resort) take precedence, so the
	// graceful-degradation chain keeps its guarantee of reaching a
	// channel-partitioned schedule.
	Force []MethodID
}

// New returns a partitioner with an adaptive policy.
func New(g *graph.Graph, a *arch.Arch) *Partitioner {
	return &Partitioner{Graph: g, Arch: a, Model: cost.New(a), Mode: Adaptive}
}

// PlanLayer partitions one layer across the architecture's cores.
func (p *Partitioner) PlanLayer(l *graph.Layer) Plan {
	if l.IsInput() {
		return Plan{Layer: l.ID, Direction: DirNone, Reason: "graph input resides in global memory"}
	}
	dir, reason := p.ChooseDirection(l)
	return p.planWithDirection(l, dir, reason)
}

// planAllMinLayers is the graph size below which PlanAll stays serial:
// per-layer planning is cheap, so small graphs cannot amortize the
// worker-pool handoff.
const planAllMinLayers = 16

// PlanAll partitions every layer, indexed by LayerID. Layers are
// planned independently (PlanLayer only reads the graph, the arch, and
// the cost model), so large graphs fan out across the worker pool;
// each layer writes only its own slot, making the result identical to
// the serial loop.
func (p *Partitioner) PlanAll() []Plan {
	plans, _ := p.PlanAllCtx(nil)
	return plans
}

// PlanAllCtx is PlanAll with cooperative cancellation: ctx is polled
// between layers (serial path) or per claimed index (parallel path),
// so a canceled compile stops planning promptly and returns ctx's
// error with a nil slice. A nil ctx never fails.
func (p *Partitioner) PlanAllCtx(ctx context.Context) ([]Plan, error) {
	plans := make([]Plan, p.Graph.Len())
	layers := p.Graph.Layers()
	if len(layers) < planAllMinLayers || parallel.Serial() {
		for i, l := range layers {
			if ctx != nil && i&15 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			plans[l.ID] = p.PlanLayer(l)
		}
		return plans, nil
	}
	err := parallel.ForEachCtx(ctx, len(layers), func(_ context.Context, i int) error {
		plans[layers[i].ID] = p.PlanLayer(layers[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plans, nil
}

// legalDirs returns the directions the operator admits without
// partial-sum reduction, in preference order spatial-H, spatial-W,
// channel.
func legalDirs(l *graph.Layer) []Direction {
	var dirs []Direction
	if l.Op.SupportsPartition(tensor.AxisH) && l.OutShape.H > 1 {
		dirs = append(dirs, DirSpatialH)
	}
	if l.Op.SupportsPartition(tensor.AxisW) && l.OutShape.W > 1 {
		dirs = append(dirs, DirSpatialW)
	}
	if l.Op.SupportsPartition(tensor.AxisC) && l.OutShape.C > 1 {
		dirs = append(dirs, DirChannel)
	}
	return dirs
}

func hasDir(dirs []Direction, d Direction) bool {
	for _, x := range dirs {
		if x == d {
			return true
		}
	}
	return false
}

// ChooseDirection applies a per-layer override (Force), the forced
// whole-graph mode, or the paper's heuristics h1–h5, and reports the
// deciding rule. Reasons name their origin consistently: "hN: ..."
// for a heuristic decision, "forced: ..." for a whole-graph mode, and
// "override: ..." for a per-layer Force entry.
func (p *Partitioner) ChooseDirection(l *graph.Layer) (Direction, string) {
	dirs := legalDirs(l)
	if len(dirs) == 0 {
		return DirNone, "h1: no reduction-free partitioning axis"
	}
	spatial := DirNone
	if hasDir(dirs, DirSpatialH) {
		spatial = DirSpatialH
	} else if hasDir(dirs, DirSpatialW) {
		spatial = DirSpatialW
	}
	channel := DirNone
	if hasDir(dirs, DirChannel) {
		channel = DirChannel
	}

	switch p.Mode {
	case ForceSpatial:
		if spatial != DirNone {
			return spatial, "forced: spatial mode"
		}
		return channel, "forced: spatial mode unavailable; channel fallback"
	case ForceChannel:
		if channel != DirNone {
			return channel, "forced: channel mode"
		}
		return spatial, "forced: channel mode unavailable; spatial fallback"
	}

	// Per-layer override (Adaptive mode only; unsupported overrides
	// fall through to the heuristics).
	if int(l.ID) < len(p.Force) {
		switch m := p.Force[l.ID]; m {
		case MethodSpatial:
			if spatial != DirNone {
				return spatial, "override: spatial method"
			}
		case MethodChannel:
			if channel != DirNone {
				return channel, "override: channel method"
			}
		}
	}

	// Adaptive: h1-h5.
	if spatial == DirNone {
		return channel, "h1: spatial split not supported by operator"
	}
	if channel == DirNone {
		return spatial, "h1: channel split not supported by operator"
	}

	in := p.Graph.InShapes(l)
	n := p.Arch.NumCores()

	// h4 (operation type): channel-wise operators avoid kernel
	// replication entirely under channel partitioning.
	if l.Op.ChannelWise() && l.OutShape.C >= n*p.Arch.MaxAlignC() {
		return channel, "h4: channel-wise operation"
	}

	// h3 (data shape): too shallow to split spatially across all cores.
	minRows := n * p.Arch.MaxAlignSpatial() * 2
	if l.OutShape.Dim(spatial.Axis()) < minRows {
		if l.OutShape.C >= n*p.Arch.MaxAlignC() {
			return channel, "h3: spatial extent too shallow for all cores"
		}
		return spatial, "h3: both axes too shallow; keep spatial"
	}

	kernelBytes := l.Op.KernelBytes(l.OutShape, in, l.DType)
	var inBytes int64
	for i, s := range in {
		_ = i
		inBytes += s.Bytes(l.DType)
	}

	// h2 (data reuse): spatial replicates the kernel on every core;
	// channel replicates the input. Prefer the smaller replication.
	if kernelBytes > inBytes {
		return channel, "h2: kernel larger than input tensor"
	}

	// h5 (data exchange): when the operator's receptive field makes
	// spatial halos disproportionate (large kernel, stride, dilation),
	// channel partitioning moves less data.
	if haloRows := p.spatialHaloRows(l, spatial.Axis()); haloRows > 0 {
		share := l.OutShape.Dim(spatial.Axis()) / n
		if share > 0 && haloRows*4 >= share {
			return channel, "h5: spatial halo too large relative to partition"
		}
	}

	return spatial, "h1: spatial default (best data reusability)"
}

// spatialHaloRows returns how many input rows beyond its proportional
// share a middle partition needs on one side along axis a (the halo
// width in rows).
func (p *Partitioner) spatialHaloRows(l *graph.Layer, a tensor.Axis) int {
	in := p.Graph.InShapes(l)
	if len(in) == 0 {
		return 0
	}
	out := l.OutShape
	n := p.Arch.NumCores()
	share := out.Dim(a) / n
	if share == 0 {
		return 0
	}
	// Probe an interior slice [share, 2*share) to avoid border clamping.
	probe := tensor.WholeRegion(out)
	probe.Off = probe.Off.WithDim(a, share)
	probe.Ext = probe.Ext.WithDim(a, share)
	probe = probe.ClampTo(out)
	if probe.Empty() {
		return 0
	}
	region := l.Op.InputRegion(probe, 0, in)
	// Ideal (stride-scaled) input share for the probe, without halo.
	inShare := in[0].Dim(a) * probe.Ext.Dim(a) / out.Dim(a)
	halo := (region.Ext.Dim(a) - inShare) / 2
	if halo < 0 {
		return 0
	}
	return halo
}

// planWithDirection balances the chosen axis across cores and derives
// per-core regions, input requirements, and costs.
func (p *Partitioner) planWithDirection(l *graph.Layer, dir Direction, reason string) Plan {
	in := p.Graph.InShapes(l)
	n := p.Arch.NumCores()
	plan := Plan{Layer: l.ID, Direction: dir, Reason: reason}

	if dir == DirNone || n == 1 {
		// Whole layer on the fastest core.
		if dir != DirNone {
			plan.Reason = reason
		}
		subs := make([]SubLayer, n)
		best := fastestCore(p.Arch)
		for i := range subs {
			subs[i] = SubLayer{Core: i}
		}
		whole := tensor.WholeRegion(l.OutShape)
		subs[best] = p.makeSub(l, in, best, whole)
		plan.Subs = subs
		if dir == DirNone {
			plan.Direction = DirNone
		}
		return plan
	}

	axis := dir.Axis()
	extent := l.OutShape.Dim(axis)

	// Per-unit costs along the split axis drive heterogeneous balance.
	unit := l.OutShape.WithDim(axis, 1)
	macsPerUnit := float64(l.Op.MACs(unit, in))
	bytesPerUnit := float64(unit.Bytes(l.DType)) // output traffic
	if len(in) > 0 {
		// Input traffic scales with the split for spatial and for
		// channel-wise ops; dense channel splits replicate the input,
		// so it does not scale and is excluded from the per-unit cost.
		if dir.Spatial() || l.Op.ChannelWise() {
			var inPerUnit float64
			for _, s := range in {
				inPerUnit += float64(s.Bytes(l.DType)) / float64(extent)
			}
			bytesPerUnit += inPerUnit
		}
		if dir == DirChannel {
			bytesPerUnit += float64(l.Op.KernelBytes(unit, in, l.DType))
		}
	}

	weights := p.Model.BalanceWeights(macsPerUnit, bytesPerUnit, l.DType)
	for i := range weights {
		if i < len(p.WeightScale) && p.WeightScale[i] > 0 {
			weights[i] *= p.WeightScale[i]
		}
	}
	align := p.alignFor(dir)
	chunks := tensor.SplitWeighted(extent, weights, align)
	regions := tensor.ChunksToRegions(l.OutShape, axis, chunks)

	subs := make([]SubLayer, n)
	for i, r := range regions {
		subs[i] = p.makeSub(l, in, i, r)
	}
	plan.Subs = subs
	return plan
}

// alignFor returns the boundary alignment a direction must respect:
// the largest per-core requirement, so every core's chunk satisfies
// its own engine (the paper notes channel alignment is the larger
// burden).
func (p *Partitioner) alignFor(dir Direction) int {
	if dir == DirChannel {
		return p.Arch.MaxAlignC()
	}
	return p.Arch.MaxAlignSpatial()
}

// makeSub fills a SubLayer for core producing region r of layer l.
func (p *Partitioner) makeSub(l *graph.Layer, in []tensor.Shape, core int, r tensor.Region) SubLayer {
	s := SubLayer{Core: core, Out: r}
	if r.Empty() {
		return s
	}
	s.In = make([]tensor.Region, len(in))
	for i := range in {
		s.In[i] = l.Op.InputRegion(r, i, in)
	}
	s.MACs = l.Op.MACs(r.Ext, in)
	s.KernelBytes = l.Op.KernelBytes(r.Ext, in, l.DType)
	return s
}

// fastestCore returns the index of the core with the highest MAC
// throughput, breaking ties by DMA bandwidth.
func fastestCore(a *arch.Arch) int {
	best := 0
	for i, c := range a.Cores {
		b := a.Cores[best]
		if c.MACsPerCycle > b.MACsPerCycle ||
			(c.MACsPerCycle == b.MACsPerCycle && c.DMABytesPerCycle > b.DMABytesPerCycle) {
			best = i
		}
	}
	return best
}

// HaloBytes returns, for consumer sub-layer input inIdx on core,
// how many bytes of the required input region are owned by *other*
// cores under the producer's plan — the data that must arrive via
// halo-exchange (or a global-memory round trip). Bytes not owned by
// any core (producer is a graph input) are excluded: they always come
// from global memory.
func HaloBytes(producer *Plan, consumerIn tensor.Region, core int, dt tensor.DType) int64 {
	if consumerIn.Empty() || producer.Subs == nil {
		return 0
	}
	var remote int64
	for i, s := range producer.Subs {
		if i == core || s.Empty() {
			continue
		}
		remote += consumerIn.Intersect(s.Out).Bytes(dt)
	}
	return remote
}

// LocalBytes returns how many bytes of the consumer's required input
// region the same core already produced under the producer's plan —
// the candidate for feature-map forwarding.
func LocalBytes(producer *Plan, consumerIn tensor.Region, core int, dt tensor.DType) int64 {
	if consumerIn.Empty() || producer.Subs == nil {
		return 0
	}
	s := producer.Subs[core]
	if s.Empty() {
		return 0
	}
	return consumerIn.Intersect(s.Out).Bytes(dt)
}
