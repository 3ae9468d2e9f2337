// Package npu is the public API of the multicore-NPU compiler and
// simulator reproducing "Accelerating Deep Neural Networks on Mobile
// Multicore NPUs" (CGO 2023).
//
// Typical use:
//
//	g := npu.BuildModel("MobileNetV2")        // or build your own graph
//	a := npu.Exynos2100Like()                  // 3-core NPU description
//	res, err := npu.Compile(g, a, npu.Stratum()) // Base() / Halo() / Stratum()
//	rep, err := npu.Simulate(res, false)
//	fmt.Println(rep)
//
// The package re-exports the building blocks (graph construction,
// operators, architecture description, compiler options) via type
// aliases, so the whole pipeline is scriptable from one import.
package npu

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// Core data-model aliases.
type (
	// Graph is the network IR; build with NewGraph and Graph.MustAdd.
	Graph = graph.Graph
	// Layer is one node of a Graph.
	Layer = graph.Layer
	// LayerID identifies a layer within its graph.
	LayerID = graph.LayerID
	// Shape is an HxWxC tensor extent.
	Shape = tensor.Shape
	// DType is a tensor element type (Int8, Int16, Int32).
	DType = tensor.DType
	// Arch describes the NPU hardware.
	Arch = arch.Arch
	// CoreDesc describes one NPU core.
	CoreDesc = arch.Core
	// Options selects the optimization configuration (Table 3).
	Options = core.Options
	// Result is the compiler's output.
	Result = core.Result
	// ModelInfo describes one benchmark network (Table 2).
	ModelInfo = models.Info
	// SimStats is the aggregate outcome of a simulation.
	SimStats = sim.Stats
	// TraceEvent is one executed instruction interval.
	TraceEvent = sim.Event
	// PartitionMode forces a partitioning policy (Table 4 compares them).
	PartitionMode = partition.Mode
)

// Element types.
const (
	Int8  = tensor.Int8
	Int16 = tensor.Int16
	Int32 = tensor.Int32
)

// Partitioning policies.
const (
	Adaptive     = partition.Adaptive
	ForceSpatial = partition.ForceSpatial
	ForceChannel = partition.ForceChannel
)

// NewGraph returns an empty network with default element type dt.
func NewGraph(name string, dt DType) *Graph { return graph.New(name, dt) }

// NewShape returns the shape {h, w, c}.
func NewShape(h, w, c int) Shape { return tensor.NewShape(h, w, c) }

// Architecture presets.
var (
	// Exynos2100Like is the paper's three-core evaluation platform.
	Exynos2100Like = arch.Exynos2100Like
	// SingleCore is the one-core baseline of Figure 11.
	SingleCore = arch.SingleCore
	// Homogeneous returns an n-core NPU with identical cores.
	Homogeneous = arch.Homogeneous
)

// Optimization configurations (Table 3).
var (
	// Base partitions and pipelines but synchronizes at every layer.
	Base = core.Base
	// Halo adds halo-exchange, halo-first tiling, and forwarding.
	Halo = core.Halo
	// Stratum adds synchronization-free strata on top of Halo.
	Stratum = core.Stratum
)

// Models returns the six benchmark networks of Table 2.
func Models() []ModelInfo { return models.All() }

// BuildModelByName constructs a benchmark network by name, returning
// an error on an unknown name (use Models for the list).
func BuildModelByName(name string) (*Graph, error) {
	m, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	return m.Build(), nil
}

// BuildModel constructs a benchmark network by name; it panics on an
// unknown name (use Models for the list, or BuildModelByName for the
// non-panicking variant).
func BuildModel(name string) *Graph {
	g, err := BuildModelByName(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Compile lowers a network for an architecture under the given
// optimization options.
func Compile(g *Graph, a *Arch, opt Options) (*Result, error) {
	return core.Compile(g, a, opt)
}

// CompileCtx is Compile with cooperative cancellation: ctx is polled
// at checkpoints throughout the compile pipeline (including the
// admission simulation), so an expired deadline or canceled request
// aborts promptly with an error wrapping ctx's error. A nil ctx
// behaves exactly like Compile.
func CompileCtx(ctx context.Context, g *Graph, a *Arch, opt Options) (*Result, error) {
	return core.CompileCtx(ctx, g, a, opt)
}

// CompileCached is Compile with process-wide memoization; identical
// (graph, arch, options) points compile once. See core.CompileCached.
func CompileCached(g *Graph, a *Arch, opt Options) (*Result, error) {
	return core.CompileCached(g, a, opt)
}

// CompileCachedCtx is CompileCached with cooperative cancellation. A
// canceled compile never stores a partial entry, so a follow-up
// identical request compiles cleanly (or hits a prior good entry).
func CompileCachedCtx(ctx context.Context, g *Graph, a *Arch, opt Options) (*Result, error) {
	return core.CompileCachedCtx(ctx, g, a, opt)
}

// Typed-error surface, re-exported so API users can classify failures
// with errors.Is/errors.As against a single import.
type (
	// UnfitError reports that the graceful-degradation chain was
	// exhausted without finding a schedule that fits SPM.
	UnfitError = core.UnfitError
	// SPMOverflowError reports a schedule whose live bytes exceeded a
	// core's scratchpad during admission or simulation.
	SPMOverflowError = sim.SPMOverflowError
	// CanceledError reports a simulation aborted at a cooperative
	// cancellation checkpoint; it unwraps to the context error.
	CanceledError = sim.CanceledError
	// CannotFitError reports a single layer whose minimal tile exceeds
	// the SPM budget.
	CannotFitError = tiling.CannotFitError
)

// ErrCanceled matches (via errors.Is) any simulation or compilation
// aborted by context cancellation.
var ErrCanceled = sim.ErrCanceled

// Report is a simulation outcome with convenient accessors.
type Report struct {
	// Stats holds latency and per-core metrics (cycles).
	Stats SimStats
	// Trace holds per-instruction events when requested.
	Trace []TraceEvent
	// Arch is the simulated platform (for unit conversions).
	Arch *Arch
	// Config names the optimization configuration.
	Config string
}

// LatencyMicros returns the end-to-end inference latency. If the
// architecture's clock is zero or negative it returns 0 (never
// +Inf/NaN) — see sim.Stats.LatencyMicros.
func (r *Report) LatencyMicros() float64 {
	return r.Stats.LatencyMicros(r.Arch.ClockMHz)
}

// String formats a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %.1f us\n", r.Config, r.Arch.Name, r.LatencyMicros())
	var idle, syncW []float64
	for _, c := range r.Stats.PerCore {
		idle = append(idle, c.Idle)
		syncW = append(syncW, c.SyncWait)
	}
	fmt.Fprintf(&b, "  idle %s, sync %s, %d barriers, %.1f MB moved, %.2f GMACs executed\n",
		metrics.Summarize(idle).Micros(r.Arch.ClockMHz),
		metrics.Summarize(syncW).Micros(r.Arch.ClockMHz),
		r.Stats.Barriers,
		float64(r.Stats.TotalBytes())/1e6,
		float64(r.Stats.TotalMACs())/1e9)
	for i, c := range r.Stats.PerCore {
		fmt.Fprintf(&b, "  %s: compute %.1f us, dma %.1f us, idle %.1f us, %d KB loaded, %d KB stored\n",
			r.Arch.Cores[i].Name,
			c.ComputeBusy/float64(r.Arch.ClockMHz),
			(c.LoadBusy+c.StoreBusy)/float64(r.Arch.ClockMHz),
			c.Idle/float64(r.Arch.ClockMHz),
			c.BytesLoaded/1024, c.BytesStored/1024)
	}
	return b.String()
}

// Simulate runs a compiled program on the discrete-event simulator.
func Simulate(res *Result, collectTrace bool) (*Report, error) {
	return SimulateCtx(nil, res, collectTrace)
}

// SimulateCtx is Simulate with cooperative cancellation: the engine
// polls ctx every few dozen event-loop steps and aborts with a typed
// *CanceledError (matching ErrCanceled). A nil ctx costs one pointer
// compare per step. Without a trace it returns the compiler's
// admission run rather than simulating again (see core.Result.Simulate).
func SimulateCtx(ctx context.Context, res *Result, collectTrace bool) (*Report, error) {
	cfg, rec := sim.Config{Ctx: ctx}, &sim.Recorder{}
	if collectTrace {
		cfg.Hook = rec
	}
	out, err := res.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return &Report{Stats: out.Stats, Trace: rec.Events, Arch: res.Program.Arch, Config: "compiled"}, nil
}

// Run compiles and simulates in one step.
func Run(g *Graph, a *Arch, opt Options) (*Report, error) {
	return RunCtx(nil, g, a, opt)
}

// RunCtx is Run with cooperative cancellation covering both the
// compile pipeline and the simulation. A nil ctx behaves exactly
// like Run.
func RunCtx(ctx context.Context, g *Graph, a *Arch, opt Options) (*Report, error) {
	res, err := CompileCtx(ctx, g, a, opt)
	if err != nil {
		return nil, err
	}
	rep, err := SimulateCtx(ctx, res, false)
	if err != nil {
		return nil, err
	}
	rep.Config = opt.Name()
	return rep, nil
}

// EnergyMicroJoules estimates the inference energy from the
// architecture's per-MAC and per-DRAM-byte costs.
func (r *Report) EnergyMicroJoules(int16Model bool) float64 {
	return r.Stats.EnergyMicroJoules(r.Arch.PJPerMAC, r.Arch.PJPerDRAMByte, int16Model)
}

// ExploreResult is the outcome of a schedule search.
type ExploreResult = dse.Result

// Explore searches for a schedule faster than the heuristic
// configuration base: per-layer partitioning methods, stratum
// boundaries and per-core partition weights, scored by simulated
// latency. Its weight moves include the paper's profile-guided fix for
// unbalanced workloads. The best schedule is never worse than base,
// and the same seed gives the same result at any worker count. Compile
// Best.Options(base) to get the winning program.
func Explore(ctx context.Context, g *Graph, a *Arch, base Options, seed uint64) (*ExploreResult, error) {
	return dse.Explore(ctx, g, a, base, seed)
}

// RunBatch simulates n back-to-back inferences on the whole NPU and
// returns the average inference period in microseconds (the
// sustained-throughput metric). The inferences run as one stream, the
// way RunConcurrent runs workloads listing the same cores: each starts
// when the one before it retires, so the period equals the single-shot
// latency. A zero or negative clock yields 0, matching the
// LatencyMicros contract.
func RunBatch(g *Graph, a *Arch, opt Options, n int) (periodUS float64, err error) {
	res, err := Compile(g, a, opt)
	if err != nil {
		return 0, err
	}
	period, err := sim.Throughput(res.Program, n, sim.Config{})
	if err != nil {
		return 0, err
	}
	if a.ClockMHz <= 0 {
		return 0, nil
	}
	return period / float64(a.ClockMHz), nil
}

// Validate checks a compilation result's region arithmetic by
// executing the graph numerically three ways — whole (reference),
// partitioned per core, and per stratum with feature-map forwarding —
// and comparing bit-exactly. It is slow on full benchmark models; use
// small graphs or prefixes.
func Validate(g *Graph, res *Result) error {
	ref, err := exec.RunReference(g)
	if err != nil {
		return err
	}
	if err := exec.ValidatePartitioned(g, res.Plans, ref); err != nil {
		return err
	}
	if err := exec.ValidateTiled(g, res.Plans, tiling.New(res.Program.Arch), ref); err != nil {
		return err
	}
	return exec.ValidateStrata(g, res.Plans, res.Strata, ref)
}
