package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
)

// CacheKey identifies one compilation point: independent fingerprints
// of the graph, the architecture, and the options. Two graphs built
// separately from the same model definition fingerprint identically,
// so sweeps that rebuild a model per experiment still share compiles.
type CacheKey struct {
	Graph, Arch, Opt uint64
}

// String renders the key for diagnostics.
func (k CacheKey) String() string {
	return fmt.Sprintf("g%016x/a%016x/o%016x", k.Graph, k.Arch, k.Opt)
}

// Fingerprint computes the cache key of a compilation point. Every
// field that influences compilation feeds the hash, field by field:
// the graph's name and dtype and, per layer, its name, operator kind
// and attributes, inputs, shape and dtype; every platform and core
// parameter of the architecture; and every option, slices included.
// It allocates nothing for the operator kinds package ops defines.
func Fingerprint(g *graph.Graph, a *arch.Arch, opt Options) CacheKey {
	return CacheKey{Graph: graphKey(g), Arch: ArchKey(a), Opt: optKey(opt)}
}

// graphKey hashes each layer's name, operator and edges as three
// independent chains and folds them into the graph's chain, so the
// multiplies of one layer, and of consecutive layers, overlap; that is
// about 1.5x faster than one chain through every field.
func graphKey(g *graph.Graph) uint64 {
	h := newKeyHash().str(g.Name).int(int(g.DType)).int(g.Len())
	for _, l := range g.Layers() {
		name := newKeyHash().str(l.Name)
		op := newKeyHash().op(l.Op)
		edges := newKeyHash().int(l.OutShape.H).int(l.OutShape.W).int(l.OutShape.C).
			int(int(l.DType)).int(len(l.Inputs))
		for _, in := range l.Inputs {
			edges = edges.int(int(in))
		}
		h = h.word(uint64(name)).word(uint64(op)).word(uint64(edges))
	}
	return uint64(h)
}

// ArchKey is the architecture's part of Fingerprint: every platform
// and core parameter of a, hashed field by field.
func ArchKey(a *arch.Arch) uint64 {
	h := newKeyHash().str(a.Name).int(len(a.Cores))
	for _, c := range a.Cores {
		h = h.str(c.Name).int(c.MACsPerCycle).float(c.DMABytesPerCycle).
			int(int(c.SPMBytes)).int(c.AlignC).int(c.AlignSpatial)
	}
	return uint64(h.int(a.ClockMHz).float(a.BusBytesPerCycle).
		int(int(a.SyncBaseCycles)).int(int(a.SyncPerCoreCycles)).
		int(int(a.SyncJitterCycles)).int(int(a.DMASetupCycles)).
		float(a.ComputeEfficiency).bool(a.DirectHaloInterconnect).
		float(a.PJPerMAC).float(a.PJPerDRAMByte))
}

func optKey(o Options) uint64 {
	h := newKeyHash().int(int(o.Partitioning)).int(int(o.Scheduling)).
		bool(o.HaloExchange).bool(o.HaloFirst).bool(o.Forwarding).bool(o.Stratum).bool(o.NoDoubleBuffer)
	h = h.int(len(o.WeightScale))
	for _, w := range o.WeightScale {
		h = h.float(w)
	}
	h = h.int(len(o.ForceMethods))
	for _, m := range o.ForceMethods {
		h = h.int(int(m))
	}
	h = h.int(len(o.StratumBoundary))
	for _, b := range o.StratumBoundary {
		h = h.int(int(b))
	}
	return uint64(h)
}

// keyHash is 64-bit FNV-1a taken a word at a time: each field is
// xored in whole, then multiplied by the FNV prime. Strings and slices
// are length-prefixed, so adjacent fields cannot trade contents. The
// state is passed and returned by value, and fields are fed one call
// each rather than through a variadic slice, so it stays in a
// register.
type keyHash uint64

func newKeyHash() keyHash { return 14695981039346656037 }

func (h keyHash) word(v uint64) keyHash { return (h ^ keyHash(v)) * 1099511628211 }

func (h keyHash) int(v int) keyHash { return h.word(uint64(v)) }

func (h keyHash) float(v float64) keyHash { return h.word(math.Float64bits(v)) }

func (h keyHash) bool(v bool) keyHash {
	if v {
		return h.word(1)
	}
	return h.word(0)
}

func (h keyHash) str(s string) keyHash {
	h = h.int(len(s))
	if len(s) < 8 {
		var v uint64
		for i := len(s) - 1; i >= 0; i-- {
			v = v<<8 | uint64(s[i])
		}
		return h.word(v)
	}
	// Whole words, then the last eight bytes, which may overlap the
	// previous word; with the length hashed first that stays exact.
	for i := 0; i+8 <= len(s); i += 8 {
		h = h.word(load64(s[i:]))
	}
	if len(s)%8 != 0 {
		h = h.word(load64(s[len(s)-8:]))
	}
	return h
}

// load64 reads the first eight bytes of s, little-endian.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func (h keyHash) pad(p ops.Padding) keyHash {
	return h.int(p.Top).int(p.Bottom).int(p.Left).int(p.Right)
}

// op hashes the operator's kind and every attribute. Operator types
// defined outside package ops fall back to their String form.
func (h keyHash) op(op ops.Op) keyHash {
	h = h.int(int(op.Kind()))
	switch o := op.(type) {
	case ops.Input:
		return h.int(o.Shape.H).int(o.Shape.W).int(o.Shape.C)
	case ops.Conv2D:
		return h.int(o.KH).int(o.KW).int(o.StrideH).int(o.StrideW).
			int(o.DilH).int(o.DilW).int(o.OutC).int(o.Groups).pad(o.Pad)
	case ops.DepthwiseConv2D:
		return h.int(o.KH).int(o.KW).int(o.StrideH).int(o.StrideW).
			int(o.DilH).int(o.DilW).pad(o.Pad)
	case ops.TransposeConv2D:
		return h.int(o.KH).int(o.KW).int(o.StrideH).int(o.StrideW).int(o.OutC).pad(o.Pad)
	case ops.MaxPool2D:
		return h.int(o.KH).int(o.KW).int(o.StrideH).int(o.StrideW).pad(o.Pad)
	case ops.AvgPool2D:
		return h.int(o.KH).int(o.KW).int(o.StrideH).int(o.StrideW).pad(o.Pad)
	case ops.GlobalAvgPool, ops.Mul, ops.Softmax:
		return h
	case ops.FullyConnected:
		return h.int(o.OutC)
	case ops.Add:
		return h.int(o.Arity)
	case ops.Concat:
		return h.int(o.Arity)
	case ops.Activation:
		return h.int(int(o.Func))
	case ops.Resize:
		return h.int(o.ScaleH).int(o.ScaleW).int(int(o.Mode))
	case ops.Crop:
		return h.int(o.Top).int(o.Bottom).int(o.Left).int(o.Right)
	case ops.ChannelSlice:
		return h.int(o.From).int(o.To)
	case ops.ChannelShuffle:
		return h.int(o.Groups)
	default:
		return h.str(op.String())
	}
}

// compileCache maps CacheKey to *Result. Entries are immutable once
// stored; CompileCached hands out shallow copies so a caller reslicing
// the Result struct cannot poison the cache. sync.Map fits the access
// pattern: written once per configuration, read by every revisit.
var (
	compileCache sync.Map
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
)

// CompileCached is Compile with memoization keyed by Fingerprint. The
// returned Result shares the cached Program/Plans/Strata (treat them
// as read-only, which every consumer — simulator, reports, validators
// — already does), has CacheHit set when no compile ran, and carries
// the point's Fingerprint as Key. Concurrent calls for the same key may
// both compile; the results are bit-identical, and the first store
// wins.
func CompileCached(g *graph.Graph, a *arch.Arch, opt Options) (*Result, error) {
	return CompileCachedCtx(nil, g, a, opt)
}

// CompileCachedCtx is CompileCached with cooperative cancellation (see
// CompileCtx). Cancellation can never corrupt the cache: a hit is
// served without touching the context, and a miss only stores a fully
// admitted Result — an aborted compile returns its error and leaves
// the entry absent, so the next identical request compiles cleanly.
func CompileCachedCtx(ctx context.Context, g *graph.Graph, a *arch.Arch, opt Options) (*Result, error) {
	key := Fingerprint(g, a, opt)
	if v, ok := compileCache.Load(key); ok {
		cacheHits.Add(1)
		res := *v.(*Result)
		res.CacheHit = true
		return &res, nil
	}
	cacheMisses.Add(1)
	res, err := CompileCtx(ctx, g, a, opt)
	if err != nil {
		return nil, err
	}
	res.Key = key
	v, _ := compileCache.LoadOrStore(key, res)
	out := *v.(*Result)
	return &out, nil
}

// CacheStats reports cumulative CompileCached hits and misses.
func CacheStats() (hits, misses int64) {
	return cacheHits.Load(), cacheMisses.Load()
}

// ResetCache drops every cached compilation and zeroes the counters
// (benchmarks use it to measure cold compiles).
func ResetCache() {
	compileCache.Range(func(k, _ any) bool {
		compileCache.Delete(k)
		return true
	})
	cacheHits.Store(0)
	cacheMisses.Store(0)
}
