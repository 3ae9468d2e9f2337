package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/graph"
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
// field that influences compilation feeds the hash: the full layer
// list with operator attributes for the graph, every core and platform
// parameter for the architecture, and all option toggles including the
// WeightScale vector.
func Fingerprint(g *graph.Graph, a *arch.Arch, opt Options) CacheKey {
	var k CacheKey

	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|", g.Name, g.DType)
	for _, l := range g.Layers() {
		fmt.Fprintf(h, "%s|%#v|%v|%v|%d;", l.Name, l.Op, l.Inputs, l.OutShape, l.DType)
	}
	k.Graph = h.Sum64()

	h = fnv.New64a()
	fmt.Fprintf(h, "%#v", *a)
	k.Arch = h.Sum64()

	h = fnv.New64a()
	fmt.Fprintf(h, "%#v", opt)
	k.Opt = h.Sum64()
	return k
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
// — already does) and has CacheHit set when no compile ran. Concurrent calls for the same key may both compile;
// the results are bit-identical, and the first store wins.
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
