package recovery

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/graph"
)

// Remapped is the outcome of re-targeting a (possibly partially
// executed) network at a new core subset: the suffix graph still to
// run, the origin map back to the caller's graph, and the compiled
// program for the subset.
type Remapped struct {
	// Suffix is the graph of everything not yet completed. When nothing
	// was completed it is the original graph itself (no rebuild).
	Suffix *graph.Graph
	// Origin maps every suffix layer (inputs included) to the
	// original-graph layer it stands for; nil when Suffix is the
	// original graph itself (the identity).
	Origin map[graph.LayerID]graph.LayerID
	// Compiled is the suffix compiled for the requested subset.
	Compiled *core.Result
}

// Remap compiles the unexecuted remainder of g — everything outside
// the checkpoint c — for the given core subset of a; an empty
// checkpoint compiles g itself, with no rebuild. Compilation goes
// through the fingerprint compile cache: suffix graphs are rebuilt
// deterministically and fingerprint structurally, so re-mapping the
// same (graph, checkpoint, subset, options) point twice compiles once
// and returns bit-identical programs. A repeated non-empty point whose
// compile the cache still holds is served from the remap memo without
// rebuilding the suffix: the hit is the cached compile (a shallow copy
// with CacheHit set, as a compile-cache hit is), its own graph as the
// suffix, and the memo's origin map, shared read-only. This is the
// primitive the tenancy scheduler uses to move surviving tenants when a
// tenant arrives or departs mid-run, and what the recovery loop uses
// after a core death.
func Remap(ctx context.Context, g *graph.Graph, c *Checkpoint, a *arch.Arch, cores []int, opt core.Options) (*Remapped, error) {
	sub, err := a.Subset(cores)
	if err != nil {
		return nil, fmt.Errorf("recovery: remap %s: %w", g.Name, err)
	}
	suffix, origin := g, map[graph.LayerID]graph.LayerID(nil)
	var key remapKey
	if !c.Empty() {
		key = remapKeyOf(g, c, sub, opt)
		var res *core.Result
		if e, ok := remaps.GetIf(key, func(e remapEntry) bool {
			res = core.Lookup(e.compiled)
			return res != nil
		}); ok {
			return &Remapped{Suffix: res.Program.Graph, Origin: e.origin, Compiled: res}, nil
		}
		suffix, origin, err = c.suffixGraph(g)
		if err != nil {
			return nil, err
		}
	}
	res, err := core.CompileCachedCtx(ctx, suffix, sub, opt)
	if err != nil {
		return nil, fmt.Errorf("recovery: remapping %s onto %d cores: %w", g.Name, len(cores), err)
	}
	if origin != nil {
		remaps.Put(key, remapEntry{origin: origin, compiled: res.Key})
	}
	return &Remapped{Suffix: suffix, Origin: origin, Compiled: res}, nil
}

// remapEntries bounds the remap memo. perfbench's run-degraded mix
// (faulted /runs with recovery, and /tenants) remaps 48 distinct points
// per seed, so the memo holds five such mixes. An entry holds its key,
// a bit per layer of the checkpoint, and the suffix's origin map, two
// layer IDs per suffix layer: under 16 KB for a Table 2 model (at most
// 220 layers), so a full memo holds under 4 MB. The compile itself
// stays in the compile cache, which an entry names by key only; an
// entry left stale by core.ResetCache keeps only its origin map until
// a Put replaces it or it is evicted.
const remapEntries = 256

// remapKey names one remap point: the Fingerprint of the whole graph on
// the core subset with the options, and the checkpoint's layer set.
type remapKey struct {
	point core.CacheKey
	done  string
}

func remapKeyOf(g *graph.Graph, c *Checkpoint, sub *arch.Arch, opt core.Options) remapKey {
	return remapKey{point: core.Fingerprint(g, sub, opt), done: c.key()}
}

// remapEntry is what the memo keeps of a remap: the suffix's origin map
// and its compile's cache key. A hit takes the compile from the compile
// cache, so after core.ResetCache the entry is stale and misses.
type remapEntry struct {
	origin   map[graph.LayerID]graph.LayerID
	compiled core.CacheKey
}

// remaps memoizes Remap on non-empty checkpoints, process-wide.
var remaps = bounded.New[remapKey, remapEntry](remapEntries)

// RemapMemoStats reports cumulative remap memo hits and misses. A remap
// from an empty checkpoint, a compile-cache lookup already, counts as
// neither.
func RemapMemoStats() (hits, misses int64) { return remaps.Stats() }

// ResetRemapMemo drops every memoized remap and zeroes the counters
// (benchmarks use it to time first-seen remaps on a warm compile cache).
func ResetRemapMemo() { remaps.Reset() }
