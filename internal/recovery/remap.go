package recovery

import (
	"context"
	"fmt"

	"repro/internal/arch"
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
	// original-graph layer it stands for.
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
// and returns bit-identical programs. This is the primitive the
// tenancy scheduler uses to move surviving tenants when a tenant
// arrives or departs mid-run, and what the recovery loop uses after a
// core death.
func Remap(ctx context.Context, g *graph.Graph, c *Checkpoint, a *arch.Arch, cores []int, opt core.Options) (*Remapped, error) {
	sub, err := a.Subset(cores)
	if err != nil {
		return nil, fmt.Errorf("recovery: remap %s: %w", g.Name, err)
	}
	suffix, origin := g, identityOrigin(g)
	if !c.Empty() {
		suffix, origin, err = c.suffixGraph(g)
		if err != nil {
			return nil, err
		}
	}
	res, err := core.CompileCachedCtx(ctx, suffix, sub, opt)
	if err != nil {
		return nil, fmt.Errorf("recovery: remapping %s onto %d cores: %w", g.Name, len(cores), err)
	}
	return &Remapped{Suffix: suffix, Origin: origin, Compiled: res}, nil
}

// identityOrigin maps a graph onto itself, so callers can treat the
// nothing-completed case uniformly with real suffixes.
func identityOrigin(g *graph.Graph) map[graph.LayerID]graph.LayerID {
	m := make(map[graph.LayerID]graph.LayerID, g.Len())
	for _, l := range g.Layers() {
		m[l.ID] = l.ID
	}
	return m
}
