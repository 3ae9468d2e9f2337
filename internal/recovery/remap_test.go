package recovery

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/keytest"
	"repro/internal/models"
	"repro/internal/partition"
	"repro/internal/serialize"
	"repro/internal/sim"
	"repro/internal/stratum"
)

// programBytes serializes a program for bit-exact comparison.
func programBytes(t *testing.T, res *core.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.SaveProgram(&buf, res.Program); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Remap must be bit-exact against a fresh, uncached compile of the
// post-change placement — the acceptance bar for tenancy re-mapping.
func TestRemapBitExactVsFreshCompile(t *testing.T) {
	g := models.ConvChain(6, 64, 64, 16)
	a := arch.Exynos2100Like()
	opt := core.Base()
	killAt := 0.6 * cleanCycles(t, g, a, opt)
	cf := failWith(t, g, a, opt, &fault.Plan{Deaths: []fault.Death{{Core: 2, AtCycle: killAt}}})
	if len(cf.Completed) == 0 {
		t.Fatal("late Base kill left no checkpoint")
	}

	survivors := []int{0, 1}
	rm, err := Remap(nil, g, checkpointOf(g, cf.Completed), a, survivors, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh compile of the same suffix for the same subset, bypassing
	// the cache entirely.
	suffix, origin, err := SuffixGraph(g, cf.Completed)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := a.Subset(survivors)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Compile(suffix, sub, opt)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := programBytes(t, rm.Compiled), programBytes(t, fresh); !bytes.Equal(got, want) {
		t.Error("remapped program differs from a fresh compile of the post-change placement")
	}
	if !reflect.DeepEqual(rm.Origin, origin) {
		t.Error("remapped origin map differs from a fresh SuffixGraph")
	}
	// The remapped suffix preserves numerics.
	if err := Validate(g, &Result{Suffix: rm.Suffix, Origin: rm.Origin}); err != nil {
		t.Errorf("remapped suffix numerics wrong: %v", err)
	}
}

// Preemption path: a checkpoint computed post-hoc from a clean run's
// per-layer finish cycles (sim.CutAtCycle) remaps exactly like a kill
// checkpoint does.
func TestRemapFromTraceCutBitExact(t *testing.T) {
	g := models.ConvChain(6, 64, 64, 16)
	a := arch.Exynos2100Like()
	opt := core.Base()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	fin := sim.NewLayerFinish(sim.Whole(res.Program))
	out, err := res.Simulate(sim.Config{Hook: fin})
	if err != nil {
		t.Fatal(err)
	}
	completed := sim.CutAtCycle(res.Program, fin.Finish[0], 0.6*out.Stats.TotalCycles)
	if len(completed) == 0 {
		t.Fatal("mid-run cut left no checkpoint")
	}

	target := []int{1, 2}
	rm, err := Remap(nil, g, checkpointOf(g, completed), a, target, opt)
	if err != nil {
		t.Fatal(err)
	}
	suffix, _, err := SuffixGraph(g, completed)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := a.Subset(target)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Compile(suffix, sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(programBytes(t, rm.Compiled), programBytes(t, fresh)) {
		t.Error("trace-cut remap differs from a fresh compile of the suffix placement")
	}
	if err := Validate(g, &Result{Suffix: rm.Suffix, Origin: rm.Origin}); err != nil {
		t.Errorf("trace-cut suffix numerics wrong: %v", err)
	}
}

// Re-mapping the same (graph, checkpoint, subset, options) point twice
// must compile once: the repeat is a hit, served by the remap memo.
func TestRemapHitsCompileCache(t *testing.T) {
	g := models.ConvChain(5, 48, 48, 16)
	a := arch.Exynos2100Like()
	opt := core.Base()
	killAt := 0.6 * cleanCycles(t, g, a, opt)
	cf := failWith(t, g, a, opt, &fault.Plan{Deaths: []fault.Death{{Core: 0, AtCycle: killAt}}})

	first, err := Remap(nil, g, checkpointOf(g, cf.Completed), a, []int{1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, misses0 := core.CacheStats()
	memoHits0, _ := RemapMemoStats()
	second, err := Remap(nil, g, checkpointOf(g, cf.Completed), a, []int{1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, misses1 := core.CacheStats()
	memoHits1, _ := RemapMemoStats()
	if misses1 != misses0 {
		t.Errorf("identical remap recompiled: %d fresh compiles", misses1-misses0)
	}
	if !second.Compiled.CacheHit || memoHits1 <= memoHits0 {
		t.Error("identical remap was not a hit")
	}
	if !bytes.Equal(programBytes(t, first.Compiled), programBytes(t, second.Compiled)) {
		t.Error("cached remap is not bit-identical to the first")
	}
}

// An empty checkpoint — nil, the zero value, or an empty fold —
// remaps the whole network without a suffix rebuild: the original
// graph compiles for the subset directly.
func TestRemapEmptyCheckpointUsesWholeGraph(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	sub, err := a.Subset([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.Compile(g, sub, opt)
	if err != nil {
		t.Fatal(err)
	}
	var folded Checkpoint
	folded.Fold(g, nil, nil)
	for name, c := range map[string]*Checkpoint{"nil": nil, "zero": {}, "empty fold": &folded} {
		rm, err := Remap(nil, g, c, a, []int{0, 2}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if rm.Suffix != g {
			t.Errorf("%s checkpoint rebuilt the graph", name)
		}
		if rm.Origin != nil {
			t.Errorf("%s checkpoint: origin map %v, want nil (the identity)", name, rm.Origin)
		}
		if err := Validate(g, &Result{Suffix: rm.Suffix, Origin: rm.Origin}); err != nil {
			t.Errorf("%s checkpoint: whole-graph remap numerics wrong: %v", name, err)
		}
		if !bytes.Equal(programBytes(t, rm.Compiled), programBytes(t, fresh)) {
			t.Errorf("%s checkpoint: whole-graph remap differs from a fresh compile", name)
		}
	}
}

// Cutting the same suffix twice gives the same compile key, which is
// what lets Remap share compiles; a different cut gives another key.
func TestSuffixFingerprintStable(t *testing.T) {
	g := models.ByNameMust("MobileNetV2")
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	key := func(completed []graph.LayerID) core.CacheKey {
		t.Helper()
		suffix, _, err := SuffixGraph(g, completed)
		if err != nil {
			t.Fatal(err)
		}
		return core.Fingerprint(suffix, a, opt)
	}
	cut := []graph.LayerID{0, 1, 2, 3}
	if key(cut) != key(append([]graph.LayerID(nil), cut...)) {
		t.Error("the same cut fingerprints differently")
	}
	if key(cut) == key(cut[:3]) {
		t.Error("different cuts share a fingerprint")
	}
}

// remapKeyInputs is what the remap memo key covers beyond the graph and
// the checkpoint: the core subset's architecture and the options.
type remapKeyInputs struct {
	Arch arch.Arch
	Opt  core.Options
}

// The remap memo key changes with every arch and option field, with
// each layer of the checkpoint, and with the core subset; each such
// change misses the memo. A hit is DeepEqual to a remap that bypasses
// the memo, and after core.ResetCache the memo misses until the point
// is compiled again.
func TestRemapMemoKeyCoversInputs(t *testing.T) {
	g := models.ByNameMust("MobileNetV2")
	var ckpt Checkpoint
	ckpt.Fold(g, []graph.LayerID{0, 1, 2, 3}, nil)
	fresh := func() remapKeyInputs {
		o := core.Stratum()
		o.WeightScale = []float64{1, 0.9}
		o.ForceMethods = []partition.MethodID{partition.MethodAuto, partition.MethodAuto}
		o.StratumBoundary = []stratum.Boundary{stratum.BoundaryAuto, stratum.BoundaryAuto}
		return remapKeyInputs{Arch: *arch.Exynos2100Like(), Opt: o}
	}
	keytest.CheckEveryField(t, fresh, func(in remapKeyInputs) remapKey {
		return remapKeyOf(g, &ckpt, &in.Arch, in.Opt)
	})

	a := arch.Exynos2100Like()
	opt := core.Stratum()
	remap := func(c *Checkpoint, cores []int) (*Remapped, bool) {
		t.Helper()
		hits0, _ := RemapMemoStats()
		rm, err := Remap(nil, g, c, a, cores, opt)
		if err != nil {
			t.Fatal(err)
		}
		hits1, _ := RemapMemoStats()
		return rm, hits1 > hits0
	}
	core.ResetCache()
	defer core.ResetCache()
	if _, hit := remap(&ckpt, []int{0, 1}); hit {
		t.Fatal("the first remap after core.ResetCache hit the memo")
	}
	hit, ok := remap(&ckpt, []int{0, 1})
	if !ok || !hit.Compiled.CacheHit {
		t.Fatalf("a repeated remap missed the memo (CacheHit %v)", hit.Compiled.CacheHit)
	}

	var shorter, longer Checkpoint
	shorter.Fold(g, []graph.LayerID{0, 1, 2}, nil)
	longer.Fold(g, []graph.LayerID{0, 1, 2, 3, 4}, nil)
	for name, c := range map[string]struct {
		ckpt  *Checkpoint
		cores []int
	}{
		"one layer fewer":        {&shorter, []int{0, 1}},
		"one layer more":         {&longer, []int{0, 1}},
		"cores [1 2]":            {&ckpt, []int{1, 2}},
		"cores [0 2]":            {&ckpt, []int{0, 2}},
		"cores [0] of the three": {&ckpt, []int{0}},
	} {
		sub, err := a.Subset(c.cores)
		if err != nil {
			t.Fatal(err)
		}
		if c.ckpt == &ckpt && core.ArchKey(sub) == hit.Compiled.Key.Arch {
			t.Fatalf("%s: the subset shares the ArchKey of cores [0 1]", name)
		}
		if _, ok := remap(c.ckpt, c.cores); ok {
			t.Errorf("%s: hit the memo entry of another point", name)
		}
	}

	prev := remaps
	remaps = bounded.New[remapKey, remapEntry](0)
	bypass, err := Remap(nil, g, &ckpt, a, []int{0, 1}, opt)
	remaps = prev
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit, bypass) {
		t.Error("a memo hit differs from a remap that bypasses the memo")
	}
	hit.Compiled.Fallback = -1
	hit.Origin = nil
	if again, _ := remap(&ckpt, []int{0, 1}); !reflect.DeepEqual(again, bypass) {
		t.Error("a caller's writes to a hit leaked into the memo")
	}

	core.ResetCache()
	if _, ok := remap(&ckpt, []int{0, 1}); ok {
		t.Error("the memo hit after core.ResetCache")
	}
	again, ok := remap(&ckpt, []int{0, 1})
	if !ok {
		t.Error("the recompiled point missed the memo")
	}
	if !bytes.Equal(programBytes(t, again.Compiled), programBytes(t, bypass.Compiled)) || !reflect.DeepEqual(again.Origin, bypass.Origin) {
		t.Error("the recompiled point's hit differs from the remap before core.ResetCache")
	}
}
