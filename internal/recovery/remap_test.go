package recovery

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/serialize"
	"repro/internal/sim"
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
// must compile once: suffix graphs fingerprint structurally.
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
	hits0, misses0 := core.CacheStats()
	second, err := Remap(nil, g, checkpointOf(g, cf.Completed), a, []int{1, 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := core.CacheStats()
	if misses1 != misses0 {
		t.Errorf("identical remap recompiled: %d fresh compiles", misses1-misses0)
	}
	if hits1 <= hits0 {
		t.Error("identical remap did not hit the compile cache")
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
		for _, l := range g.Layers() {
			if rm.Origin[l.ID] != l.ID {
				t.Fatalf("%s checkpoint: origin of layer %d = %d, want identity", name, l.ID, rm.Origin[l.ID])
			}
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
