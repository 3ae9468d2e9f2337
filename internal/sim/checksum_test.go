package sim_test

import (
	. "repro/internal/sim"

	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
)

// TestChecksumsCoRunStream holds the checksum pass on a co-run with a
// stream: a Base program (one checksum per layer) on core 0 beside a
// +Stratum program run twice back to back on cores 1 and 2. Under a
// flip-only plan both engines must time the co-run exactly like the
// clean one, and report the Corruptions Checksums computes from the
// clean co-run's LayerFinish rows, in (cycle, placement, stratum)
// order.
func TestChecksumsCoRunStream(t *testing.T) {
	global := arch.Exynos2100Like()
	on := func(g *graph.Graph, opt core.Options, cores []int) Placement {
		sub, err := global.Subset(cores)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compile(g, sub, opt)
		if err != nil {
			t.Fatal(err)
		}
		return Placement{Program: res.Program, Cores: cores}
	}
	b := on(models.ConvChain(4, 48, 48, 16), core.Stratum(), []int{1, 2})
	if len(b.Program.Strata) == 0 {
		t.Fatal("+Stratum program has no strata")
	}
	placements := []Placement{on(models.TinyCNN(), core.Base(), []int{0}), b, b}

	fin := NewLayerFinish(placements)
	clean, err := RunConcurrent(global, placements, Config{Hook: fin})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, rate := range []float64{0.02, 0.3} {
		for seed := uint64(1); seed <= 8; seed++ {
			fp := &fault.Plan{Seed: seed, FlipRate: rate}
			want := Checksums(fp, placements, fin.Finish, nil)
			cfg := Config{Faults: fp, WatchdogCycles: 500}
			ev, err := RunConcurrent(global, placements, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunConcurrentReference(global, placements, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*Result{"event": ev, "reference": ref} {
				if !reflect.DeepEqual(got.Stats, clean.Stats) {
					t.Fatalf("flip=%g seed %d: %s engine timed the co-run differently from the clean run", rate, seed, name)
				}
				if !reflect.DeepEqual(got.Corruptions, want) {
					t.Fatalf("flip=%g seed %d: %s engine corruptions %+v, Checksums %+v", rate, seed, name, got.Corruptions, want)
				}
			}
			if !slices.IsSortedFunc(want, func(x, y Corruption) int {
				return cmp.Or(cmp.Compare(x.DetectedAtCycle, y.DetectedAtCycle),
					cmp.Compare(x.Placement, y.Placement), cmp.Compare(x.Stratum, y.Stratum))
			}) {
				t.Fatalf("flip=%g seed %d: corruptions out of order: %+v", rate, seed, want)
			}
			for _, c := range want {
				seen[c.Placement] = true
				layers := StratumLayers(placements[c.Placement].Program, c.Stratum)
				var last float64
				for _, id := range layers {
					last = max(last, fin.Finish[c.Placement][id])
				}
				if c.DetectedAtCycle != last || c.Transfers <= 0 {
					t.Fatalf("flip=%g seed %d: %+v not detected at its stratum's last finish %.0f", rate, seed, c, last)
				}
			}
		}
	}
	for pi := range placements {
		if !seen[pi] {
			t.Errorf("no corruption in placement %d", pi)
		}
	}
}
