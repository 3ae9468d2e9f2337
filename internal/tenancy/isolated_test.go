package tenancy

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
)

// orderedSubsets lists every non-empty ordered subset of n cores:
// 15 for three cores, unsorted ones such as [2 0 1] included.
func orderedSubsets(n int) [][]int {
	var out [][]int
	var grow func(cur []int, used []bool)
	grow = func(cur []int, used []bool) {
		for c := 0; c < n; c++ {
			if used[c] {
				continue
			}
			next := append(append([]int(nil), cur...), c)
			out = append(out, next)
			used[c] = true
			grow(next, used)
			used[c] = false
		}
	}
	grow(nil, make([]bool, n))
	return out
}

// TestIsolatedBaselineIsAdmissionRun pins the equivalence Run's
// isolated baselines rest on: a program compiled for a.Subset(cores)
// runs alone on those cores of the full platform exactly as the
// compiler's admission run on the subset did, bit for bit, for the
// Table 2 models under Base and +Stratum on every ordered core subset.
// UNet is left out only for time: its 30 compiles take about 100 s,
// most of them on one core.
func TestIsolatedBaselineIsAdmissionRun(t *testing.T) {
	a := arch.Exynos2100Like()
	subsets := orderedSubsets(a.NumCores())
	if len(subsets) != 15 {
		t.Fatalf("%d ordered subsets of 3 cores, want 15", len(subsets))
	}
	for _, m := range models.All() {
		if m.Name == "UNet" {
			continue
		}
		g, err := models.Shared(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.Options{core.Base(), core.Stratum()} {
			for _, cores := range subsets {
				sub, err := a.Subset(cores)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Compile(g, sub, opt)
				if err != nil {
					t.Fatalf("%s %s %v: %v", m.Name, opt.Name(), cores, err)
				}
				admitted, err := res.Simulate(sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				alone, err := sim.RunConcurrent(a, []sim.Placement{{Program: res.Program, Cores: cores}}, sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if admitted.Stats.ProgramCycles[0] != alone.Stats.ProgramCycles[0] {
					t.Errorf("%s %s %v: admission run %v cycles, isolated run %v",
						m.Name, opt.Name(), cores, admitted.Stats.ProgramCycles[0], alone.Stats.ProgramCycles[0])
				}
				for i, c := range cores {
					if !reflect.DeepEqual(admitted.Stats.PerCore[i], alone.Stats.PerCore[c]) {
						t.Errorf("%s %s %v: core %d stats differ between admission and isolated runs",
							m.Name, opt.Name(), cores, c)
					}
				}
			}
		}
	}
}
