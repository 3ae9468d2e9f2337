package metrics

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/sim"
)

// This file holds the observability layer's standing invariants — the
// cross-checks future perf PRs must keep green (ISSUE 4 acceptance):
//
//   - per-core exclusive utilization fractions sum to 1.0 +/- 1e-9;
//   - the raw engine sums reproduce sim.CoreStats exactly and the
//     exclusive idle matches the engine's busy-interval accounting;
//   - SPM high-water marks stay within arch capacity on EVERY model:
//     the compile driver's admission check and fallback chain guarantee
//     an in-budget schedule (the former UNet/DeepLabV3+ exemptions are
//     gone — those nets now re-tile until they fit);
//   - the bus series never grants above the ceiling or above demand;
//
// on all Table 2 models under all four fault plans of the equivalence
// matrix.

var (
	invOnce     sync.Once
	invCompiled []struct {
		name string
		res  *core.Result
	}
)

func compiledTable2(t *testing.T) []struct {
	name string
	res  *core.Result
} {
	t.Helper()
	invOnce.Do(func() {
		a := arch.Exynos2100Like()
		for _, m := range models.All() {
			res, err := core.Compile(m.Build(), a, core.Stratum())
			if err != nil {
				panic(fmt.Sprintf("compile %s: %v", m.Name, err))
			}
			invCompiled = append(invCompiled, struct {
				name string
				res  *core.Result
			}{m.Name, res})
		}
	})
	return invCompiled
}

// faultPlans mirrors the sim equivalence matrix: fault-free, drops,
// throttles+drops, and a mid-run core death.
func faultPlans(killCycle float64) []struct {
	name string
	plan *fault.Plan
} {
	return []struct {
		name string
		plan *fault.Plan
	}{
		{"none", nil},
		{"drop", &fault.Plan{Seed: 7, DropRate: 0.01}},
		{"throttle-drop", &fault.Plan{
			Seed:     11,
			DropRate: 0.005,
			Throttles: []fault.Throttle{
				{Core: 1, AtCycle: killCycle * 0.2, Factor: 0.5},
				{Core: 0, AtCycle: killCycle * 0.5, Factor: 0.25},
				{Core: 1, AtCycle: killCycle * 0.8, Factor: 1},
			},
		}},
		{"kill", &fault.Plan{Seed: 3, Deaths: []fault.Death{{Core: 2, AtCycle: killCycle * 0.4}}}},
	}
}

func TestInvariantsTable2(t *testing.T) {
	a := arch.Exynos2100Like()
	for _, cm := range compiledTable2(t) {
		base, err := sim.Run(cm.res.Program, sim.Config{})
		if err != nil {
			t.Fatalf("%s: %v", cm.name, err)
		}
		for _, fp := range faultPlans(base.Stats.TotalCycles) {
			t.Run(cm.name+"/"+fp.name, func(t *testing.T) {
				col := &Collector{}
				out, err := sim.Run(cm.res.Program, sim.Config{Faults: fp.plan, Hook: col})
				var stats *sim.Stats
				if err != nil {
					var cf *sim.CoreFailure
					if !errors.As(err, &cf) {
						t.Fatal(err)
					}
					stats = &cf.Partial
				} else {
					stats = &out.Stats
				}
				cores := make([]int, a.NumCores())
				for i := range cores {
					cores[i] = i
				}
				placements := []sim.Placement{{Program: cm.res.Program, Cores: cores}}
				rep := BuildReport(a, placements, stats, col)
				rep.AttachCompile(cm.res)

				// The full cross-check: fraction sums, engine-sum identity,
				// idle agreement, truthful SPM reports.
				if err := rep.CrossCheck(a, stats, 1e-3); err != nil {
					t.Fatal(err)
				}

				// SPM capacity is a hard bound on every model: the
				// admission check and fallback chain guarantee it.
				for _, sp := range rep.SPM {
					if !sp.Fits {
						t.Errorf("core %d SPM high-water %d exceeds capacity %d",
							sp.Core, sp.PeakBytes, sp.CapacityBytes)
					}
				}

				// Bus series sanity: grants never exceed the ceiling (eps
				// for water-filling float error) or demand, and time only
				// moves forward.
				const eps = 1e-6
				for i, pt := range rep.Bus.Series {
					if pt.Granted > a.BusBytesPerCycle+eps {
						t.Errorf("bus point %d grants %.3f above ceiling %.3f", i, pt.Granted, a.BusBytesPerCycle)
					}
					if pt.Granted > pt.Demand+eps {
						t.Errorf("bus point %d grants %.3f above demand %.3f", i, pt.Granted, pt.Demand)
					}
					if i > 0 && pt.At < rep.Bus.Series[i-1].At {
						t.Errorf("bus point %d goes back in time", i)
					}
				}
				if rep.Bus.BusyCycles > stats.TotalCycles+eps {
					t.Errorf("bus busy %.1f exceeds run length %.1f", rep.Bus.BusyCycles, stats.TotalCycles)
				}
				if rep.Bus.ContendedCycles > rep.Bus.BusyCycles+eps {
					t.Errorf("contended %.1f exceeds busy %.1f", rep.Bus.ContendedCycles, rep.Bus.BusyCycles)
				}

				// A completed fault-free run keeps every core productive:
				// nonzero compute everywhere and fractions that account for
				// real work.
				if err == nil {
					for _, cr := range rep.Cores {
						if cr.Exclusive.Compute <= 0 {
							t.Errorf("core %d attributed no compute", cr.Core)
						}
						if cr.Exclusive.Idle < 0 {
							t.Errorf("core %d negative idle %v", cr.Core, cr.Exclusive.Idle)
						}
					}
				}
			})
		}
	}
}

// A failed run's SPM report is the engine's partial high-water mark,
// and it counts buffers still in flight when the core died — which a
// profile rebuilt from the hook's finished-instruction samples misses.
func TestSPMReportOnCoreFailure(t *testing.T) {
	a := arch.Exynos2100Like()
	var res *core.Result
	for _, cm := range compiledTable2(t) {
		if cm.name == "MobileNetV2" {
			res = cm.res
		}
	}
	p := res.Program
	base, err := sim.Run(p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const dead = 1
	col := &Collector{}
	kill := &fault.Plan{Deaths: []fault.Death{{Core: dead, AtCycle: base.Stats.TotalCycles / 2}}}
	_, err = sim.Run(p, sim.Config{Faults: kill, Hook: col})
	var cf *sim.CoreFailure
	if !errors.As(err, &cf) {
		t.Fatalf("got %v, want *sim.CoreFailure", err)
	}
	rep := BuildReport(a, []sim.Placement{{Program: p, Cores: []int{0, 1, 2}}}, &cf.Partial, col)
	if err := rep.CrossCheck(a, &cf.Partial, 1e-3); err != nil {
		t.Fatal(err)
	}
	for _, sp := range rep.SPM {
		st := cf.Partial.PerCore[sp.Core]
		if sp.PeakBytes != st.SPMPeakBytes || sp.PeakAtCycle != st.SPMPeakAtCycle || sp.Buffers != st.SPMBuffers {
			t.Errorf("core %d: report peak %d at %v across %d buffers, partial stats %d at %v across %d",
				sp.Core, sp.PeakBytes, sp.PeakAtCycle, sp.Buffers, st.SPMPeakBytes, st.SPMPeakAtCycle, st.SPMBuffers)
		}
	}
	finished := 0
	for _, s := range col.Instrs {
		if s.Core != dead {
			continue
		}
		in := &p.Cores[dead][s.Index]
		if (in.Op == plan.LoadInput || in.Op == plan.LoadKernel || in.Op == plan.LoadHalo) && in.Bytes > 0 ||
			in.Op == plan.Compute && in.OutBytes > 0 {
			finished++
		}
	}
	if got := rep.SPM[dead].Buffers; got <= finished {
		t.Errorf("dead core reports %d buffers, no more than the %d whose owners finished", got, finished)
	}
}

// TestInvariantsConcurrentPlacements extends the cross-checks to a
// two-program RunConcurrent partition of the platform, exercising the
// per-placement SPM rows over global cores.
func TestInvariantsConcurrentPlacements(t *testing.T) {
	a := arch.Exynos2100Like()
	sub01, err := a.Subset([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := a.Subset([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := core.Compile(models.ByNameMust("MobileNetV2"), sub01, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.Compile(models.TinyCNN(), sub2, core.Base())
	if err != nil {
		t.Fatal(err)
	}
	placements := []sim.Placement{
		{Program: resA.Program, Cores: []int{0, 1}},
		{Program: resB.Program, Cores: []int{2}},
	}
	col := &Collector{}
	out, err := sim.RunConcurrent(a, placements, sim.Config{Hook: col})
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(a, placements, &out.Stats, col)
	if err := rep.CrossCheck(a, &out.Stats, 1e-3); err != nil {
		t.Fatal(err)
	}
	if len(rep.SPM) != 3 {
		t.Fatalf("%d SPM reports for 3 placed cores", len(rep.SPM))
	}
	seen := map[int]int{}
	for _, sp := range rep.SPM {
		seen[sp.Core]++
		if sp.PeakBytes <= 0 {
			t.Errorf("core %d: empty SPM profile", sp.Core)
		}
	}
	for c := 0; c < 3; c++ {
		if seen[c] != 1 {
			t.Fatalf("core %d appears %d times in SPM reports", c, seen[c])
		}
	}
	// Layer reports must separate the two placements.
	var p0, p1 bool
	for _, lr := range rep.Layers {
		switch lr.Placement {
		case 0:
			p0 = true
		case 1:
			p1 = true
		}
	}
	if !p0 || !p1 {
		t.Fatalf("layer reports missing a placement: p0=%v p1=%v", p0, p1)
	}
}
