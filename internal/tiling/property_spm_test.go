package tiling_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// SPM-capacity properties of the tiler and the compile driver's
// fallback chain (external test package: the end-to-end properties
// need core and sim, which import tiling).

// Property: a scaled-down budget is a soft target. For random conv
// geometries and random budgets at or below the core's physical SPM,
// PlanSubLayer either produces a plan or fails with a typed
// *CannotFitError whose MinNeed exceeds the physical capacity — i.e.
// only hardware-unfittable geometries are rejected; a merely-missed
// soft budget still plans (at the minimum-footprint grid) and leaves
// the verdict to the simulator admission check.
func TestSoftBudgetOnlyRejectsHardwareUnfit(t *testing.T) {
	f := func(hRaw, cRaw, outCRaw, spmRaw, budRaw, kSel uint8) bool {
		h := int(hRaw%96) + 8
		c := int(cRaw%48) + 1
		outC := (int(outCRaw%32) + 1) * 4
		k := []int{1, 3, 5}[int(kSel)%3]
		pad := k / 2

		g := graph.New("q", tensor.Int8)
		in := g.Input("input", tensor.NewShape(h, h, c))
		id, err := g.Add("conv", ops.NewConv2D(k, k, 1, 1, outC,
			ops.Padding{Top: pad, Bottom: pad, Left: pad, Right: pad}), in)
		if err != nil {
			return true
		}
		l := g.Layer(id)

		a := arch.Exynos2100Like()
		hard := int64(64<<10) << (spmRaw % 6) // 64KB .. 2MB
		for i := range a.Cores {
			a.Cores[i].SPMBytes = hard
		}
		// Budget between 10% and 100% of the physical capacity.
		budget := hard * int64(budRaw%91+10) / 100

		plans := partition.New(g, a).PlanAll()
		tiler := tiling.New(a)
		inShapes := g.InShapes(l)
		for coreID, sub := range plans[id].Subs {
			if sub.Empty() {
				continue
			}
			_, err := tiler.PlanSubLayer(l, inShapes, sub, coreID, tiling.Options{
				Direction: plans[id].Direction,
				Budget:    budget,
			})
			if err == nil {
				continue
			}
			var cf *tiling.CannotFitError
			if !errors.As(err, &cf) {
				return false // failures must be typed
			}
			if cf.MinNeed <= hard {
				return false // soft budget rejected a hardware-fittable grid
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the fallback chain always terminates, and its two outcomes
// are exactly "admissible schedule" or "typed *core.UnfitError". When
// it produces a schedule, the liveness-exact peak measured by the
// reference engine — an implementation independent of the event engine
// that admitted the schedule — fits every core's capacity.
func TestFallbackChainTerminatesAdmissibly(t *testing.T) {
	f := func(hRaw, cRaw, depthRaw, spmRaw uint8, widths [4]uint8) bool {
		h := int(hRaw%48) + 16
		c := int(cRaw%16) + 1
		depth := int(depthRaw%4) + 1

		g := graph.New("q", tensor.Int8)
		prev := g.Input("input", tensor.NewShape(h, h, c))
		for d := 0; d < depth; d++ {
			outC := (int(widths[d]%24) + 1) * 4
			id, err := g.Add(fmt.Sprintf("conv%d", d), ops.NewConv2D(3, 3, 1, 1, outC,
				ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), prev)
			if err != nil {
				return true
			}
			prev = id
		}

		a := arch.Exynos2100Like()
		// 16KB .. 512KB: small enough that the chain's deeper rungs and
		// the terminal UnfitError both get exercised.
		cap := int64(16<<10) << (spmRaw % 6)
		for i := range a.Cores {
			a.Cores[i].SPMBytes = cap
		}

		res, err := core.Compile(g, a, core.Stratum())
		if err != nil {
			var uf *core.UnfitError
			return errors.As(err, &uf)
		}
		if _, err := sim.Run(res.Program, sim.Config{}); err != nil {
			return false // admitted schedules must simulate cleanly
		}
		ref, err := sim.RunReference(res.Program, sim.Config{})
		if err != nil {
			return false
		}
		for c, cs := range ref.Stats.PerCore {
			if cs.SPMPeakBytes > a.Cores[c].SPMBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: an injected over-budget schedule fails admission the same
// way everywhere — both engines return a *SPMOverflowError, the two
// errors agree on every field, and repeated runs reproduce them
// exactly.
func TestOverBudgetScheduleDeterministicOnBothEngines(t *testing.T) {
	a := arch.Exynos2100Like()
	g := graph.New("q", tensor.Int8)
	in := g.Input("input", tensor.NewShape(56, 56, 16))
	prev := in
	for d := 0; d < 2; d++ {
		id, err := g.Add(fmt.Sprintf("conv%d", d), ops.NewConv2D(3, 3, 1, 1, 32,
			ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	res, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	// Measure the schedule's real peak, then cap the cores below it: the
	// fixed schedule is over-budget by construction and the admission
	// check must trip.
	out, err := sim.RunReference(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var peak int64
	for _, cs := range out.Stats.PerCore {
		if cs.SPMPeakBytes > peak {
			peak = cs.SPMPeakBytes
		}
	}
	for _, capacity := range []int64{peak - 1, peak / 2, peak / 4, peak / 16} {
		for i := range res.Program.Arch.Cores {
			res.Program.Arch.Cores[i].SPMBytes = capacity
		}
		overflow := func(run func() error) *sim.SPMOverflowError {
			t.Helper()
			err := run()
			var oe *sim.SPMOverflowError
			if !errors.As(err, &oe) {
				t.Fatalf("capacity %d: got %v, want *sim.SPMOverflowError", capacity, err)
			}
			return oe
		}
		ev1 := overflow(func() error { _, err := sim.Run(res.Program, sim.Config{}); return err })
		ev2 := overflow(func() error { _, err := sim.Run(res.Program, sim.Config{}); return err })
		ref := overflow(func() error { _, err := sim.RunReference(res.Program, sim.Config{}); return err })
		for _, got := range []*sim.SPMOverflowError{ev2, ref} {
			if got.Core != ev1.Core || got.Cycle != ev1.Cycle ||
				got.LiveBytes != ev1.LiveBytes || got.CapacityBytes != ev1.CapacityBytes ||
				len(got.Buffers) != len(ev1.Buffers) {
				t.Errorf("capacity %d: engines disagree: %v vs %v", capacity, got, ev1)
			}
		}
	}
	// Restore the shared arch fields for any test that might reuse it.
	for i := range res.Program.Arch.Cores {
		res.Program.Arch.Cores[i].SPMBytes = arch.Exynos2100Like().Cores[i].SPMBytes
	}
}
