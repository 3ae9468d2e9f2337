package tiling

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// convSub returns a spatially partitioned conv layer and its middle
// core's sub-layer.
func convSub(t *testing.T, h, w, c, outC int) (*graph.Graph, *graph.Layer, partition.Plan) {
	t.Helper()
	g := graph.New("t", tensor.Int8)
	in := g.Input("input", tensor.NewShape(h, w, c))
	id := g.MustAdd("conv", ops.NewConv2D(3, 3, 1, 1, outC,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	l := g.Layer(id)
	plan := partition.New(g, arch.Exynos2100Like()).PlanLayer(l)
	return g, l, plan
}

func TestTilesCoverSubLayer(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	for core, sub := range plan.Subs {
		tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, core, Options{Direction: plan.Direction})
		if err != nil {
			t.Fatalf("core %d: %v", core, err)
		}
		if err := Validate(&tp, sub); err != nil {
			t.Errorf("core %d: %v", core, err)
		}
	}
}

func TestPipeliningPrefersThreeTiles(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	sub := plan.Subs[0]
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Tiles) < 3 {
		t.Errorf("tiles = %d, want >= 3 for pipelining", len(tp.Tiles))
	}
	if tp.Axis != tensor.AxisH {
		t.Errorf("axis = %v, want H (match partition direction)", tp.Axis)
	}
}

func TestSPMPressureForcesMoreTiles(t *testing.T) {
	g, l, plan := convSub(t, 256, 256, 64, 64)
	small := arch.Exynos2100Like()
	for i := range small.Cores {
		small.Cores[i].SPMBytes = 256 << 10
	}
	big := arch.Exynos2100Like()
	for i := range big.Cores {
		big.Cores[i].SPMBytes = 64 << 20
	}
	sub := plan.Subs[0]
	tpSmall, err := New(small).PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	tpBig, err := New(big).PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	if len(tpSmall.Tiles) <= len(tpBig.Tiles) {
		t.Errorf("small SPM %d tiles, big SPM %d tiles; small must tile more",
			len(tpSmall.Tiles), len(tpBig.Tiles))
	}
}

func TestTooSmallSPMErrors(t *testing.T) {
	g, l, plan := convSub(t, 256, 256, 64, 64)
	tiny := arch.Exynos2100Like()
	for i := range tiny.Cores {
		tiny.Cores[i].SPMBytes = 1 << 10 // 1 KB: nothing fits
	}
	_, err := New(tiny).PlanSubLayer(l, g.InShapes(l), plan.Subs[0], 0, Options{Direction: plan.Direction})
	if err == nil {
		t.Error("expected SPM-fit error")
	}
}

func TestHaloFirstOrdering(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	sub := plan.Subs[1] // middle core: halo on both sides
	opt := Options{
		Direction: plan.Direction,
		HaloLo:    true, HaloHi: true,
		HaloWidth: 1,
		HaloFirst: true,
	}
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.HaloFirst {
		t.Fatal("HaloFirst not recorded")
	}
	if err := Validate(&tp, sub); err != nil {
		t.Fatal(err)
	}
	// All halo-producing tiles must precede all interior tiles.
	seenInterior := false
	haloCount := 0
	for _, tile := range tp.Tiles {
		if tile.ProducesHalo {
			haloCount++
			if seenInterior {
				t.Error("halo tile scheduled after interior tile")
			}
		} else {
			seenInterior = true
		}
	}
	if haloCount == 0 {
		t.Error("no halo tiles marked for middle core")
	}
	// Without halo-first, creation order is kept.
	tp2, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 1, Options{
		Direction: plan.Direction, HaloLo: true, HaloHi: true, HaloWidth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tile := range tp2.Tiles {
		if tile.Index != tp2.Tiles[0].Index+i {
			t.Error("natural order not preserved without halo-first")
			break
		}
	}
}

func TestEdgeCoreHaloOnlyOneSide(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	sub := plan.Subs[0] // top core: halo only below (toward core 1)
	opt := Options{Direction: plan.Direction, HaloHi: true, HaloWidth: 1, HaloFirst: true}
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	haloCount := 0
	for _, tile := range tp.Tiles {
		if tile.ProducesHalo {
			haloCount++
		}
	}
	if haloCount != 1 {
		t.Errorf("edge core halo tiles = %d, want 1", haloCount)
	}
}

func TestChannelTilingSplitsKernel(t *testing.T) {
	// Channel-partitioned depthwise layer tiles along C; every tile
	// carries its own kernel slice.
	g := graph.New("t", tensor.Int8)
	in := g.Input("input", tensor.NewShape(8, 8, 512))
	id := g.MustAdd("dw", ops.NewDepthwiseConv2D(3, 3, 1, 1,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	l := g.Layer(id)
	a := arch.Exynos2100Like()
	plan := partition.New(g, a).PlanLayer(l)
	if plan.Direction != partition.DirChannel {
		t.Skip("not channel partitioned")
	}
	tiler := New(a)
	sub := plan.Subs[0]
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Axis != tensor.AxisC {
		t.Fatalf("axis = %v, want C", tp.Axis)
	}
	var kb int64
	for _, tile := range tp.Tiles {
		if len(tp.Tiles) > 1 && tile.KernelBytes == 0 {
			t.Error("channel tile missing kernel slice")
		}
		kb += tile.KernelBytes
		// Channel tiles must respect the core's channel alignment
		// except possibly the last.
		if tile.Out.Ext.C%a.Cores[0].AlignC != 0 && tile.Out.End(tensor.AxisC) != sub.Out.End(tensor.AxisC) {
			t.Errorf("tile channels %d not aligned", tile.Out.Ext.C)
		}
	}
	if kb != sub.KernelBytes {
		t.Errorf("tile kernels sum %d != sub kernel %d", kb, sub.KernelBytes)
	}
}

func TestSpatialTilingSingleKernelGroup(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	sub := plan.Subs[0]
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	// Spatial tiling without channel pressure: one kernel group whose
	// slice is the whole kernel, shared by every tile.
	for _, tile := range tp.Tiles {
		if tile.CGroup != 0 {
			t.Errorf("tile %d in group %d; expected a single group", tile.Index, tile.CGroup)
		}
		if tile.KernelBytes != sub.KernelBytes {
			t.Errorf("tile kernel slice = %d, want full kernel %d", tile.KernelBytes, sub.KernelBytes)
		}
	}
}

func TestEmptySubLayer(t *testing.T) {
	g, l, _ := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), partition.SubLayer{Core: 0}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Tiles) != 0 {
		t.Errorf("empty sub-layer got %d tiles", len(tp.Tiles))
	}
	if err := Validate(&tp, partition.SubLayer{Core: 0}); err != nil {
		t.Error(err)
	}
}

func TestForwardedInputReducesSPMNeed(t *testing.T) {
	g, l, plan := convSub(t, 128, 128, 64, 64)
	a := arch.Exynos2100Like()
	tiler := New(a)
	sub := plan.Subs[0]
	plain, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{
		Direction: plan.Direction, ForwardedInput: []bool{true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fwd.Tiles) > len(plain.Tiles) {
		t.Errorf("forwarded input needed more tiles (%d > %d)", len(fwd.Tiles), len(plain.Tiles))
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	g, l, plan := convSub(t, 96, 96, 32, 64)
	tiler := New(arch.Exynos2100Like())
	sub := plan.Subs[0]
	tp, err := tiler.PlanSubLayer(l, g.InShapes(l), sub, 0, Options{Direction: plan.Direction})
	if err != nil {
		t.Fatal(err)
	}
	// Drop a tile: coverage broken.
	bad := Plan{Axis: tp.Axis, Tiles: tp.Tiles[1:]}
	if err := Validate(&bad, sub); err == nil {
		t.Error("missing tile not caught")
	}
	// Duplicate a tile: overlap.
	dup := Plan{Axis: tp.Axis, Tiles: append([]Tile{tp.Tiles[0]}, tp.Tiles...)}
	if err := Validate(&dup, sub); err == nil {
		t.Error("overlapping tiles not caught")
	}
}
