package stratum

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// convChain builds n stacked 3x3 SAME convolutions over a 64x64x32
// input — ideal stratum material.
func convChain(n int) *graph.Graph {
	g := graph.New("chain", tensor.Int8)
	prev := g.Input("input", tensor.NewShape(64, 64, 32))
	for i := 0; i < n; i++ {
		prev = g.MustAdd(
			"conv"+string(rune('a'+i)),
			ops.NewConv2D(3, 3, 1, 1, 32, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}),
			prev)
	}
	return g
}

func build(t *testing.T, g *graph.Graph, a *arch.Arch) (*Builder, []Stratum) {
	t.Helper()
	p := partition.New(g, a)
	plans := p.PlanAll()
	pred := func(l *graph.Layer) bool {
		d, _ := p.ChooseDirection(l)
		return d.Spatial()
	}
	order := schedule.New(g, pred).Order()
	b := New(g, a, plans, order)
	strata := b.Build()
	if err := b.Validate(strata); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return b, strata
}

func TestConvChainMerges(t *testing.T) {
	g := convChain(4)
	_, strata := build(t, g, arch.Exynos2100Like())
	// Four cheap stacked convs should merge into one stratum.
	if len(strata) != 1 {
		t.Fatalf("strata = %d, want 1 (got %v)", len(strata), strataSizes(strata))
	}
	s := strata[0]
	if s.Len() != 4 {
		t.Errorf("stratum size = %d", s.Len())
	}
	if s.RedundantMACs <= 0 {
		t.Error("merged stratum must record redundant compute")
	}
}

func TestHaloGrowsTowardTop(t *testing.T) {
	g := convChain(3)
	_, strata := build(t, g, arch.Exynos2100Like())
	if len(strata) != 1 {
		t.Fatalf("strata = %v", strataSizes(strata))
	}
	s := strata[0]
	// The middle core's expanded region must grow monotonically toward
	// the top layer: top layer carries the most redundancy.
	core := 1
	var prevRows int
	for i := len(s.Layers) - 1; i >= 0; i-- {
		rows := s.Expanded[s.Layers[i]][core].Ext.H
		if i < len(s.Layers)-1 && rows < prevRows {
			t.Errorf("layer %d rows %d < successor %d: halo must grow upward", i, rows, prevRows)
		}
		prevRows = rows
	}
	bottom := s.Expanded[s.Layers[len(s.Layers)-1]][core]
	top := s.Expanded[s.Layers[0]][core]
	if top.Ext.H <= bottom.Ext.H {
		t.Errorf("top rows %d <= bottom rows %d", top.Ext.H, bottom.Ext.H)
	}
}

func TestChannelLayerBreaksStratum(t *testing.T) {
	// conv -> depthwise(channel partitioned) -> conv: the channel
	// layer violates h7 and must split the chain.
	g := graph.New("mix", tensor.Int8)
	in := g.Input("input", tensor.NewShape(64, 64, 96))
	c1 := g.MustAdd("c1", ops.NewConv2D(3, 3, 1, 1, 96,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	dw := g.MustAdd("dw", ops.NewDepthwiseConv2D(3, 3, 1, 1,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), c1)
	g.MustAdd("c2", ops.NewConv2D(3, 3, 1, 1, 96,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), dw)

	b, strata := build(t, g, arch.Exynos2100Like())
	if b.Plans[dw].Direction != partition.DirChannel {
		t.Skip("depthwise not channel partitioned under current heuristics")
	}
	for _, s := range strata {
		for i, id := range s.Layers {
			if id == dw && s.Len() > 1 && i != 0 {
				t.Errorf("channel-partitioned layer merged below a stratum top: %v", strataSizes(strata))
			}
		}
	}
	if len(strata) < 2 {
		t.Errorf("expected chain broken into >= 2 strata, got %v", strataSizes(strata))
	}
}

func TestBranchBreaksStratum(t *testing.T) {
	// A layer with two users cannot merge (h6).
	g := graph.New("branch", tensor.Int8)
	in := g.Input("input", tensor.NewShape(32, 32, 16))
	a := g.MustAdd("a", ops.NewConv2D(3, 3, 1, 1, 16,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	b1 := g.MustAdd("b1", ops.NewConv2D(3, 3, 1, 1, 16,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), a)
	c1 := g.MustAdd("c1", ops.NewConv2D(3, 3, 1, 1, 16,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), a)
	g.MustAdd("add", ops.Add{Arity: 2}, b1, c1)

	_, strata := build(t, g, arch.Exynos2100Like())
	for _, s := range strata {
		for _, id := range s.Layers[:s.Len()-1] {
			if id == a {
				t.Error("multi-user layer a merged into a stratum above another layer")
			}
		}
	}
}

func TestSingleCoreNoMerge(t *testing.T) {
	// With one core there is no synchronization to save; h8's
	// sync_cost is 0, so no merge should happen.
	g := convChain(3)
	_, strata := build(t, g, arch.SingleCore())
	for _, s := range strata {
		if len(s.Layers) != 1 {
			t.Errorf("single-core stratum of %d layers; syncs are free, redundancy is not", s.Len())
		}
	}
}

func TestSPMNeedAndTrim(t *testing.T) {
	g := convChain(4)
	b, strata := build(t, g, arch.Exynos2100Like())
	if len(strata) != 1 {
		t.Fatalf("strata = %v", strataSizes(strata))
	}
	s := strata[0]
	need := b.SPMNeed(&s, 0)
	if need <= 0 {
		t.Fatal("SPMNeed must be positive")
	}
	// With ample SPM nothing is trimmed.
	out := b.TrimToFit(&s)
	if len(out) != 1 || out[0].Len() != s.Len() {
		t.Errorf("TrimToFit with ample SPM changed the stratum: %v", strataSizes(out))
	}
	// Shrink SPM below the requirement: top layers must split off.
	tiny := arch.Exynos2100Like()
	for i := range tiny.Cores {
		tiny.Cores[i].SPMBytes = need / 2
	}
	b2 := New(g, tiny, b.Plans, b.Order)
	out2 := b2.TrimToFit(&s)
	if len(out2) < 2 {
		t.Errorf("TrimToFit with tiny SPM did not trim: %v", strataSizes(out2))
	}
	total := 0
	for _, st := range out2 {
		total += st.Len()
	}
	if total != s.Len() {
		t.Errorf("TrimToFit lost layers: %d != %d", total, s.Len())
	}
	if err := b2.Validate(out2); err != nil {
		t.Errorf("trimmed strata invalid: %v", err)
	}
}

func TestExpensiveRedundancyStopsAccumulation(t *testing.T) {
	// Huge 7x7 convs with a massive channel count make per-layer halo
	// recompute much more expensive than one barrier.
	g := graph.New("fat", tensor.Int8)
	prev := g.Input("input", tensor.NewShape(36, 36, 512))
	for i := 0; i < 3; i++ {
		prev = g.MustAdd("conv"+string(rune('a'+i)),
			ops.NewConv2D(7, 7, 1, 1, 512, ops.Padding{Top: 3, Bottom: 3, Left: 3, Right: 3}),
			prev)
	}
	_, strata := build(t, g, arch.Exynos2100Like())
	for _, s := range strata {
		if s.Len() > 1 {
			t.Errorf("expensive layers merged (%v); h8 should refuse", strataSizes(strata))
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := convChain(3)
	b, strata := build(t, g, arch.Exynos2100Like())
	// Drop a layer.
	bad := []Stratum{{
		Layers:   strata[0].Layers[:1],
		Expanded: strata[0].Expanded,
	}}
	if err := b.Validate(bad); err == nil {
		t.Error("missing layers not caught")
	}
	// Empty stratum.
	if err := b.Validate([]Stratum{{}}); err == nil {
		t.Error("empty stratum not caught")
	}
}

func strataSizes(strata []Stratum) []int {
	sizes := make([]int, len(strata))
	for i, s := range strata {
		sizes[i] = s.Len()
	}
	return sizes
}
