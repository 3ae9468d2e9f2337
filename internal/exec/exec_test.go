package exec

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/stratum"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

func TestTensorBasics(t *testing.T) {
	a := NewTensor(tensor.NewShape(4, 4, 2))
	a.Set(1, 2, 1, 42)
	if a.At(1, 2, 1) != 42 {
		t.Error("Set/At roundtrip failed")
	}
	a.Fill(7)
	b := NewTensor(tensor.NewShape(4, 4, 2))
	b.Fill(7)
	if !a.Equal(b) {
		t.Error("same seed fills differ")
	}
	b.Fill(8)
	if a.Equal(b) {
		t.Error("different seed fills equal")
	}
	if a.Equal(NewTensor(tensor.NewShape(2, 2, 2))) {
		t.Error("different shapes equal")
	}
}

func TestViewPanicsOutsideRegion(t *testing.T) {
	full := NewTensor(tensor.NewShape(8, 8, 4))
	full.Fill(1)
	v := ViewOf(full, tensor.Region{Off: tensor.NewShape(2, 2, 0), Ext: tensor.NewShape(4, 4, 4)})
	if v.At(3, 3, 1) != full.At(3, 3, 1) {
		t.Error("view read differs from tensor")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic for out-of-view read")
		}
		if !strings.Contains(r.(string), "halo") {
			t.Errorf("panic message %v lacks halo hint", r)
		}
	}()
	v.At(0, 0, 0)
}

func TestWeightsDeterministicAndSliceable(t *testing.T) {
	w1 := WeightsFor(3)
	w2 := WeightsFor(3)
	if w1.Conv(5, 1, 1, 2, 3, 3, 8) != w2.Conv(5, 1, 1, 2, 3, 3, 8) {
		t.Error("same layer weights differ")
	}
	if w1.Bias(7) != w2.Bias(7) {
		t.Error("biases differ")
	}
	w3 := WeightsFor(4)
	same := true
	for i := 0; i < 16; i++ {
		if w1.W(int64(i)) != w3.W(int64(i)) {
			same = false
		}
	}
	if same {
		t.Error("different layers share weights")
	}
}

// validationGraph builds a network covering every operator kind.
func validationGraph() *graph.Graph {
	g := graph.New("validation", tensor.Int8)
	in := g.Input("input", tensor.NewShape(24, 24, 6))
	c1 := g.MustAdd("conv", ops.NewConv2D(3, 3, 1, 1, 16,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	r1 := g.MustAdd("relu", ops.Activation{Func: ops.ReLU}, c1)
	dw := g.MustAdd("dw", ops.NewDepthwiseConv2D(3, 3, 1, 1,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), r1)
	h1 := g.MustAdd("hswish", ops.Activation{Func: ops.HSwish}, dw)
	pw := g.MustAdd("pw", ops.NewConv2D(1, 1, 1, 1, 16, ops.Padding{}), h1)
	add := g.MustAdd("add", ops.Add{Arity: 2}, r1, pw)
	mp := g.MustAdd("maxpool", ops.MaxPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}, add)
	ap := g.MustAdd("avgpool", ops.AvgPool2D{KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		Pad: ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}}, mp)
	cat := g.MustAdd("concat", ops.Concat{Arity: 2}, mp, ap)
	crop := g.MustAdd("crop", ops.Crop{Top: 1, Bottom: 1, Left: 1, Right: 1}, cat)
	up := g.MustAdd("resize", ops.Resize{ScaleH: 2, ScaleW: 2, Mode: ops.Bilinear}, crop)
	dn := g.MustAdd("stride2", ops.NewConv2D(3, 3, 2, 2, 8,
		ops.SamePad(tensor.NewShape(20, 20, 32), 3, 3, 2, 2, 1, 1)), up)
	tc := g.MustAdd("upconv", ops.TransposeConv2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2, OutC: 8}, dn)
	sm := g.MustAdd("softmax", ops.Softmax{}, tc)
	gap := g.MustAdd("gap", ops.GlobalAvgPool{}, sm)
	se := g.MustAdd("mul", ops.Mul{}, sm, gap)
	gap2 := g.MustAdd("gap2", ops.GlobalAvgPool{}, se)
	fc := g.MustAdd("fc", ops.FullyConnected{OutC: 10}, gap2)
	g.MustAdd("sig", ops.Activation{Func: ops.Sigmoid}, fc)
	return g
}

func TestReferenceRunsAllOps(t *testing.T) {
	g := validationGraph()
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != g.Len() {
		t.Errorf("ref has %d tensors, want %d", len(ref), g.Len())
	}
	// The conv output must not be all zeros (weights and inputs are
	// nonzero pseudo-random values).
	conv, _ := g.LayerByName("conv")
	allZero := true
	for _, v := range ref[conv.ID].Data {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("conv output is all zeros")
	}
}

func TestPartitionedMatchesReference(t *testing.T) {
	g := validationGraph()
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []partition.Mode{partition.Adaptive, partition.ForceSpatial, partition.ForceChannel} {
		p := partition.New(g, arch.Exynos2100Like())
		p.Mode = mode
		if err := ValidatePartitioned(g, p.PlanAll(), ref); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestTiledMatchesReference(t *testing.T) {
	g := validationGraph()
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Exynos2100Like()
	p := partition.New(g, a)
	if err := ValidateTiled(g, p.PlanAll(), tiling.New(a), ref); err != nil {
		t.Error(err)
	}
}

func TestStrataMatchReference(t *testing.T) {
	// A conv chain where strata actually form.
	g := graph.New("chain", tensor.Int8)
	prev := g.Input("input", tensor.NewShape(48, 48, 8))
	for i := 0; i < 4; i++ {
		prev = g.MustAdd("conv"+string(rune('a'+i)),
			ops.NewConv2D(3, 3, 1, 1, 8, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), prev)
	}
	a := arch.Exynos2100Like()
	p := partition.New(g, a)
	plans := p.PlanAll()
	pred := func(l *graph.Layer) bool { return plans[l.ID].Direction.Spatial() }
	order := schedule.New(g, pred).Order()
	b := stratum.New(g, a, plans, order)
	strata := b.Build()
	merged := false
	for _, s := range strata {
		if s.Len() > 1 {
			merged = true
		}
	}
	if !merged {
		t.Skip("no multi-layer strata formed; nothing to validate")
	}
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateStrata(g, plans, strata, ref); err != nil {
		t.Error(err)
	}
}

func TestValidationCatchesCorruptedPlan(t *testing.T) {
	// Shrink a sub-layer's input region below the receptive field: the
	// view read must panic and surface as an error.
	g := graph.New("bad", tensor.Int8)
	in := g.Input("input", tensor.NewShape(16, 16, 4))
	g.MustAdd("conv", ops.NewConv2D(3, 3, 1, 1, 4,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	p := partition.New(g, arch.Exynos2100Like())
	plans := p.PlanAll()
	// Corrupt: remove the halo row from the middle core's input.
	for i := range plans[1].Subs {
		s := &plans[1].Subs[i]
		if s.Empty() || s.Out.Off.H == 0 {
			continue
		}
		s.In[0] = s.In[0].Grow(tensor.AxisH, -1, 0) // drop top halo row
		if err := ValidatePartitioned(g, plans, ref); err == nil {
			t.Fatal("corrupted halo not detected")
		}
		return
	}
	t.Skip("no middle core found")
}

func TestValidationCatchesWrongValues(t *testing.T) {
	// A plan whose regions are fine but whose stitched output is
	// tampered with must fail Equal — exercised by corrupting ref.
	g := graph.New("v", tensor.Int8)
	in := g.Input("input", tensor.NewShape(8, 8, 4))
	g.MustAdd("relu", ops.Activation{Func: ops.ReLU}, in)
	ref, err := RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	plans := partition.New(g, arch.Exynos2100Like()).PlanAll()
	ref[1].Data[0] += 1
	if err := ValidatePartitioned(g, plans, ref); err == nil {
		t.Fatal("value mismatch not detected")
	}
}

func TestActivationFunctions(t *testing.T) {
	cases := []struct {
		f    ops.ActFunc
		in   int32
		want int32
	}{
		{ops.ReLU, -5, 0},
		{ops.ReLU, 5, 5},
		{ops.ReLU6, 200, 96},
		{ops.ReLU6, -1, 0},
		{ops.ReLU6, 50, 50},
		{ops.HSwish, -100, 0},
		{ops.HSwish, 100, 100},
	}
	for _, c := range cases {
		if got := act(c.f, c.in); got != c.want {
			t.Errorf("act(%v, %d) = %d, want %d", c.f, c.in, got, c.want)
		}
	}
	// Sigmoid and TanH are monotone and bounded.
	prevSig, prevTanh := int32(-1<<30), int32(-1<<30)
	for x := int32(-100); x <= 100; x += 10 {
		s := act(ops.Sigmoid, x)
		th := act(ops.TanH, x)
		if s < prevSig || th < prevTanh {
			t.Errorf("non-monotone activation at %d", x)
		}
		if s < 0 || s > 64 || th < -64 || th > 64 {
			t.Errorf("activation out of bounds at %d: sig=%d tanh=%d", x, s, th)
		}
		prevSig, prevTanh = s, th
	}
}

// TestConvKernelsMatchPerWeightReads: the convolution kernels read each
// output channel's weights from rows generated once per call; every
// output must equal the sum that reads each weight through Conv, on a
// channel slice of the output (so the rows start mid-layer), for a
// grouped, a depthwise and a transposed convolution.
func TestConvKernelsMatchPerWeightReads(t *testing.T) {
	inShape := tensor.NewShape(9, 7, 8)
	in := NewTensor(inShape)
	in.Fill(7)
	view := WholeView(in)
	pad := ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}
	w := WeightsFor(11)
	cases := []struct {
		op   ops.Op
		want func(h, x, oc int) int32
	}{
		{ops.Conv2D{KH: 3, KW: 3, StrideH: 2, StrideW: 1, DilH: 1, DilW: 1, Pad: pad, OutC: 6, Groups: 2},
			func(h, x, oc int) int32 {
				acc := w.Bias(oc)
				for kh := 0; kh < 3; kh++ {
					for kw := 0; kw < 3; kw++ {
						for icg := 0; icg < 4; icg++ {
							acc += read(view, inShape, h*2-1+kh, x-1+kw, oc/3*4+icg) * w.Conv(oc, kh, kw, icg, 3, 3, 4)
						}
					}
				}
				return acc
			}},
		{ops.NewDepthwiseConv2D(3, 3, 1, 1, pad),
			func(h, x, oc int) int32 {
				acc := w.Bias(oc)
				for kh := 0; kh < 3; kh++ {
					for kw := 0; kw < 3; kw++ {
						acc += read(view, inShape, h-1+kh, x-1+kw, oc) * w.Conv(oc, kh, kw, 0, 3, 3, 1)
					}
				}
				return acc
			}},
		{ops.TransposeConv2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2, OutC: 5},
			func(h, x, oc int) int32 {
				return w.Bias(oc) + func() (acc int32) {
					for ic := 0; ic < inShape.C; ic++ {
						acc += in.At(h/2, x/2, ic) * w.Conv(oc, h%2, x%2, ic, 2, 2, inShape.C)
					}
					return acc
				}()
			}},
	}
	for _, tc := range cases {
		outShape, err := tc.op.OutShape([]tensor.Shape{inShape})
		if err != nil {
			t.Fatal(err)
		}
		out := tensor.WholeRegion(outShape)
		out.Off.C, out.Ext.C = 1, outShape.C-2
		got, err := Apply(tc.op, out, []*View{view}, []tensor.Shape{inShape}, w)
		if err != nil {
			t.Fatal(err)
		}
		forEach(out, func(h, x, c int) {
			if g, want := got.At(h, x, c), tc.want(h, x, c); g != want {
				t.Fatalf("%T at (%d,%d,%d) = %d, per-weight reads give %d", tc.op, h, x, c, g, want)
			}
		})
	}
}
