package ops

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func shape(h, w, c int) tensor.Shape { return tensor.NewShape(h, w, c) }

func mustOut(t *testing.T, op Op, in ...tensor.Shape) tensor.Shape {
	t.Helper()
	out, err := op.OutShape(in)
	if err != nil {
		t.Fatalf("%v.OutShape(%v): %v", op, in, err)
	}
	return out
}

func TestSamePad(t *testing.T) {
	// 299x299 s2 k3 "valid-ish" check via SAME: out = ceil(299/2) = 150.
	in := shape(299, 299, 3)
	pad := SamePad(in, 3, 3, 2, 2, 1, 1)
	conv := NewConv2D(3, 3, 2, 2, 32, pad)
	out := mustOut(t, conv, in)
	if out.H != 150 || out.W != 150 || out.C != 32 {
		t.Errorf("SAME conv out = %v, want 150x150x32", out)
	}
	// Stride 1: SAME preserves extent.
	pad1 := SamePad(in, 3, 3, 1, 1, 1, 1)
	out1 := mustOut(t, NewConv2D(3, 3, 1, 1, 8, pad1), in)
	if out1.H != 299 || out1.W != 299 {
		t.Errorf("SAME s1 out = %v, want 299x299", out1)
	}
}

func TestConvValidPadding(t *testing.T) {
	// InceptionV3 stem: 299x299x3 -> conv 3x3 s2 valid -> 149x149x32.
	conv := NewConv2D(3, 3, 2, 2, 32, Padding{})
	out := mustOut(t, conv, shape(299, 299, 3))
	if out != shape(149, 149, 32) {
		t.Errorf("out = %v, want 149x149x32", out)
	}
}

func TestConvOutShapeError(t *testing.T) {
	conv := NewConv2D(7, 7, 1, 1, 8, Padding{})
	if _, err := conv.OutShape([]tensor.Shape{shape(3, 3, 4)}); err == nil {
		t.Error("expected error: kernel larger than input")
	}
	if _, err := conv.OutShape(nil); err == nil {
		t.Error("expected arity error")
	}
}

func TestConvMACsAndKernel(t *testing.T) {
	conv := NewConv2D(3, 3, 1, 1, 16, Padding{})
	in := []tensor.Shape{shape(10, 10, 8)}
	out := mustOut(t, conv, in[0])
	wantMACs := out.Elems() * 3 * 3 * 8
	if got := conv.MACs(out, in); got != wantMACs {
		t.Errorf("MACs = %d, want %d", got, wantMACs)
	}
	// Full kernel: 3*3*8 weights + int32 bias per output channel.
	wantK := int64(16) * (3*3*8*1 + 4)
	if got := conv.KernelBytes(out, in, tensor.Int8); got != wantK {
		t.Errorf("KernelBytes = %d, want %d", got, wantK)
	}
	// Channel-partitioned extent takes half the kernel.
	half := out.WithDim(tensor.AxisC, 8)
	if got := conv.KernelBytes(half, in, tensor.Int8); got != wantK/2 {
		t.Errorf("half KernelBytes = %d, want %d", got, wantK/2)
	}
}

func TestConvInputRegionInterior(t *testing.T) {
	conv := NewConv2D(3, 3, 1, 1, 4, Padding{Top: 1, Bottom: 1, Left: 1, Right: 1})
	in := []tensor.Shape{shape(16, 16, 8)}
	out := tensor.Region{Off: shape(4, 4, 0), Ext: shape(4, 4, 4)}
	r := conv.InputRegion(out, 0, in)
	// rows 4..7 with pad 1 need input rows 3..8 (halo of 1 each side).
	if r.Off.H != 3 || r.Ext.H != 6 || r.Off.W != 3 || r.Ext.W != 6 {
		t.Errorf("InputRegion = %v, want [3:9,3:9,...]", r)
	}
	if r.Off.C != 0 || r.Ext.C != 8 {
		t.Errorf("conv must read all input channels, got %v", r)
	}
}

func TestConvInputRegionBorderClamps(t *testing.T) {
	conv := NewConv2D(3, 3, 1, 1, 4, Padding{Top: 1, Bottom: 1, Left: 1, Right: 1})
	in := []tensor.Shape{shape(16, 16, 8)}
	out := tensor.Region{Off: shape(0, 0, 0), Ext: shape(4, 16, 4)}
	r := conv.InputRegion(out, 0, in)
	// Top rows use zero padding, not halo: clamped at 0.
	if r.Off.H != 0 || r.Ext.H != 5 {
		t.Errorf("border InputRegion H = [%d,+%d], want [0,+5]", r.Off.H, r.Ext.H)
	}
}

func TestConvStrideDilationRegion(t *testing.T) {
	conv := Conv2D{KH: 3, KW: 3, StrideH: 2, StrideW: 2, DilH: 2, DilW: 2, OutC: 4}
	in := []tensor.Shape{shape(32, 32, 4)}
	out := tensor.Region{Off: shape(2, 2, 0), Ext: shape(2, 2, 4)}
	r := conv.InputRegion(out, 0, in)
	// i0 = 2*2 = 4; i1 = 3*2 + (3-1)*2 + 1 = 11.
	if r.Off.H != 4 || r.Ext.H != 7 {
		t.Errorf("strided/dilated region H = [%d,+%d], want [4,+7]", r.Off.H, r.Ext.H)
	}
}

func TestDepthwiseConv(t *testing.T) {
	dw := NewDepthwiseConv2D(3, 3, 1, 1, Padding{Top: 1, Bottom: 1, Left: 1, Right: 1})
	in := []tensor.Shape{shape(14, 14, 32)}
	out := mustOut(t, dw, in[0])
	if out != shape(14, 14, 32) {
		t.Errorf("out = %v", out)
	}
	if !dw.ChannelWise() {
		t.Error("depthwise must be channel-wise (h4)")
	}
	// Channel slice of output needs only the same channel slice of input.
	reg := tensor.Region{Off: shape(0, 0, 8), Ext: shape(14, 14, 8)}
	r := dw.InputRegion(reg, 0, in)
	if r.Off.C != 8 || r.Ext.C != 8 {
		t.Errorf("depthwise channel slice = %v", r)
	}
	if got := dw.MACs(out, in); got != out.Elems()*9 {
		t.Errorf("MACs = %d", got)
	}
}

func TestTransposeConvShape(t *testing.T) {
	// UNet up-conv: 2x2 stride 2 doubles the extent.
	up := TransposeConv2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2, OutC: 64}
	out := mustOut(t, up, shape(28, 28, 128))
	if out != shape(56, 56, 64) {
		t.Errorf("out = %v, want 56x56x64", out)
	}
}

func TestTransposeConvInputRegion(t *testing.T) {
	up := TransposeConv2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2, OutC: 8}
	in := []tensor.Shape{shape(10, 10, 4)}
	out := tensor.Region{Off: shape(4, 4, 0), Ext: shape(4, 4, 8)}
	r := up.InputRegion(out, 0, in)
	// Output rows 4..7 come from input rows 2..3 exactly (k=s=2).
	if r.Off.H != 2 || r.Ext.H != 2 {
		t.Errorf("region H = [%d,+%d], want [2,+2]", r.Off.H, r.Ext.H)
	}
	if r.Ext.C != 4 {
		t.Errorf("transpose conv must read all input channels: %v", r)
	}
}

func TestPooling(t *testing.T) {
	mp := MaxPool2D{KH: 3, KW: 3, StrideH: 2, StrideW: 2}
	out := mustOut(t, mp, shape(147, 147, 64))
	if out != shape(73, 73, 64) {
		t.Errorf("maxpool out = %v, want 73x73x64", out)
	}
	if !mp.ChannelWise() {
		t.Error("pooling must be channel-wise")
	}
	ap := AvgPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	out2 := mustOut(t, ap, shape(10, 10, 8))
	if out2 != shape(5, 5, 8) {
		t.Errorf("avgpool out = %v", out2)
	}
	if mp.KernelBytes(out, []tensor.Shape{shape(147, 147, 64)}, tensor.Int8) != 0 {
		t.Error("pooling has no kernel")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := GlobalAvgPool{}
	in := []tensor.Shape{shape(8, 8, 2048)}
	out := mustOut(t, g, in[0])
	if out != shape(1, 1, 2048) {
		t.Errorf("out = %v", out)
	}
	if g.SupportsPartition(tensor.AxisH) || g.SupportsPartition(tensor.AxisW) {
		t.Error("global pool must not support spatial partition (partial sums)")
	}
	if !g.SupportsPartition(tensor.AxisC) {
		t.Error("global pool must support channel partition")
	}
	reg := tensor.Region{Off: shape(0, 0, 100), Ext: shape(1, 1, 50)}
	r := g.InputRegion(reg, 0, in)
	if r.Ext.H != 8 || r.Ext.W != 8 || r.Off.C != 100 || r.Ext.C != 50 {
		t.Errorf("global pool region = %v", r)
	}
}

func TestFullyConnected(t *testing.T) {
	fc := FullyConnected{OutC: 1000}
	out := mustOut(t, fc, shape(1, 1, 2048))
	if out != shape(1, 1, 1000) {
		t.Errorf("out = %v", out)
	}
	if _, err := fc.OutShape([]tensor.Shape{shape(2, 2, 64)}); err == nil {
		t.Error("FC must reject non-1x1 input")
	}
	if fc.SupportsPartition(tensor.AxisH) {
		t.Error("FC has no spatial parallelism")
	}
	if got := fc.MACs(shape(1, 1, 500), []tensor.Shape{shape(1, 1, 2048)}); got != 500*2048 {
		t.Errorf("MACs = %d", got)
	}
}

func TestAddMulShapes(t *testing.T) {
	add := Add{Arity: 2}
	out := mustOut(t, add, shape(14, 14, 96), shape(14, 14, 96))
	if out != shape(14, 14, 96) {
		t.Errorf("out = %v", out)
	}
	if _, err := add.OutShape([]tensor.Shape{shape(14, 14, 96), shape(14, 14, 48)}); err == nil {
		t.Error("Add must reject mismatched shapes")
	}
	mul := Mul{}
	if _, err := mul.OutShape([]tensor.Shape{shape(14, 14, 96), shape(1, 1, 96)}); err != nil {
		t.Errorf("Mul broadcast rejected: %v", err)
	}
	if _, err := mul.OutShape([]tensor.Shape{shape(14, 14, 96), shape(7, 7, 96)}); err == nil {
		t.Error("Mul must reject incompatible shapes")
	}
	r := mul.InputRegion(tensor.Region{Off: shape(3, 3, 8), Ext: shape(2, 2, 4)}, 1,
		[]tensor.Shape{shape(14, 14, 96), shape(1, 1, 96)})
	if r.Ext.H != 1 || r.Ext.W != 1 || r.Off.C != 8 || r.Ext.C != 4 {
		t.Errorf("broadcast region = %v", r)
	}
}

func TestConcat(t *testing.T) {
	cat := Concat{Arity: 3}
	in := []tensor.Shape{shape(35, 35, 64), shape(35, 35, 64), shape(35, 35, 96)}
	out := mustOut(t, cat, in...)
	if out != shape(35, 35, 224) {
		t.Errorf("out = %v, want 35x35x224", out)
	}
	// Output channels [100:200) intersect input1 ([64:128)) at its [36:64).
	reg := tensor.Region{Off: shape(0, 0, 100), Ext: shape(35, 35, 100)}
	r := cat.InputRegion(reg, 1, in)
	if r.Off.C != 36 || r.Ext.C != 28 {
		t.Errorf("concat input1 region C = [%d,+%d], want [36,+28]", r.Off.C, r.Ext.C)
	}
	// Input 0 is fully below the range start at channel 100? [0:64) vs [100:200): empty.
	r0 := cat.InputRegion(reg, 0, in)
	if !r0.Empty() {
		t.Errorf("concat input0 region should be empty, got %v", r0)
	}
	if _, err := cat.OutShape([]tensor.Shape{shape(3, 3, 1), shape(4, 4, 1), shape(3, 3, 1)}); err == nil {
		t.Error("Concat must reject mismatched spatial dims")
	}
}

func TestSoftmax(t *testing.T) {
	sm := Softmax{}
	in := []tensor.Shape{shape(10, 10, 21)}
	if sm.SupportsPartition(tensor.AxisC) {
		t.Error("softmax cannot channel-partition")
	}
	if !sm.SupportsPartition(tensor.AxisH) {
		t.Error("softmax must spatial-partition")
	}
	reg := tensor.Region{Off: shape(2, 2, 5), Ext: shape(3, 3, 5)}
	r := sm.InputRegion(reg, 0, in)
	if r.Off.C != 0 || r.Ext.C != 21 {
		t.Errorf("softmax needs all channels, got %v", r)
	}
}

func TestResize(t *testing.T) {
	rz := Resize{ScaleH: 4, ScaleW: 4, Mode: Bilinear}
	out := mustOut(t, rz, shape(33, 33, 256))
	if out != shape(132, 132, 256) {
		t.Errorf("out = %v", out)
	}
	reg := tensor.Region{Off: shape(0, 0, 0), Ext: shape(66, 132, 256)}
	r := rz.InputRegion(reg, 0, []tensor.Shape{shape(33, 33, 256)})
	// rows 0..65 map to source rows 0..16, +1 bilinear neighbour = 0..17.
	if r.Off.H != 0 || r.Ext.H != 18 {
		t.Errorf("resize region H = [%d,+%d], want [0,+18]", r.Off.H, r.Ext.H)
	}
	if _, err := (Resize{ScaleH: 0, ScaleW: 1}).OutShape([]tensor.Shape{shape(4, 4, 4)}); err == nil {
		t.Error("Resize must reject scale < 1")
	}
}

func TestInputOp(t *testing.T) {
	in := Input{Shape: shape(224, 224, 3)}
	out := mustOut(t, in)
	if out != shape(224, 224, 3) {
		t.Errorf("out = %v", out)
	}
	if _, err := in.OutShape([]tensor.Shape{shape(1, 1, 1)}); err == nil {
		t.Error("Input must reject inputs")
	}
}

func TestKindAndOpStrings(t *testing.T) {
	pairs := []struct {
		op   Op
		want Kind
	}{
		{Input{}, KindInput},
		{Conv2D{}, KindConv2D},
		{DepthwiseConv2D{}, KindDepthwiseConv2D},
		{TransposeConv2D{}, KindTransposeConv2D},
		{MaxPool2D{}, KindMaxPool2D},
		{AvgPool2D{}, KindAvgPool2D},
		{GlobalAvgPool{}, KindGlobalAvgPool},
		{FullyConnected{}, KindFullyConnected},
		{Add{}, KindAdd},
		{Mul{}, KindMul},
		{Concat{}, KindConcat},
		{Activation{}, KindActivation},
		{Softmax{}, KindSoftmax},
		{Resize{}, KindResize},
	}
	for _, p := range pairs {
		if p.op.Kind() != p.want {
			t.Errorf("%T.Kind() = %v, want %v", p.op, p.op.Kind(), p.want)
		}
		if p.op.String() == "" || p.op.Kind().String() == "" {
			t.Errorf("%T has empty String", p.op)
		}
	}
}

// Property: for any conv geometry, the input region of an output region
// is contained in the input region of any enclosing output region, and
// the whole output maps within the input bounds.
func TestConvInputRegionMonotone(t *testing.T) {
	f := func(k, s, o0, oLen uint8) bool {
		kk := int(k%5) + 1
		ss := int(s%3) + 1
		conv := NewConv2D(kk, kk, ss, ss, 4, Padding{Top: kk / 2, Bottom: kk / 2, Left: kk / 2, Right: kk / 2})
		in := []tensor.Shape{shape(64, 64, 8)}
		outShape, err := conv.OutShape(in)
		if err != nil {
			return true
		}
		start := int(o0) % outShape.H
		length := int(oLen)%(outShape.H-start) + 1
		sub := tensor.Region{Off: shape(start, 0, 0), Ext: shape(length, outShape.W, outShape.C)}
		whole := tensor.WholeRegion(outShape)
		rSub := conv.InputRegion(sub, 0, in)
		rWhole := conv.InputRegion(whole, 0, in)
		return rWhole.Contains(rSub) && tensor.WholeRegion(in[0]).Contains(rWhole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: concat input regions across all inputs cover exactly the
// requested channel extent.
func TestConcatRegionsCover(t *testing.T) {
	f := func(c1, c2, c3, lo, ln uint8) bool {
		in := []tensor.Shape{
			shape(8, 8, int(c1%32)+1),
			shape(8, 8, int(c2%32)+1),
			shape(8, 8, int(c3%32)+1),
		}
		cat := Concat{Arity: 3}
		out, err := cat.OutShape(in)
		if err != nil {
			return false
		}
		start := int(lo) % out.C
		length := int(ln)%(out.C-start) + 1
		reg := tensor.Region{Off: shape(0, 0, start), Ext: shape(8, 8, length)}
		total := 0
		for i := range in {
			total += cat.InputRegion(reg, i, in).Ext.C
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
