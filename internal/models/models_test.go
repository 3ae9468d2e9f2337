package models

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g := m.Build()
			if err := g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			ins := g.InputLayers()
			if len(ins) != 1 {
				t.Fatalf("inputs = %d", len(ins))
			}
			if ins[0].OutShape != m.Input {
				t.Errorf("input shape %v, want %v", ins[0].OutShape, m.Input)
			}
			if g.DType != m.DType {
				t.Errorf("dtype %v, want %v", g.DType, m.DType)
			}
			if g.TotalMACs() <= 0 || g.TotalKernelBytes() <= 0 {
				t.Error("zero MACs or weights")
			}
		})
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("UNet")
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "UNet" {
		t.Errorf("got %q", m.Name)
	}
	if _, err := ByName("ResNet-9000"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestInceptionV3Shapes(t *testing.T) {
	g := InceptionV3()
	cases := []struct {
		layer string
		shape tensor.Shape
	}{
		{"stem_conv1", tensor.NewShape(149, 149, 32)},
		{"stem_pool2", tensor.NewShape(35, 35, 192)},
		{"mixedA0_concat", tensor.NewShape(35, 35, 256)},
		{"mixedA2_concat", tensor.NewShape(35, 35, 288)},
		{"reductionA_concat", tensor.NewShape(17, 17, 768)},
		{"mixedC3_concat", tensor.NewShape(17, 17, 768)},
		{"reductionB_concat", tensor.NewShape(8, 8, 1280)},
		{"mixedE1_concat", tensor.NewShape(8, 8, 2048)},
		{"fc", tensor.NewShape(1, 1, 1000)},
	}
	for _, c := range cases {
		l, ok := g.LayerByName(c.layer)
		if !ok {
			t.Errorf("layer %q missing", c.layer)
			continue
		}
		if l.OutShape != c.shape {
			t.Errorf("%s: %v, want %v", c.layer, l.OutShape, c.shape)
		}
	}
	// ~5.7 GMACs for InceptionV3 at 299x299 (fused-BN INT8 deploy).
	macs := g.TotalMACs()
	if macs < 5e9 || macs > 7e9 {
		t.Errorf("InceptionV3 MACs = %.2fG, want ~5.7G", float64(macs)/1e9)
	}
}

func TestInceptionV3Stem(t *testing.T) {
	stem := InceptionV3Stem()
	if err := stem.Validate(); err != nil {
		t.Fatal(err)
	}
	outs := stem.OutputLayers()
	if len(outs) != 1 || outs[0].Name != "stem_pool2" {
		t.Errorf("stem output = %v", outs)
	}
	if stem.Len() >= InceptionV3().Len() {
		t.Error("stem not a strict prefix")
	}
}

func TestMobileNetV2Shapes(t *testing.T) {
	g := MobileNetV2()
	l, ok := g.LayerByName("conv_last_relu")
	if !ok {
		t.Fatal("conv_last missing")
	}
	if l.OutShape != tensor.NewShape(7, 7, 1280) {
		t.Errorf("final feature %v, want 7x7x1280", l.OutShape)
	}
	// ~0.3 GMACs for MobileNetV2.
	macs := g.TotalMACs()
	if macs < 2e8 || macs > 5e8 {
		t.Errorf("MobileNetV2 MACs = %.2fG, want ~0.3G", float64(macs)/1e9)
	}
}

func TestMobileNetV2SSDOutputs(t *testing.T) {
	g := MobileNetV2SSD()
	outs := g.OutputLayers()
	// Six scales, each with a class and a box head.
	if len(outs) != 12 {
		t.Errorf("SSD outputs = %d, want 12", len(outs))
	}
	l, ok := g.LayerByName("head0_cls")
	if !ok {
		t.Fatal("head0_cls missing")
	}
	if l.OutShape.H != 19 || l.OutShape.W != 19 {
		t.Errorf("first head at %v, want 19x19", l.OutShape)
	}
	last, ok := g.LayerByName("head5_box")
	if !ok {
		t.Fatal("head5_box missing")
	}
	if last.OutShape.H != 1 || last.OutShape.W != 1 {
		t.Errorf("last head at %v, want 1x1", last.OutShape)
	}
}

func TestMobileDetSSDOutputs(t *testing.T) {
	g := MobileDetSSD()
	outs := g.OutputLayers()
	if len(outs) != 12 {
		t.Errorf("outputs = %d, want 12", len(outs))
	}
	l, ok := g.LayerByName("head0_cls")
	if !ok {
		t.Fatal("head0_cls missing")
	}
	if l.OutShape.H != 20 || l.OutShape.W != 20 {
		t.Errorf("first head at %v, want 20x20", l.OutShape)
	}
}

func TestDeepLabShapes(t *testing.T) {
	g := DeepLabV3Plus()
	if g.DType != tensor.Int16 {
		t.Error("DeepLabV3+ must be INT16")
	}
	aspp, ok := g.LayerByName("aspp_concat")
	if !ok {
		t.Fatal("aspp_concat missing")
	}
	if aspp.OutShape != tensor.NewShape(33, 33, 1280) {
		t.Errorf("ASPP concat %v, want 33x33x1280", aspp.OutShape)
	}
	sm, ok := g.LayerByName("softmax")
	if !ok {
		t.Fatal("softmax missing")
	}
	if sm.OutShape != tensor.NewShape(513, 513, 21) {
		t.Errorf("output %v, want 513x513x21", sm.OutShape)
	}
}

func TestUNetShapes(t *testing.T) {
	g := UNet()
	cases := []struct {
		layer string
		shape tensor.Shape
	}{
		{"enc0_conv2_relu", tensor.NewShape(568, 568, 64)},
		{"enc3_conv2_relu", tensor.NewShape(64, 64, 512)},
		{"mid_conv2_relu", tensor.NewShape(28, 28, 1024)},
		{"dec3_up", tensor.NewShape(56, 56, 512)},
		{"dec0_conv2_relu", tensor.NewShape(388, 388, 64)},
		{"softmax", tensor.NewShape(388, 388, 2)},
	}
	for _, c := range cases {
		l, ok := g.LayerByName(c.layer)
		if !ok {
			t.Errorf("layer %q missing", c.layer)
			continue
		}
		if l.OutShape != c.shape {
			t.Errorf("%s: %v, want %v", c.layer, l.OutShape, c.shape)
		}
	}
}

func TestSmallModels(t *testing.T) {
	g := TinyCNN()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := ConvChain(4, 32, 32, 16)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 5 { // input + 4 convs
		t.Errorf("chain len = %d", c.Len())
	}
}

func TestShared(t *testing.T) {
	for _, m := range append(All(), Extra()...) {
		g, err := Shared(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := Shared(m.Name)
		if again != g {
			t.Errorf("%s: Shared built the graph twice", m.Name)
		}
		if !reflect.DeepEqual(g, m.Build()) {
			t.Errorf("%s: shared graph differs from a fresh build", m.Name)
		}
	}
	if _, err := Shared("ResNet-9000"); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestSharedConcurrent: concurrent first calls build once and all
// see the same graph (run with -race).
func TestSharedConcurrent(t *testing.T) {
	const n = 8
	got := make([]*graph.Graph, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := Shared("ShuffleNetV2")
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}()
	}
	wg.Wait()
	for _, g := range got[1:] {
		if g != got[0] {
			t.Fatal("concurrent Shared calls returned different graphs")
		}
	}
}
