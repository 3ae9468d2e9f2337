// Package models builds the six benchmark CNNs of the paper's Table 2
// as layer graphs, plus small synthetic networks used by tests and
// examples.
//
// The graphs are structurally faithful reconstructions from the
// networks' published architectures (layer kinds, kernel geometries,
// channel widths, branch structure). Weights are irrelevant here — the
// paper's evaluation is latency, not accuracy — so none are attached.
package models

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Info describes one benchmark model (a Table 2 row).
type Info struct {
	// Name is the model's common name.
	Name string
	// Category is the task family in Table 2.
	Category string
	// Input is the network input shape (HxWxC).
	Input tensor.Shape
	// DType is the quantized element type the paper runs the model in.
	DType tensor.DType
	// Build constructs the layer graph.
	Build func() *graph.Graph
}

// All returns the benchmark models in Table 2 order.
func All() []Info {
	return []Info{
		{Name: "InceptionV3", Category: "Classification", Input: tensor.NewShape(299, 299, 3), DType: tensor.Int8, Build: InceptionV3},
		{Name: "MobileNetV2", Category: "Classification", Input: tensor.NewShape(224, 224, 3), DType: tensor.Int8, Build: MobileNetV2},
		{Name: "MobileNetV2-SSD", Category: "Object detection", Input: tensor.NewShape(300, 300, 3), DType: tensor.Int8, Build: MobileNetV2SSD},
		{Name: "MobileDet-SSD", Category: "Object detection", Input: tensor.NewShape(320, 320, 3), DType: tensor.Int8, Build: MobileDetSSD},
		{Name: "DeepLabV3+", Category: "Segmentation", Input: tensor.NewShape(513, 513, 3), DType: tensor.Int16, Build: DeepLabV3Plus},
		{Name: "UNet", Category: "Segmentation", Input: tensor.NewShape(572, 572, 3), DType: tensor.Int8, Build: UNet},
	}
}

// ByName returns the model with the given name, searching the Table 2
// benchmarks first and then the extra zoo (ResNet50, VGG16).
func ByName(name string) (Info, error) {
	for _, m := range append(All(), Extra()...) {
		if m.Name == name {
			return m, nil
		}
	}
	return Info{}, fmt.Errorf("models: unknown model %q", name)
}

// shared holds one lazily built graph per model name.
var shared = func() map[string]func() *graph.Graph {
	m := map[string]func() *graph.Graph{}
	for _, info := range append(All(), Extra()...) {
		m[info.Name] = sync.OnceValue(info.Build)
	}
	return m
}()

// Shared returns the named model's graph, built once per process and
// handed to every caller. The graph is shared, so it must not be
// modified: compiling, simulating, recovering and fingerprinting only
// read it. Use Info.Build for a private graph.
func Shared(name string) (*graph.Graph, error) {
	build, ok := shared[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q", name)
	}
	return build(), nil
}

// ByNameMust builds the benchmark model with the given name, panicking
// on an unknown name. For tests and benchmarks.
func ByNameMust(name string) *graph.Graph {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m.Build()
}

// builder wraps a graph with convenience layer constructors that fold
// batch-norm into convolution (as deployed INT8 models do) and name
// layers hierarchically.
type builder struct {
	g *graph.Graph
}

func newBuilder(name string, dt tensor.DType) *builder {
	return &builder{g: graph.New(name, dt)}
}

func (b *builder) input(s tensor.Shape) graph.LayerID {
	return b.g.Input("input", s)
}

func (b *builder) shape(id graph.LayerID) tensor.Shape { return b.g.Layer(id).OutShape }

// conv adds a convolution with SAME padding and a fused ReLU.
func (b *builder) conv(name string, in graph.LayerID, k, stride, outC int) graph.LayerID {
	s := b.shape(in)
	c := b.g.MustAdd(name, ops.NewConv2D(k, k, stride, stride, outC,
		ops.SamePad(s, k, k, stride, stride, 1, 1)), in)
	return b.g.MustAdd(name+"_relu", ops.Activation{Func: ops.ReLU}, c)
}

// convValid adds a VALID-padded convolution with a fused ReLU.
func (b *builder) convValid(name string, in graph.LayerID, k, stride, outC int) graph.LayerID {
	c := b.g.MustAdd(name, ops.NewConv2D(k, k, stride, stride, outC, ops.Padding{}), in)
	return b.g.MustAdd(name+"_relu", ops.Activation{Func: ops.ReLU}, c)
}

// convLinear adds a SAME-padded convolution without activation
// (projection layers in inverted residuals).
func (b *builder) convLinear(name string, in graph.LayerID, k, stride, outC int) graph.LayerID {
	s := b.shape(in)
	return b.g.MustAdd(name, ops.NewConv2D(k, k, stride, stride, outC,
		ops.SamePad(s, k, k, stride, stride, 1, 1)), in)
}

// convRect adds a SAME-padded rectangular convolution (Inception 1x7
// and 7x1 factorizations) with ReLU.
func (b *builder) convRect(name string, in graph.LayerID, kh, kw, outC int) graph.LayerID {
	s := b.shape(in)
	c := b.g.MustAdd(name, ops.NewConv2D(kh, kw, 1, 1, outC,
		ops.SamePad(s, kh, kw, 1, 1, 1, 1)), in)
	return b.g.MustAdd(name+"_relu", ops.Activation{Func: ops.ReLU}, c)
}

// dwconv adds a SAME-padded depthwise convolution with ReLU6.
func (b *builder) dwconv(name string, in graph.LayerID, k, stride int) graph.LayerID {
	s := b.shape(in)
	c := b.g.MustAdd(name, ops.NewDepthwiseConv2D(k, k, stride, stride,
		ops.SamePad(s, k, k, stride, stride, 1, 1)), in)
	return b.g.MustAdd(name+"_relu", ops.Activation{Func: ops.ReLU6}, c)
}

// dwconvDilated adds a dilated depthwise convolution (DeepLab atrous).
func (b *builder) dwconvDilated(name string, in graph.LayerID, k, dil int) graph.LayerID {
	s := b.shape(in)
	op := ops.DepthwiseConv2D{KH: k, KW: k, StrideH: 1, StrideW: 1, DilH: dil, DilW: dil,
		Pad: ops.SamePad(s, k, k, 1, 1, dil, dil)}
	c := b.g.MustAdd(name, op, in)
	return b.g.MustAdd(name+"_relu", ops.Activation{Func: ops.ReLU6}, c)
}

// maxpool adds a max-pooling layer.
func (b *builder) maxpool(name string, in graph.LayerID, k, stride int) graph.LayerID {
	return b.g.MustAdd(name, ops.MaxPool2D{KH: k, KW: k, StrideH: stride, StrideW: stride}, in)
}

// maxpoolSame adds SAME-padded max pooling (Inception branch pools).
func (b *builder) maxpoolSame(name string, in graph.LayerID, k, stride int) graph.LayerID {
	s := b.shape(in)
	return b.g.MustAdd(name, ops.MaxPool2D{KH: k, KW: k, StrideH: stride, StrideW: stride,
		Pad: ops.SamePad(s, k, k, stride, stride, 1, 1)}, in)
}

// avgpoolSame adds SAME-padded average pooling.
func (b *builder) avgpoolSame(name string, in graph.LayerID, k, stride int) graph.LayerID {
	s := b.shape(in)
	return b.g.MustAdd(name, ops.AvgPool2D{KH: k, KW: k, StrideH: stride, StrideW: stride,
		Pad: ops.SamePad(s, k, k, stride, stride, 1, 1)}, in)
}

// concat concatenates branches along channels.
func (b *builder) concat(name string, ins ...graph.LayerID) graph.LayerID {
	return b.g.MustAdd(name, ops.Concat{Arity: len(ins)}, ins...)
}

// add sums two branches.
func (b *builder) add(name string, x, y graph.LayerID) graph.LayerID {
	return b.g.MustAdd(name, ops.Add{Arity: 2}, x, y)
}

// classifierHead appends global pooling, a fully connected layer, and
// softmax.
func (b *builder) classifierHead(in graph.LayerID, classes int) {
	gap := b.g.MustAdd("gap", ops.GlobalAvgPool{}, in)
	fc := b.g.MustAdd("fc", ops.FullyConnected{OutC: classes}, gap)
	b.g.MustAdd("softmax", ops.Softmax{}, fc)
}
