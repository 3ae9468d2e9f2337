// Package ops defines the operator set used by the benchmark networks
// and the shape/halo/cost arithmetic the compiler needs for each
// operator.
//
// An Op answers four questions about a layer:
//
//  1. Shape inference: what output shape follows from the input shapes.
//  2. Region mapping: to compute a given output region, which region of
//     each input is required (the receptive field). This is the basis
//     for halo computation in spatial partitioning, stratum
//     construction, and tiling.
//  3. Cost: how many multiply-accumulate-equivalent operations and how
//     many weight bytes a given output region costs.
//  4. Partition legality: along which axes the output may be split
//     without a partial-sum reduction stage (Table 1 in the paper
//     marks reduction-requiring methods as undesirable; the compiler
//     only uses the reduction-free ones).
package ops

import (
	"fmt"

	"repro/internal/tensor"
)

// Kind discriminates operator types.
type Kind int

// Operator kinds.
const (
	KindInput Kind = iota
	KindConv2D
	KindDepthwiseConv2D
	KindTransposeConv2D
	KindMaxPool2D
	KindAvgPool2D
	KindGlobalAvgPool
	KindFullyConnected
	KindAdd
	KindMul
	KindConcat
	KindActivation
	KindSoftmax
	KindResize
)

// String returns the operator kind name.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "Input"
	case KindConv2D:
		return "Conv2D"
	case KindDepthwiseConv2D:
		return "DepthwiseConv2D"
	case KindTransposeConv2D:
		return "TransposeConv2D"
	case KindMaxPool2D:
		return "MaxPool2D"
	case KindAvgPool2D:
		return "AvgPool2D"
	case KindGlobalAvgPool:
		return "GlobalAvgPool"
	case KindFullyConnected:
		return "FullyConnected"
	case KindAdd:
		return "Add"
	case KindMul:
		return "Mul"
	case KindConcat:
		return "Concat"
	case KindActivation:
		return "Activation"
	case KindSoftmax:
		return "Softmax"
	case KindResize:
		return "Resize"
	case KindCrop:
		return "Crop"
	case KindChannelSlice:
		return "ChannelSlice"
	case KindChannelShuffle:
		return "ChannelShuffle"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is the interface every operator implements.
type Op interface {
	// Kind returns the operator discriminator.
	Kind() Kind

	// OutShape infers the output shape from the input shapes. It
	// returns an error when the inputs are inconsistent with the
	// operator's attributes (wrong arity, mismatched shapes, or a
	// kernel larger than its padded input).
	OutShape(in []tensor.Shape) (tensor.Shape, error)

	// MACs returns the number of multiply-accumulate-equivalent
	// operations needed to compute an output region of extent ext.
	MACs(ext tensor.Shape, in []tensor.Shape) int64

	// KernelBytes returns the weight (plus bias) bytes needed to
	// compute an output region of extent ext. Operators without
	// weights return 0. A full-output extent yields the layer's total
	// kernel size; a channel-partitioned extent yields the
	// proportional kernel slice (channel partitioning splits the
	// kernel, Table 1 row 3).
	KernelBytes(ext tensor.Shape, in []tensor.Shape, dt tensor.DType) int64

	// InputRegion maps an output region to the region of input inIdx
	// required to compute it, clamped to the input bounds (padding at
	// tensor borders therefore requires no halo).
	InputRegion(out tensor.Region, inIdx int, in []tensor.Shape) tensor.Region

	// SupportsPartition reports whether the output may be split along
	// axis a with each part computable independently (no partial-sum
	// reduction across parts).
	SupportsPartition(a tensor.Axis) bool

	// ChannelWise reports operators that process channels
	// independently with no cross-channel kernel (depthwise
	// convolution, pooling): heuristic h4 prefers channel partitioning
	// for these.
	ChannelWise() bool

	// String describes the operator and its attributes.
	String() string
}

// Input is the graph source pseudo-operator; it has no inputs and
// produces the externally supplied tensor.
type Input struct {
	Shape tensor.Shape
}

// Kind implements Op.
func (Input) Kind() Kind { return KindInput }

// OutShape implements Op.
func (o Input) OutShape(in []tensor.Shape) (tensor.Shape, error) {
	if len(in) != 0 {
		return tensor.Shape{}, fmt.Errorf("ops: Input takes no inputs, got %d", len(in))
	}
	return o.Shape, nil
}

// MACs implements Op; the input costs nothing to "compute".
func (Input) MACs(tensor.Shape, []tensor.Shape) int64 { return 0 }

// KernelBytes implements Op.
func (Input) KernelBytes(tensor.Shape, []tensor.Shape, tensor.DType) int64 { return 0 }

// InputRegion implements Op; it is never called for sources.
func (Input) InputRegion(out tensor.Region, _ int, _ []tensor.Shape) tensor.Region { return out }

// SupportsPartition implements Op: the source tensor may be sliced any way.
func (Input) SupportsPartition(tensor.Axis) bool { return true }

// ChannelWise implements Op.
func (Input) ChannelWise() bool { return false }

func (o Input) String() string { return fmt.Sprintf("Input(%s)", o.Shape) }

// checkArity returns an error unless len(in) == want.
func checkArity(name string, in []tensor.Shape, want int) error {
	if len(in) != want {
		return fmt.Errorf("ops: %s expects %d input(s), got %d", name, want, len(in))
	}
	return nil
}
