package exec

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// shardMinOps is the approximate operation count below which a kernel
// stays serial: smaller regions cannot amortize the pool handoff.
const shardMinOps = 1 << 15

// shard runs fn(i) for i in [0, n) — each index covering a disjoint
// slice of the output, so writes never overlap — fanning out across
// the worker pool when n*opsPerIndex is large enough to pay for it.
// Out-of-view panics (the halo-validation mechanism) surface on the
// calling goroutine either way, so guard() in validate.go still works.
func shard(n, opsPerIndex int, fn func(i int)) {
	if n < 2 || n*opsPerIndex < shardMinOps || parallel.Serial() {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	parallel.ForEach(n, func(i int) error {
		fn(i)
		return nil
	})
}

// read returns the input element at absolute (h, w, c): zero when the
// coordinates fall outside the full input shape (implicit padding),
// otherwise the view's value (which panics when the view lacks the
// element — the halo-validation mechanism).
func read(v *View, shape tensor.Shape, h, w, c int) int32 {
	if h < 0 || h >= shape.H || w < 0 || w >= shape.W || c < 0 || c >= shape.C {
		return 0
	}
	return v.At(h, w, c)
}

// Apply computes the output region of op from input views, using
// deterministic weights. The views must cover (at least) the regions
// op.InputRegion reports for out.
func Apply(op ops.Op, out tensor.Region, ins []*View, inShapes []tensor.Shape, w *Weights) (*View, error) {
	switch o := op.(type) {
	case ops.Input:
		return nil, fmt.Errorf("exec: Input layers are not computed")
	case ops.Conv2D:
		return applyConv(o, out, ins[0], inShapes[0], w), nil
	case ops.DepthwiseConv2D:
		return applyDepthwise(o, out, ins[0], inShapes[0], w), nil
	case ops.TransposeConv2D:
		return applyTransposeConv(o, out, ins[0], inShapes[0], w), nil
	case ops.MaxPool2D:
		return applyMaxPool(o, out, ins[0], inShapes[0]), nil
	case ops.AvgPool2D:
		return applyAvgPool(o, out, ins[0], inShapes[0]), nil
	case ops.GlobalAvgPool:
		return applyGlobalAvgPool(out, ins[0], inShapes[0]), nil
	case ops.FullyConnected:
		return applyFC(o, out, ins[0], inShapes[0], w), nil
	case ops.Add:
		return applyAdd(out, ins), nil
	case ops.Mul:
		return applyMul(out, ins, inShapes), nil
	case ops.Concat:
		return applyConcat(out, ins, inShapes), nil
	case ops.Activation:
		return applyActivation(o, out, ins[0]), nil
	case ops.Softmax:
		return applySoftmax(out, ins[0], inShapes[0]), nil
	case ops.Resize:
		return applyResize(o, out, ins[0], inShapes[0]), nil
	case ops.Crop:
		return applyCrop(o, out, ins[0]), nil
	case ops.ChannelSlice:
		return applyChannelSlice(o, out, ins[0]), nil
	case ops.ChannelShuffle:
		return applyChannelShuffle(o, out, ins[0], inShapes[0]), nil
	default:
		return nil, fmt.Errorf("exec: unsupported op %v", op)
	}
}

func applyConv(o ops.Conv2D, out tensor.Region, in *View, inShape tensor.Shape, w *Weights) *View {
	res := NewView(out)
	groups := o.Groups
	if groups <= 1 {
		groups = 1
	}
	inCg := inShape.C / groups
	outCg := o.OutC / groups
	k := o.KH * o.KW * inCg
	rows := w.convRows(out.Off.C, out.End(tensor.AxisC), k)
	shard(out.Ext.H, out.Ext.W*out.Ext.C*k, func(row int) {
		oh := out.Off.H + row
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				acc := w.Bias(oc)
				icBase := (oc / outCg) * inCg
				wr := rows[(oc-out.Off.C)*k:]
				for kh := 0; kh < o.KH; kh++ {
					ih := oh*o.StrideH - o.Pad.Top + kh*o.DilH
					if ih < 0 || ih >= inShape.H {
						continue
					}
					for kw := 0; kw < o.KW; kw++ {
						iw := ow*o.StrideW - o.Pad.Left + kw*o.DilW
						if iw < 0 || iw >= inShape.W {
							continue
						}
						wk := wr[(kh*o.KW+kw)*inCg:]
						for icg, x := range in.span(ih, iw, icBase, inCg) {
							acc += x * int32(wk[icg])
						}
					}
				}
				res.Set(oh, ow, oc, acc)
			}
		}
	})
	return res
}

func applyDepthwise(o ops.DepthwiseConv2D, out tensor.Region, in *View, inShape tensor.Shape, w *Weights) *View {
	res := NewView(out)
	k := o.KH * o.KW
	rows := w.convRows(out.Off.C, out.End(tensor.AxisC), k)
	shard(out.Ext.H, out.Ext.W*out.Ext.C*k, func(row int) {
		oh := out.Off.H + row
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				acc := w.Bias(oc)
				wr := rows[(oc-out.Off.C)*k:]
				for kh := 0; kh < o.KH; kh++ {
					ih := oh*o.StrideH - o.Pad.Top + kh*o.DilH
					if ih < 0 || ih >= inShape.H {
						continue
					}
					for kw := 0; kw < o.KW; kw++ {
						iw := ow*o.StrideW - o.Pad.Left + kw*o.DilW
						if iw < 0 || iw >= inShape.W {
							continue
						}
						acc += in.At(ih, iw, oc) * int32(wr[kh*o.KW+kw])
					}
				}
				res.Set(oh, ow, oc, acc)
			}
		}
	})
	return res
}

func applyTransposeConv(o ops.TransposeConv2D, out tensor.Region, in *View, inShape tensor.Shape, w *Weights) *View {
	res := NewView(out)
	inC := inShape.C
	k := o.KH * o.KW * inC
	rows := w.convRows(out.Off.C, out.End(tensor.AxisC), k)
	shard(out.Ext.H, out.Ext.W*out.Ext.C*k, func(row int) {
		oh := out.Off.H + row
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				acc := w.Bias(oc)
				wr := rows[(oc-out.Off.C)*k:]
				for kh := 0; kh < o.KH; kh++ {
					num := oh + o.Pad.Top - kh
					if num%o.StrideH != 0 {
						continue
					}
					ih := num / o.StrideH
					if ih < 0 || ih >= inShape.H {
						continue
					}
					for kw := 0; kw < o.KW; kw++ {
						numW := ow + o.Pad.Left - kw
						if numW%o.StrideW != 0 {
							continue
						}
						iw := numW / o.StrideW
						if iw < 0 || iw >= inShape.W {
							continue
						}
						wk := wr[(kh*o.KW+kw)*inC:]
						for ic, x := range in.span(ih, iw, 0, inC) {
							acc += x * int32(wk[ic])
						}
					}
				}
				res.Set(oh, ow, oc, acc)
			}
		}
	})
	return res
}

func applyMaxPool(o ops.MaxPool2D, out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	const minInt32 = -1 << 31
	for oh := out.Off.H; oh < out.End(tensor.AxisH); oh++ {
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				best := int32(minInt32)
				for kh := 0; kh < o.KH; kh++ {
					ih := oh*o.StrideH - o.Pad.Top + kh
					if ih < 0 || ih >= inShape.H {
						continue
					}
					for kw := 0; kw < o.KW; kw++ {
						iw := ow*o.StrideW - o.Pad.Left + kw
						if iw < 0 || iw >= inShape.W {
							continue
						}
						if v := in.At(ih, iw, oc); v > best {
							best = v
						}
					}
				}
				res.Set(oh, ow, oc, best)
			}
		}
	}
	return res
}

func applyAvgPool(o ops.AvgPool2D, out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	for oh := out.Off.H; oh < out.End(tensor.AxisH); oh++ {
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				var sum int32
				count := int32(0)
				for kh := 0; kh < o.KH; kh++ {
					ih := oh*o.StrideH - o.Pad.Top + kh
					if ih < 0 || ih >= inShape.H {
						continue
					}
					for kw := 0; kw < o.KW; kw++ {
						iw := ow*o.StrideW - o.Pad.Left + kw
						if iw < 0 || iw >= inShape.W {
							continue
						}
						sum += in.At(ih, iw, oc)
						count++
					}
				}
				if count > 0 {
					sum /= count
				}
				res.Set(oh, ow, oc, sum)
			}
		}
	}
	return res
}

func applyGlobalAvgPool(out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	area := int32(inShape.H * inShape.W)
	for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
		var sum int32
		for h := 0; h < inShape.H; h++ {
			for w := 0; w < inShape.W; w++ {
				sum += in.At(h, w, oc)
			}
		}
		res.Set(0, 0, oc, sum/area)
	}
	return res
}

func applyFC(o ops.FullyConnected, out tensor.Region, in *View, inShape tensor.Shape, w *Weights) *View {
	res := NewView(out)
	shard(out.Ext.C, inShape.C, func(ci int) {
		oc := out.Off.C + ci
		acc := w.Bias(oc)
		for ic := 0; ic < inShape.C; ic++ {
			acc += in.At(0, 0, ic) * w.Conv(oc, 0, 0, ic, 1, 1, inShape.C)
		}
		res.Set(0, 0, oc, acc)
	})
	return res
}

func applyAdd(out tensor.Region, ins []*View) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		var sum int32
		for _, in := range ins {
			sum += in.At(h, w, c)
		}
		res.Set(h, w, c, sum)
	})
	return res
}

func applyMul(out tensor.Region, ins []*View, inShapes []tensor.Shape) *View {
	res := NewView(out)
	bcast := inShapes[1].H == 1 && inShapes[1].W == 1 && inShapes[0] != inShapes[1]
	forEach(out, func(h, w, c int) {
		var b int32
		if bcast {
			b = ins[1].At(0, 0, c)
		} else {
			b = ins[1].At(h, w, c)
		}
		res.Set(h, w, c, ins[0].At(h, w, c)*b)
	})
	return res
}

func applyConcat(out tensor.Region, ins []*View, inShapes []tensor.Shape) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		base := 0
		for j, s := range inShapes {
			if c < base+s.C {
				res.Set(h, w, c, ins[j].At(h, w, c-base))
				return
			}
			base += s.C
		}
		panic("exec: concat channel out of range")
	})
	return res
}

// act applies the integer activation. The nonlinear functions use
// fixed-point rational approximations: exactness only requires
// determinism, not numerical fidelity.
func act(f ops.ActFunc, x int32) int32 {
	switch f {
	case ops.ReLU:
		if x < 0 {
			return 0
		}
		return x
	case ops.ReLU6:
		if x < 0 {
			return 0
		}
		if x > 6*16 {
			return 6 * 16
		}
		return x
	case ops.Sigmoid:
		ax := x
		if ax < 0 {
			ax = -ax
		}
		return 32 + (x*32)/(64+ax)
	case ops.HSwish:
		t := x + 48
		if t < 0 {
			t = 0
		}
		if t > 96 {
			t = 96
		}
		return (x * t) / 96
	case ops.TanH:
		ax := x
		if ax < 0 {
			ax = -ax
		}
		return (x * 64) / (64 + ax)
	default:
		panic(fmt.Sprintf("exec: unknown activation %v", f))
	}
}

func applyActivation(o ops.Activation, out tensor.Region, in *View) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		res.Set(h, w, c, act(o.Func, in.At(h, w, c)))
	})
	return res
}

// applySoftmax computes a shifted log-softmax surrogate (x - max over
// channels): integer-exact while still exercising the full-channel
// reduction.
func applySoftmax(out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	for oh := out.Off.H; oh < out.End(tensor.AxisH); oh++ {
		for ow := out.Off.W; ow < out.End(tensor.AxisW); ow++ {
			best := in.At(oh, ow, 0)
			for c := 1; c < inShape.C; c++ {
				if v := in.At(oh, ow, c); v > best {
					best = v
				}
			}
			for oc := out.Off.C; oc < out.End(tensor.AxisC); oc++ {
				res.Set(oh, ow, oc, in.At(oh, ow, oc)-best)
			}
		}
	}
	return res
}

func applyResize(o ops.Resize, out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	const fp = 256
	forEach(out, func(h, w, c int) {
		if o.Mode == ops.Nearest {
			res.Set(h, w, c, in.At(h/o.ScaleH, w/o.ScaleW, c))
			return
		}
		// Bilinear with half-pixel centers in 8.8 fixed point.
		sy := ((2*h+1)*fp/(2*o.ScaleH) - fp/2)
		sx := ((2*w+1)*fp/(2*o.ScaleW) - fp/2)
		y0 := floorDiv(sy, fp)
		x0 := floorDiv(sx, fp)
		fy := sy - y0*fp
		fx := sx - x0*fp
		v := func(y, x int) int32 {
			if y < 0 {
				y = 0
			}
			if y > inShape.H-1 {
				y = inShape.H - 1
			}
			if x < 0 {
				x = 0
			}
			if x > inShape.W-1 {
				x = inShape.W - 1
			}
			return read(in, inShape, y, x, c)
		}
		top := v(y0, x0)*int32(fp-fx) + v(y0, x0+1)*int32(fx)
		bot := v(y0+1, x0)*int32(fp-fx) + v(y0+1, x0+1)*int32(fx)
		res.Set(h, w, c, (top*int32(fp-fy)+bot*int32(fy))/(fp*fp))
	})
	return res
}

func applyCrop(o ops.Crop, out tensor.Region, in *View) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		res.Set(h, w, c, in.At(h+o.Top, w+o.Left, c))
	})
	return res
}

func applyChannelSlice(o ops.ChannelSlice, out tensor.Region, in *View) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		res.Set(h, w, c, in.At(h, w, c+o.From))
	})
	return res
}

func applyChannelShuffle(o ops.ChannelShuffle, out tensor.Region, in *View, inShape tensor.Shape) *View {
	res := NewView(out)
	forEach(out, func(h, w, c int) {
		res.Set(h, w, c, in.At(h, w, o.SourceChannel(c, inShape.C)))
	})
	return res
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// forEach visits every coordinate of a region.
func forEach(r tensor.Region, f func(h, w, c int)) {
	for h := r.Off.H; h < r.End(tensor.AxisH); h++ {
		for w := r.Off.W; w < r.End(tensor.AxisW); w++ {
			for c := r.Off.C; c < r.End(tensor.AxisC); c++ {
				f(h, w, c)
			}
		}
	}
}
