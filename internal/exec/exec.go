// Package exec is a numeric reference executor for layer graphs. It
// exists to validate the compiler's region arithmetic bit-exactly: the
// same integer kernels run once over whole tensors (the reference) and
// once over the partitioned/halo-expanded/tiled regions the compiler
// derived; any insufficient halo or mis-sliced region either panics
// (an out-of-view read) or produces mismatching values.
//
// Arithmetic is integer (int32 accumulators over pseudo-random int8
// data and weights) and fully deterministic, so "correct" means
// identical bits, not approximately equal.
package exec

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Tensor is a dense HWC tensor in full-graph coordinates.
type Tensor struct {
	Shape tensor.Shape
	Data  []int32
}

// NewTensor returns a zero tensor of shape s.
func NewTensor(s tensor.Shape) *Tensor {
	return &Tensor{Shape: s, Data: make([]int32, s.Elems())}
}

// At returns the element at (h, w, c).
func (t *Tensor) At(h, w, c int) int32 {
	return t.Data[(h*t.Shape.W+w)*t.Shape.C+c]
}

// Set stores v at (h, w, c).
func (t *Tensor) Set(h, w, c int, v int32) {
	t.Data[(h*t.Shape.W+w)*t.Shape.C+c] = v
}

// Fill populates the tensor with deterministic pseudo-random int8
// values derived from seed.
func (t *Tensor) Fill(seed uint64) {
	for i := range t.Data {
		t.Data[i] = int32(int8(splitmix(seed + uint64(i))))
	}
}

// Checksum folds the tensor's contents into a position-sensitive
// 64-bit digest. It is the numeric model of the simulator's
// stratum-boundary corruption check: any single flipped element (or
// any reordering) changes the digest, so comparing checksums detects
// silent data corruption without keeping a reference copy around.
func (t *Tensor) Checksum() uint64 {
	h := splitmix(uint64(t.Shape.H)<<42 ^ uint64(t.Shape.W)<<21 ^ uint64(t.Shape.C))
	for i, v := range t.Data {
		h = splitmix(h ^ splitmix(uint64(i)+1) ^ uint64(uint32(v)))
	}
	return h
}

// Equal reports whether two tensors match exactly.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.Shape != o.Shape {
		return false
	}
	for i := range t.Data {
		if t.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// View exposes a rectangular region of a conceptual tensor. Reads
// outside the view's region panic: in validation, that means the
// compiler's halo/region math under-provisioned data.
type View struct {
	Region tensor.Region
	data   []int32
}

// NewView returns a zero-filled view over region r.
func NewView(r tensor.Region) *View {
	return &View{Region: r, data: make([]int32, r.Elems())}
}

// ViewOf extracts region r from a full tensor.
func ViewOf(t *Tensor, r tensor.Region) *View {
	r = r.ClampTo(t.Shape)
	v := NewView(r)
	for h := 0; h < r.Ext.H; h++ {
		for w := 0; w < r.Ext.W; w++ {
			for c := 0; c < r.Ext.C; c++ {
				v.data[(h*r.Ext.W+w)*r.Ext.C+c] = t.At(r.Off.H+h, r.Off.W+w, r.Off.C+c)
			}
		}
	}
	return v
}

// WholeView wraps a full tensor without copying.
func WholeView(t *Tensor) *View {
	return &View{Region: tensor.WholeRegion(t.Shape), data: t.Data}
}

// At returns the element at absolute coordinates (h, w, c); it panics
// when the coordinates fall outside the view.
func (v *View) At(h, w, c int) int32 {
	hh := h - v.Region.Off.H
	ww := w - v.Region.Off.W
	cc := c - v.Region.Off.C
	if hh < 0 || hh >= v.Region.Ext.H || ww < 0 || ww >= v.Region.Ext.W || cc < 0 || cc >= v.Region.Ext.C {
		panic(fmt.Sprintf("exec: read (%d,%d,%d) outside view %v — insufficient halo/region", h, w, c, v.Region))
	}
	return v.data[(hh*v.Region.Ext.W+ww)*v.Region.Ext.C+cc]
}

// span returns the n elements at (h, w) from channel c on, a slice of
// the view's storage; like At, it panics naming the first of them that
// falls outside the view.
func (v *View) span(h, w, c, n int) []int32 {
	if n <= 0 {
		return nil
	}
	hh := h - v.Region.Off.H
	ww := w - v.Region.Off.W
	cc := c - v.Region.Off.C
	if hh < 0 || hh >= v.Region.Ext.H || ww < 0 || ww >= v.Region.Ext.W || cc < 0 || cc+n > v.Region.Ext.C {
		for i := 0; i < n; i++ {
			v.At(h, w, c+i)
		}
	}
	i := (hh*v.Region.Ext.W+ww)*v.Region.Ext.C + cc
	return v.data[i : i+n : i+n]
}

// Set stores v at absolute coordinates.
func (v *View) Set(h, w, c int, x int32) {
	hh := h - v.Region.Off.H
	ww := w - v.Region.Off.W
	cc := c - v.Region.Off.C
	if hh < 0 || hh >= v.Region.Ext.H || ww < 0 || ww >= v.Region.Ext.W || cc < 0 || cc >= v.Region.Ext.C {
		panic(fmt.Sprintf("exec: write (%d,%d,%d) outside view %v", h, w, c, v.Region))
	}
	v.data[(hh*v.Region.Ext.W+ww)*v.Region.Ext.C+cc] = x
}

// CopyInto writes the view's contents into the matching region of a
// full tensor.
func (v *View) CopyInto(t *Tensor) {
	r := v.Region
	for h := 0; h < r.Ext.H; h++ {
		for w := 0; w < r.Ext.W; w++ {
			for c := 0; c < r.Ext.C; c++ {
				t.Set(r.Off.H+h, r.Off.W+w, r.Off.C+c, v.data[(h*r.Ext.W+w)*r.Ext.C+c])
			}
		}
	}
}

// Weights generates deterministic pseudo-random int8 weights for a
// layer, addressed by absolute indices so a channel-partitioned slice
// reads exactly the same values the whole layer would.
type Weights struct {
	seed uint64
}

// WeightsFor returns the weight source of layer id.
func WeightsFor(id graph.LayerID) *Weights {
	return &Weights{seed: 0xA11CE + uint64(id)*0x9E3779B97F4A7C15}
}

// W returns the weight at a flat absolute index.
func (w *Weights) W(index int64) int32 {
	return int32(int8(splitmix(w.seed + uint64(index))))
}

// Conv indexes a dense convolution weight [outC][kh][kw][inC].
func (w *Weights) Conv(oc, kh, kw, ic, kH, kW, inC int) int32 {
	idx := int64(((oc*kH+kh)*kW+kw)*inC + ic)
	return w.W(idx)
}

// convRows generates the dense convolution weights of output channels
// [oc0, oc1) once: row oc-oc0 holds oc's k = kH*kW*inC weights in
// Conv's order, so entry (oc-oc0)*k + (kh*kW+kw)*inC + ic equals
// Conv(oc, kh, kw, ic, kH, kW, inC). A kernel computes every output
// pixel from the same rows, so reading them beats regenerating each
// weight per multiply-accumulate.
func (w *Weights) convRows(oc0, oc1, k int) []int8 {
	rows := make([]int8, max(oc1-oc0, 0)*k)
	base := w.seed + uint64(oc0*k)
	for i := range rows {
		rows[i] = int8(splitmix(base + uint64(i)))
	}
	return rows
}

// Bias returns the bias of output channel oc.
func (w *Weights) Bias(oc int) int32 {
	return w.W(int64(1<<40) + int64(oc))
}

// splitmix is SplitMix64, the deterministic value generator.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
