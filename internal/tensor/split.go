package tensor

import "fmt"

// RoundUp returns the smallest multiple of align that is >= n.
// align <= 1 returns n unchanged.
func RoundUp(n, align int) int {
	if align <= 1 {
		return n
	}
	rem := n % align
	if rem == 0 {
		return n
	}
	return n + align - rem
}

// SplitWeighted divides an extent of total elements into len(weights)
// contiguous chunks whose sizes are proportional to weights, with every
// chunk boundary (and therefore every chunk size except possibly the
// last) aligned to align elements. Chunks may be zero-sized when total
// is too small to give every consumer an aligned share; the chunks
// always sum exactly to total.
//
// This implements the paper's heterogeneous load balancing: the
// partitioning ratio of each core follows its computing power and
// memory bandwidth, subject to the NPU core's data alignment
// constraints (Section 3.1.1).
func SplitWeighted(total int, weights []float64, align int) []int {
	if total < 0 {
		panic(fmt.Sprintf("tensor: negative split total %d", total))
	}
	n := len(weights)
	if n == 0 {
		return nil
	}
	chunks := make([]int, n)
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("tensor: negative split weight %g", w))
		}
		wsum += w
	}
	if wsum == 0 {
		// Degenerate: all weights zero. Give everything to chunk 0.
		chunks[0] = total
		return chunks
	}
	// Walk boundaries: boundary i is the aligned rounding of the ideal
	// cumulative share. The final boundary is pinned to total.
	prev := 0
	var cum float64
	for i := 0; i < n-1; i++ {
		cum += weights[i]
		ideal := int(float64(total)*cum/wsum + 0.5)
		b := RoundUp(ideal, align)
		if b > total {
			b = total
		}
		if b < prev {
			b = prev
		}
		chunks[i] = b - prev
		prev = b
	}
	chunks[n-1] = total - prev
	return chunks
}

// SplitEven divides total into n contiguous aligned chunks of roughly
// equal size. It is SplitWeighted with unit weights.
func SplitEven(total, n, align int) []int {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return SplitWeighted(total, w, align)
}

// ChunksToRegions converts chunk sizes along axis a into contiguous
// regions covering whole, in order. Chunks of size zero yield empty
// regions (which callers typically skip: that core receives no work
// for the layer).
func ChunksToRegions(whole Shape, a Axis, chunks []int) []Region {
	regions := make([]Region, len(chunks))
	off := 0
	for i, sz := range chunks {
		r := WholeRegion(whole)
		r.Off = r.Off.WithDim(a, off)
		r.Ext = r.Ext.WithDim(a, sz)
		regions[i] = r
		off += sz
	}
	if off != whole.Dim(a) {
		panic(fmt.Sprintf("tensor: chunks sum %d != extent %d along %s", off, whole.Dim(a), a))
	}
	return regions
}
