package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to count as measured rather than extrapolated.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples (the epsilon keeps 0.99*1000 from rounding up to 991).
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(r, 1)
}

// beyond counts the samples that lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - rank(n, q) }

// minSamples is the smallest sample count that leaves minBeyond
// samples above the q-quantile.
func minSamples(q float64) int {
	n := minBeyond
	for beyond(n, q) < minBeyond {
		n++
	}
	return n
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), sorting xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// geomean returns the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
