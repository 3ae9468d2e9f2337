package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is one bucket per power of two of microseconds: bucket i
// holds observations in [2^(i-1), 2^i) µs (bucket 0 holds < 1 µs).
// 64 buckets cover every representable duration.
const histBuckets = 64

// Histogram is a lock-free latency histogram with exponential
// (power-of-two microsecond) buckets. Concurrent Observe calls never
// block; Quantile reads a best-effort snapshot (exact once writers
// quiesce). The zero value is ready to use.
//
// Two-percent-style accuracy is plenty for serving dashboards: a
// quantile resolves to its bucket and is reported as the bucket's
// geometric mean, so the value is within a factor of sqrt(2) of the
// true order statistic (plus microsecond rounding).
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumUS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.counts[bucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// bucketIndex maps a non-negative microsecond count to its bucket.
func bucketIndex(us int64) int {
	return bits.Len64(uint64(us)) % histBuckets
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observed duration (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumUS.Load()/n) * time.Microsecond
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observed
// durations; see the accuracy contract on Histogram. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	d := h.Dist()
	return d.Quantile(q)
}

// Merge adds o's observations into h, bucket by bucket, so the merged
// histogram is exactly what one histogram fed every observation would
// hold: per-shard histograms combine without any quantile error.
// Merge may run concurrently with Observe on either side (the usual
// lock-free snapshot caveats apply); merging a histogram into itself
// is not supported.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.count.Add(o.count.Load())
	h.sumUS.Add(o.sumUS.Load())
}

// Dist captures the histogram's buckets as a plain value — the
// snapshot-level form of Merge. A single-writer hot loop can Observe
// into its own Dist with no atomic traffic at all, and per-shard
// captures Merge exactly (bucket counts add), so merged quantiles
// equal those of a single histogram fed every observation.
func (h *Histogram) Dist() Dist {
	var d Dist
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
		d.N += d.Counts[i]
	}
	d.SumUS = h.sumUS.Load()
	return d
}

// Dist is a value-type histogram over the same power-of-two buckets as
// Histogram, with plain (non-atomic) counters: the zero value is ready
// to use by a single writer, and Merge combines captures exactly.
type Dist struct {
	Counts [histBuckets]int64
	N      int64
	SumUS  int64
}

// Observe records one latency in whole microseconds.
func (d *Dist) Observe(us int64) {
	if us < 0 {
		us = 0
	}
	d.Counts[bucketIndex(us)]++
	d.N++
	d.SumUS += us
}

// ObserveN records n identical latencies in whole microseconds — the
// bulk form of Observe for replay loops that book many equal service
// times at once (loadgen.RunTenants). Equivalent to
// calling Observe(us) n times; n <= 0 records nothing.
func (d *Dist) ObserveN(us, n int64) {
	if n <= 0 {
		return
	}
	if us < 0 {
		us = 0
	}
	d.Counts[bucketIndex(us)] += n
	d.N += n
	d.SumUS += us * n
}

// Merge adds o's observations into d, exactly.
func (d *Dist) Merge(o *Dist) {
	for i, c := range o.Counts {
		d.Counts[i] += c
	}
	d.N += o.N
	d.SumUS += o.SumUS
}

// Count returns the number of observations.
func (d *Dist) Count() int64 { return d.N }

// Mean returns the mean observed duration (0 when empty).
func (d *Dist) Mean() time.Duration {
	if d.N == 0 {
		return 0
	}
	return time.Duration(d.SumUS/d.N) * time.Microsecond
}

// Quantile returns the q-quantile of the captured observations: the
// geometric mean of the bucket holding the rank, within a factor of
// sqrt(2) of the true order statistic (plus microsecond rounding).
func (d *Dist) Quantile(q float64) time.Duration {
	if d.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(d.N-1))
	var seen int64
	for i, c := range d.Counts {
		if c == 0 {
			continue
		}
		if rank < seen+c {
			return bucketValue(i)
		}
		seen += c
	}
	return bucketValue(histBuckets - 1)
}

// bucketValue returns bucket i's representative duration: the
// geometric mean of its bounds. Every value in [lo, hi) is within a
// factor of sqrt(hi/lo) = sqrt(2) of it. Bucket 0 holds only sub-µs
// observations (recorded as 0), so its representative is 0.
func bucketValue(i int) time.Duration {
	if i == 0 {
		return 0
	}
	lo, hi := bucketBounds(i)
	us := math.Sqrt(float64(lo) * float64(hi))
	return time.Duration(us) * time.Microsecond
}

// bucketBounds returns bucket i's [lo, hi) span in microseconds.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 1
	}
	return 1 << (i - 1), 1 << i
}

// HistogramSnapshot is a marshalable point-in-time view.
type HistogramSnapshot struct {
	Count  int64
	MeanUS int64
	P50US  int64
	P90US  int64
	P99US  int64
	P999US int64
}

// Snapshot captures the histogram for a stats endpoint.
func (h *Histogram) Snapshot() HistogramSnapshot {
	d := h.Dist()
	return d.Snapshot()
}

// Snapshot summarizes the capture in the stats-endpoint form.
func (d *Dist) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count:  d.N,
		MeanUS: d.Mean().Microseconds(),
		P50US:  d.Quantile(0.50).Microseconds(),
		P90US:  d.Quantile(0.90).Microseconds(),
		P99US:  d.Quantile(0.99).Microseconds(),
		P999US: d.Quantile(0.999).Microseconds(),
	}
}
