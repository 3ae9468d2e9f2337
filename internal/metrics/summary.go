package metrics

import (
	"fmt"
	"math"
)

// Summary holds the mean and population standard deviation of a
// per-core metric, as the paper's Tables 4 and 5 report it.
type Summary struct {
	Mean, Std float64
	Values    []float64
}

// Summarize computes a Summary over per-core values.
func Summarize(values []float64) Summary {
	s := Summary{Values: append([]float64(nil), values...)}
	if len(values) == 0 {
		return s
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	s.Mean = sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(values)))
	return s
}

// String formats as "μ:x σ:y" like the paper's tables.
func (s Summary) String() string {
	return fmt.Sprintf("μ:%.1f σ:%.1f", s.Mean, s.Std)
}

// KB formats a byte summary in kilobytes, Table 4 style.
func (s Summary) KB() string {
	return fmt.Sprintf("μ:%.0fKB σ:%.0fKB", s.Mean/1024, s.Std/1024)
}

// Micros formats a cycle summary in microseconds at the given clock.
func (s Summary) Micros(clockMHz int) string {
	return fmt.Sprintf("μ:%.0fus σ:%.0fus", s.Mean/float64(clockMHz), s.Std/float64(clockMHz))
}
