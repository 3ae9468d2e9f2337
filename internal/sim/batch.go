package sim

import (
	"fmt"

	"repro/internal/plan"
)

// Throughput runs n inferences of p back to back on its whole
// architecture — one RunConcurrent stream of n copies of Whole(p), the
// sustained camera-stream scenario next to the paper's single-shot
// latency — and returns the average inference period in cycles: the
// stream's end over n. Each inference issues nothing until the one
// before it has retired, as tenancy's streams run, so the period is
// the single-shot latency.
func Throughput(p *plan.Program, n int, cfg Config) (periodCycles float64, err error) {
	if n < 1 {
		return 0, fmt.Errorf("sim: throughput over %d inferences", n)
	}
	whole := Whole(p)[0]
	stream := make([]Placement, n)
	for i := range stream {
		stream[i] = whole
	}
	res, err := RunConcurrent(p.Arch, stream, cfg)
	if err != nil {
		return 0, err
	}
	return res.Stats.TotalCycles / float64(n), nil
}
