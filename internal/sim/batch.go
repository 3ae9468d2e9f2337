package sim

import (
	"fmt"

	"repro/internal/plan"
)

// Repeat builds a program that runs p back to back n times — the
// sustained-throughput scenario (a camera stream) as opposed to the
// paper's single-shot latency metric. Iterations pipeline naturally:
// each engine processes iterations in order, so iteration i+1's loads
// overlap iteration i's tail computes, while barriers and explicit
// dependencies are replicated per iteration.
func Repeat(p *plan.Program, n int) (*plan.Program, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: repeat count %d", n)
	}
	if n == 1 {
		return p, nil
	}
	out := &plan.Program{
		Arch:        p.Arch,
		Graph:       p.Graph,
		Cores:       make([][]plan.Instr, len(p.Cores)),
		NumBarriers: p.NumBarriers * n,
		Directions:  p.Directions,
		Strata:      p.Strata,
	}
	for c, stream := range p.Cores {
		out.Cores[c] = make([]plan.Instr, 0, len(stream)*n)
		for it := 0; it < n; it++ {
			out.Cores[c] = append(out.Cores[c], stream...)
		}
	}
	// The copies share p's Deps until packed; packing gives each its own
	// refs to shift in place.
	plan.PackDeps(out.Cores)
	for c, stream := range p.Cores {
		for i := range out.Cores[c] {
			in := &out.Cores[c][i]
			it := i / len(stream)
			for j := range in.Deps {
				in.Deps[j].Index += len(p.Cores[in.Deps[j].Core]) * it
			}
			if in.Op == plan.Barrier {
				in.BarrierID += p.NumBarriers * it
			}
		}
	}
	return out, out.Validate()
}

// Throughput runs n back-to-back inferences and returns the average
// inter-completion interval in cycles (the steady-state inference
// period) alongside the full-batch stats.
func Throughput(p *plan.Program, n int, cfg Config) (periodCycles float64, res *Result, err error) {
	rep, err := Repeat(p, n)
	if err != nil {
		return 0, nil, err
	}
	res, err = Run(rep, cfg)
	if err != nil {
		return 0, nil, err
	}
	return res.Stats.TotalCycles / float64(n), res, nil
}
