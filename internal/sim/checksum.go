package sim

import (
	"cmp"
	"slices"

	"repro/internal/fault"
	"repro/internal/plan"
)

// Checksums is the stratum-boundary checksum pass: the Corruptions a
// run that retired every instruction reports under plan's FlipRate.
// A bit-flip corrupts data but never timing, so the pass runs after
// the run, over its outcome, and both engines (and core.Result's reuse
// of the admission run) share it:
//
//   - finish[p] is placement p's per-layer finish row (a LayerFinish
//     row: when each layer of p's graph retired its last instruction);
//   - attempt(n) is the final attempt of DMA transfer n, numbered
//     across placements, their cores and each core's stream in order
//     (the identity fault.Plan.Drops and Flips key on); nil means no
//     transfer was ever re-issued.
//
// A transfer flips when plan.Flips(n, attempt(n)). The checksum
// granularity is the program's strata, or one stratum per layer when
// it has none; layers outside every stratum are not checksummed. A
// stratum holding a flipped transfer is detected when its last layer
// finished, and corruptions are ordered by (cycle, placement,
// stratum). The result is nil when nothing flipped.
func Checksums(fp *fault.Plan, placements []Placement, finish [][]float64, attempt func(transfer int) int) []Corruption {
	if fp == nil || fp.FlipRate <= 0 {
		return nil
	}
	var out []Corruption
	var strOf []int32
	var flips []int32
	n := 0
	for pi, pl := range placements {
		p := pl.Program
		strOf = resizeFill(strOf, p.Graph.Len(), -1)
		ns := len(p.Strata)
		if ns == 0 {
			ns = p.Graph.Len()
			for l := range strOf {
				strOf[l] = int32(l)
			}
		}
		for si, s := range p.Strata {
			for _, id := range s {
				strOf[id] = int32(si)
			}
		}
		flips = resize(flips, ns)
		for _, stream := range p.Cores {
			for i := range stream {
				in := &stream[i]
				if e := in.Op.Engine(); e == plan.EngineLoad || e == plan.EngineStore {
					a := 0
					if attempt != nil {
						a = attempt(n)
					}
					if si := strOf[in.Layer]; si >= 0 && fp.Flips(n, a) {
						flips[si]++
					}
				}
				n++
			}
		}
		for si, k := range flips {
			if k == 0 {
				continue
			}
			at := 0.0
			for _, id := range StratumLayers(p, si) {
				at = max(at, finish[pi][id])
			}
			out = append(out, Corruption{Placement: pi, Stratum: si, DetectedAtCycle: at, Transfers: int(k)})
		}
	}
	slices.SortFunc(out, func(x, y Corruption) int {
		return cmp.Or(cmp.Compare(x.DetectedAtCycle, y.DetectedAtCycle),
			cmp.Compare(x.Placement, y.Placement), cmp.Compare(x.Stratum, y.Stratum))
	})
	return out
}
