// Package cost provides the analytic machine cost model the compiler
// uses to balance partitions, size tiles, and compare redundant
// computation against synchronization (Algorithm 2's
// redundant_compute_cost and sync_cost).
//
// The paper derives these functions from per-operator measurements on
// the NPU; here they are derived from the arch description, which keeps
// them pluggable: calibrating to different silicon means changing only
// the Arch parameters.
package cost

import (
	"math"

	"repro/internal/arch"
	"repro/internal/tensor"
)

// Model evaluates costs against a specific architecture.
type Model struct {
	Arch *arch.Arch
}

// New returns a cost model for a.
func New(a *arch.Arch) *Model { return &Model{Arch: a} }

// macsPerCycle returns core's effective MAC throughput for dtype dt.
// INT16 halves the adder-tree throughput.
func (m *Model) macsPerCycle(core int, dt tensor.DType) float64 {
	r := float64(m.Arch.Cores[core].MACsPerCycle) * m.Arch.ComputeEfficiency
	if dt != tensor.Int8 {
		r /= 2
	}
	return r
}

// ComputeCycles returns the cycles core needs to execute macs
// multiply-accumulates at dtype dt.
func (m *Model) ComputeCycles(core int, macs int64, dt tensor.DType) int64 {
	if macs <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(macs) / m.macsPerCycle(core, dt)))
}

// DMACycles returns the cycles core needs to move bytes to or from
// global memory through its own DMA engine, ignoring bus contention
// (the simulator adds contention dynamically).
func (m *Model) DMACycles(core int, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(bytes) / m.Arch.Cores[core].DMABytesPerCycle))
}

// SyncCycles returns the modeled expected cost of one barrier across n
// cores, including the expectation of the runtime's release jitter.
func (m *Model) SyncCycles(n int) int64 {
	if n <= 1 {
		return 0
	}
	return m.Arch.SyncCost(n) + m.Arch.SyncJitterCycles/2
}

// BalanceWeights returns per-core partitioning weights for a layer
// whose work scales along the split axis with macsPerUnit MACs and
// bytesPerUnit bytes of traffic per unit of the axis. A core's weight
// is the reciprocal of its per-unit time, so splitting the axis
// proportionally to the weights equalizes per-core finish times
// (Section 3.1.1: "the total time of accessing memory and executing
// kernel should be well-balanced across cores").
func (m *Model) BalanceWeights(macsPerUnit, bytesPerUnit float64, dt tensor.DType) []float64 {
	w := make([]float64, m.Arch.NumCores())
	for i := range w {
		ct := macsPerUnit / m.macsPerCycle(i, dt)
		dt := bytesPerUnit / m.Arch.Cores[i].DMABytesPerCycle
		t := math.Max(ct, dt)
		if t <= 0 {
			w[i] = 1
		} else {
			w[i] = 1 / t
		}
	}
	return w
}
