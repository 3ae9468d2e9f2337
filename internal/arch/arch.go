// Package arch describes the multicore NPU hardware the compiler
// targets and the simulator models: per-core compute throughput, DMA
// bandwidth, scratch-pad memory (SPM) capacity, data alignment
// constraints, the shared global-memory bus, and synchronization cost.
//
// The paper evaluates on the Samsung Exynos 2100, whose NPU has three
// adder-tree cores with fixed input/output channel alignments and
// differing bandwidth capabilities. Exynos2100Like captures that
// structure; the absolute parameter values are calibrated estimates,
// not vendor data.
package arch

import (
	"fmt"
)

// Core describes one NPU core.
type Core struct {
	// Name identifies the core in reports ("P0", "P1", ...).
	Name string
	// MACsPerCycle is the peak INT8 multiply-accumulate throughput of
	// the core's adder-tree engine. INT16 operation halves it.
	MACsPerCycle int
	// DMABytesPerCycle is the core's own DMA engine bandwidth to
	// global memory, before bus contention.
	DMABytesPerCycle float64
	// SPMBytes is the core's scratch-pad (local) memory capacity.
	SPMBytes int64
	// AlignC is the channel alignment the adder tree imposes on
	// input/output channel partitions.
	AlignC int
	// AlignSpatial is the row alignment for spatial partitions.
	AlignSpatial int
}

// Arch describes the NPU subsystem.
type Arch struct {
	// Name identifies the configuration in reports.
	Name string
	// Cores lists the NPU cores. Layer partitioning produces one
	// sub-layer per core.
	Cores []Core
	// ClockMHz converts cycles to wall time for reporting.
	ClockMHz int
	// BusBytesPerCycle is the shared global-memory bandwidth ceiling;
	// concurrent DMA transfers from multiple cores share it.
	BusBytesPerCycle float64
	// SyncBaseCycles is the fixed cost of an inter-core barrier
	// (interrupt + runtime bookkeeping), paid by every participant
	// after the last core arrives.
	SyncBaseCycles int64
	// SyncPerCoreCycles is the additional barrier cost per
	// participating core.
	SyncPerCoreCycles int64
	// SyncJitterCycles bounds the per-barrier release variance caused
	// by the runtime (interrupt latency, scheduler noise) — the
	// "dynamic situations of the system" the paper cites as the
	// implicit toll of synchronization. The simulator adds a
	// deterministic pseudo-random delay in [0, SyncJitterCycles] to
	// each barrier release; the cost model charges the expectation.
	SyncJitterCycles int64
	// DMASetupCycles is the fixed cost of every DMA transfer job
	// (descriptor setup, completion interrupt) before data flows.
	// It is what makes many small transfers — e.g. per-layer
	// halo-exchange — more expensive than few large ones, the
	// "implicit synchronization toll" of halo-exchange the paper
	// contrasts with stratum execution.
	DMASetupCycles int64
	// ComputeEfficiency derates peak MACs for real layer shapes
	// (pipeline bubbles, edge effects); in (0, 1].
	ComputeEfficiency float64
	// DirectHaloInterconnect models a dedicated core-to-core link for
	// halo-exchange. The Exynos 2100 has none — the paper transfers
	// halo "through global memory, due to no direct connection or
	// shared memory between cores" — so the preset leaves this false;
	// enabling it is a hardware design-space experiment: halo
	// transfers then run at the core's DMA rate without consuming
	// shared-bus bandwidth.
	DirectHaloInterconnect bool
	// PJPerMAC is the energy of one INT8 multiply-accumulate in
	// picojoules (INT16 doubles it). Used by the energy model.
	PJPerMAC float64
	// PJPerDRAMByte is the energy of moving one byte between global
	// memory and SPM (DRAM access + bus + DMA), in picojoules.
	PJPerDRAMByte float64
}

// NumCores returns the number of NPU cores.
func (a *Arch) NumCores() int { return len(a.Cores) }

// Validate checks that the description is physically sensible.
func (a *Arch) Validate() error {
	if len(a.Cores) == 0 {
		return fmt.Errorf("arch %q: no cores", a.Name)
	}
	if a.ClockMHz <= 0 {
		return fmt.Errorf("arch %q: clock %d MHz", a.Name, a.ClockMHz)
	}
	if a.BusBytesPerCycle <= 0 {
		return fmt.Errorf("arch %q: bus bandwidth %g", a.Name, a.BusBytesPerCycle)
	}
	if a.ComputeEfficiency <= 0 || a.ComputeEfficiency > 1 {
		return fmt.Errorf("arch %q: compute efficiency %g outside (0,1]", a.Name, a.ComputeEfficiency)
	}
	for i, c := range a.Cores {
		switch {
		case c.MACsPerCycle <= 0:
			return fmt.Errorf("arch %q core %d: MACsPerCycle %d", a.Name, i, c.MACsPerCycle)
		case c.DMABytesPerCycle <= 0:
			return fmt.Errorf("arch %q core %d: DMABytesPerCycle %g", a.Name, i, c.DMABytesPerCycle)
		case c.SPMBytes <= 0:
			return fmt.Errorf("arch %q core %d: SPMBytes %d", a.Name, i, c.SPMBytes)
		case c.AlignC < 1 || c.AlignSpatial < 1:
			return fmt.Errorf("arch %q core %d: alignment %d/%d", a.Name, i, c.AlignC, c.AlignSpatial)
		}
	}
	return nil
}

// MicrosToCycles converts microseconds to cycles.
func (a *Arch) MicrosToCycles(us float64) int64 {
	return int64(us * float64(a.ClockMHz))
}

// SyncCost returns the modeled barrier cost in cycles for n
// participating cores (excluding waiting time for stragglers, which
// the simulator accounts separately).
func (a *Arch) SyncCost(n int) int64 {
	if n <= 1 {
		return 0
	}
	return a.SyncBaseCycles + int64(n)*a.SyncPerCoreCycles
}

// MaxAlignC returns the largest channel alignment across cores: the
// granularity channel partitioning must respect to satisfy every core.
func (a *Arch) MaxAlignC() int {
	m := 1
	for _, c := range a.Cores {
		if c.AlignC > m {
			m = c.AlignC
		}
	}
	return m
}

// MaxAlignSpatial returns the largest spatial alignment across cores.
func (a *Arch) MaxAlignSpatial() int {
	m := 1
	for _, c := range a.Cores {
		if c.AlignSpatial > m {
			m = c.AlignSpatial
		}
	}
	return m
}

// Exynos2100Like returns a three-core NPU resembling the paper's
// evaluation platform: equal adder-tree compute per core (the ISSCC'21
// description is a 6K-MAC NPU organized as three 2K-MAC cores), fixed
// 16-channel alignment (32 on the third core, giving channel
// partitioning its larger alignment burden), and heterogeneous DMA
// bandwidth.
func Exynos2100Like() *Arch {
	return &Arch{
		Name:     "exynos2100-like-3core",
		ClockMHz: 1300,
		Cores: []Core{
			{Name: "P0", MACsPerCycle: 2048, DMABytesPerCycle: 16, SPMBytes: 2 << 20, AlignC: 16, AlignSpatial: 1},
			{Name: "P1", MACsPerCycle: 2048, DMABytesPerCycle: 12, SPMBytes: 2 << 20, AlignC: 16, AlignSpatial: 1},
			{Name: "P2", MACsPerCycle: 2048, DMABytesPerCycle: 8, SPMBytes: 2 << 20, AlignC: 32, AlignSpatial: 1},
		},
		BusBytesPerCycle:  32,
		SyncBaseCycles:    2600, // ~2 us at 1.3 GHz
		SyncPerCoreCycles: 260,  // ~0.2 us per participant
		SyncJitterCycles:  3900, // up to ~3 us of runtime variance
		DMASetupCycles:    400,  // ~0.3 us per DMA job
		ComputeEfficiency: 0.55,
		PJPerMAC:          0.25, // ~7nm INT8 MAC incl. local SRAM traffic
		PJPerDRAMByte:     20,   // LPDDR5 access + interconnect
	}
}

// SingleCore returns a one-core configuration with the same per-core
// parameters as Exynos2100Like's first core; the single-core baseline
// of Figure 11.
func SingleCore() *Arch {
	a := Exynos2100Like()
	a.Name = "exynos2100-like-1core"
	a.Cores = a.Cores[:1]
	return a
}

// Subset returns an architecture exposing only the chosen cores of a,
// for compiling one network onto a core subset while other networks
// occupy the rest (multi-network concurrent execution). The shared
// parameters (bus, sync, clock) are inherited; contention with the
// other cores is the simulator's job.
func (a *Arch) Subset(cores []int) (*Arch, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("arch: empty core subset")
	}
	sub := *a
	sub.Name = fmt.Sprintf("%s-subset%v", a.Name, cores)
	sub.Cores = make([]Core, len(cores))
	for i, c := range cores {
		if c < 0 || c >= len(a.Cores) {
			return nil, fmt.Errorf("arch: core index %d out of range (0..%d)", c, len(a.Cores)-1)
		}
		sub.Cores[i] = a.Cores[c]
	}
	return &sub, nil
}

// Homogeneous returns an n-core NPU with identical cores, for
// scalability studies beyond the paper's three-core platform.
func Homogeneous(n int) *Arch {
	base := Exynos2100Like()
	cores := make([]Core, n)
	for i := range cores {
		cores[i] = base.Cores[0]
		cores[i].Name = fmt.Sprintf("P%d", i)
	}
	return &Arch{
		Name:              fmt.Sprintf("homogeneous-%dcore", n),
		ClockMHz:          base.ClockMHz,
		Cores:             cores,
		BusBytesPerCycle:  base.BusBytesPerCycle,
		SyncBaseCycles:    base.SyncBaseCycles,
		SyncPerCoreCycles: base.SyncPerCoreCycles,
		SyncJitterCycles:  base.SyncJitterCycles,
		DMASetupCycles:    base.DMASetupCycles,
		ComputeEfficiency: base.ComputeEfficiency,
		PJPerMAC:          base.PJPerMAC,
		PJPerDRAMByte:     base.PJPerDRAMByte,
	}
}
