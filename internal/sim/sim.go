// Package sim is a discrete-event simulator for compiled multicore-NPU
// programs. It models, per core, three in-order engines (DMA load,
// compute, DMA store) whose instructions overlap — the software
// pipeline — plus inter-core barriers with the architecture's
// synchronization cost and a shared global-memory bus with max–min
// fair bandwidth allocation among in-flight DMA transfers.
//
// This simulator substitutes for the paper's Exynos 2100 silicon: all
// compiler decisions are sensitive only to the structural parameters
// it models (compute rate, DMA bandwidth, bus ceiling, SPM capacity,
// barrier cost), so relative results keep their shape even though
// absolute cycle counts are synthetic.
//
// Two engines share this package: the production event-driven engine
// (engine.go — indexed min-heap event queue, ready-list issuance,
// incremental bus water-filling, pooled zero-allocation scratch) and
// the retained reference engine (reference.go — the original per-step
// rescanning implementation). Run and RunConcurrent use the event
// engine; RunReference exists for equivalence tests and A/B
// benchmarks, which hold the two bit-identical.
//
// The golden files pinning the engines (testdata/golden_cycles.json
// here, chrome_tinycnn.json under internal/trace) and the compiler
// output they run (compile_golden.json under internal/core) regenerate
// with go generate ./internal/sim:
//
//go:generate go test -run TestEngineGoldenCycles -update
//go:generate go test ../trace -run TestChromeGolden -update
//go:generate go test ../core -run TestCompileGolden -update
package sim

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Event is one retired instruction: the sample a Hook's OnInstr
// receives, and the element of a trace (a Recorder's Events) for Gantt
// rendering (Figure 12) and preemption cuts.
type Event struct {
	// Placement indexes the Placement slice of the run (0 for Run).
	Placement int
	// Core is the global core that executed the instruction.
	Core int
	// Index is the instruction's position within its core's stream
	// (placement-local), letting tools join events back to the program.
	Index int
	Op    plan.OpCode
	Layer graph.LayerID
	Tile  int
	Start float64 // cycles; retried DMA transfers keep their first issue time
	End   float64 // cycles
	// Bytes and MACs are the instruction's declared sizes (a dropped
	// and re-issued transfer reports Bytes once; Retries counts the
	// extra bus trips).
	Bytes int64
	MACs  int64
	// Retries counts how many times this instruction's DMA transfer
	// was dropped and re-issued before succeeding (fault injection).
	Retries int
	Note    string
}

// CoreStats aggregates one core's activity.
type CoreStats struct {
	ComputeBusy float64 // cycles the MAC array ran
	LoadBusy    float64 // cycles the load DMA ran
	StoreBusy   float64 // cycles the store DMA ran
	Idle        float64 // cycles with no engine active before finish
	SyncWait    float64 // cycles spent waiting at barriers
	BytesLoaded int64
	BytesStored int64
	MACs        int64
	// Retries counts injected DMA transfer drops that were re-issued
	// on this core (zero without fault injection).
	Retries int
	Finish  float64 // completion time of the core's last instruction
	// SPMPeakBytes is the core's scratch-pad high-water mark: the most
	// bytes its live buffers held at once, under the liveness rules of
	// the admission check (spmcheck.go). SPMPeakAtCycle is when that
	// peak was first reached, and SPMBuffers counts the buffers the
	// core allocated. A failed run's partial stats include buffers
	// issued but not yet finished.
	SPMPeakBytes   int64
	SPMPeakAtCycle float64
	SPMBuffers     int
}

// Stats is the outcome of one simulated run.
type Stats struct {
	// TotalCycles is the end-to-end latency (max over cores).
	TotalCycles float64
	// PerCore has one entry per core of the (global) architecture.
	PerCore []CoreStats
	// Barriers is the number of barrier rendezvous executed.
	Barriers int
	// ProgramCycles is each placed program's completion time. A
	// single-program run has one entry equal to TotalCycles.
	ProgramCycles []float64
}

// LatencyMicros converts the latency using the program's clock. A
// zero or negative clock is meaningless; the contract is to return 0
// rather than let +Inf/NaN leak into reports.
func (s *Stats) LatencyMicros(clockMHz int) float64 {
	if clockMHz <= 0 {
		return 0
	}
	return s.TotalCycles / float64(clockMHz)
}

// TotalMACs sums compute over cores (redundant work included).
func (s *Stats) TotalMACs() int64 {
	var m int64
	for _, c := range s.PerCore {
		m += c.MACs
	}
	return m
}

// TotalBytes sums DMA traffic over cores.
func (s *Stats) TotalBytes() int64 {
	var b int64
	for _, c := range s.PerCore {
		b += c.BytesLoaded + c.BytesStored
	}
	return b
}

// EnergyMicroJoules estimates the inference energy from the
// architecture's per-MAC and per-DRAM-byte costs. Stratum construction
// trades DRAM energy for MAC energy; this metric quantifies the
// exchange. The dtype factor is folded into the recorded MAC counts'
// compute times, so INT16 models approximate with the INT8 MAC cost
// times two.
// Negative cost coefficients are meaningless and yield 0, matching
// the LatencyMicros contract.
func (s *Stats) EnergyMicroJoules(pjPerMAC, pjPerDRAMByte float64, int16Model bool) float64 {
	if pjPerMAC < 0 || pjPerDRAMByte < 0 {
		return 0
	}
	macPJ := pjPerMAC
	if int16Model {
		macPJ *= 2
	}
	return (float64(s.TotalMACs())*macPJ + float64(s.TotalBytes())*pjPerDRAMByte) / 1e6
}

// Result bundles stats with, under FlipRate fault injection, the
// corruptions detected at stratum boundaries. A trace is not part of
// it: install a Recorder as Config.Hook to collect one.
type Result struct {
	Stats Stats
	// Corruptions lists every stratum whose boundary checksum caught
	// corrupted DMA bytes, ordered by (detection cycle, placement,
	// stratum); empty without FlipRate faults. Both engines compute it
	// with the same post-run pass, Checksums. The run completes —
	// silent corruption never stops execution — and the caller decides
	// whether to re-execute the affected strata.
	Corruptions []Corruption
}

// Config controls a simulation run.
type Config struct {
	// Ctx, when non-nil, is polled at cooperative checkpoints in both
	// engines' event loops; once it is done the run stops and returns a
	// *CanceledError (matching ErrCanceled and unwrapping to the
	// context's error). A nil Ctx costs one pointer compare per step.
	// Cancellation never perturbs an uncanceled run: with a live
	// context both engines stay bit-identical to a nil-context run.
	Ctx context.Context
	// Faults injects deterministic faults (nil or empty: none). A run
	// that loses a core returns a *CoreFailure error carrying the
	// checkpoint recovery resumes from.
	Faults *fault.Plan
	// Hook observes the run: every retired instruction, and on the
	// event engine the bus allocation series when it is also a BusHook
	// (see the Hook doc for the zero-overhead contract). Nil disables
	// observation.
	Hook Hook
	// WatchdogCycles enables the hang watchdog: per-core progress is
	// checked every WatchdogCycles simulated cycles, and a core that
	// owes instructions but shows no forward progress fails the run
	// with a typed *HangDetected carrying the recovery checkpoint.
	// Zero disables the watchdog. It arms only when Faults hangs a core
	// some placement occupies (fault.Plan.Hangs), the one fault that can
	// stall one: a heartbeat splits a step's DMA draining (moving timings
	// by the last ulp), so a run without such a hang stays bit-identical
	// with or without it. Both engines drop every fault event on an
	// unoccupied core for the same reason. A run whose plan has nothing
	// on its cores but flips thus times exactly like the clean run, which
	// is why core.Result.SimulateOn can answer it from the admission run.
	WatchdogCycles float64
}

const eps = 1e-6

// Placement assigns a compiled program to a subset of the global
// architecture's cores. Program core i runs on global core Cores[i];
// the program must have been compiled for an architecture whose core
// descriptors match (arch.Subset produces one).
//
// Placements sharing a core must list exactly the same cores: they
// form a stream and run back to back in slice order, each issuing
// nothing until the one before it has retired every instruction. Each
// keeps its program-local barrier IDs, so draws the same jitter.
type Placement struct {
	Program *plan.Program
	Cores   []int
}

// placementOwners checks placements (widths, core ranges, disjoint or
// repeated core lists), fills owner (global core -> last placement on
// it; the caller fills it with -1) and returns each placement's stream
// predecessor (-1 for none), reusing after; empty when no core list
// repeats.
func placementOwners(placements []Placement, owner, after []int32) ([]int32, error) {
	after = after[:0]
	for pi, pl := range placements {
		if len(pl.Cores) != len(pl.Program.Cores) {
			return nil, fmt.Errorf("sim: placement %d maps %d cores for a %d-core program",
				pi, len(pl.Cores), len(pl.Program.Cores))
		}
		for i, c := range pl.Cores {
			if c < 0 || c >= len(owner) {
				return nil, fmt.Errorf("sim: placement %d core %d out of range", pi, c)
			}
			q := owner[c]
			if q < 0 {
				owner[c] = int32(pi)
				continue
			}
			if i > 0 || !slices.Equal(placements[q].Cores, pl.Cores) {
				return nil, fmt.Errorf("sim: core %d claimed by placements %d and %d", c, q, pi)
			}
			if len(after) == 0 {
				after = resizeFill(after, len(placements), -1)
			}
			after[pi] = q
			for _, c := range pl.Cores {
				owner[c] = int32(pi)
			}
			break
		}
	}
	return after, nil
}

// Run simulates a single program occupying the whole architecture. It
// returns an error on deadlock, which indicates a compiler bug
// (plan.Program.Validate catches static cycles; deadlock here would
// come from barrier misuse).
func Run(p *plan.Program, cfg Config) (*Result, error) {
	return RunConcurrent(p.Arch, Whole(p), cfg)
}

// Whole is the placement Run simulates: p alone on every core of its
// architecture.
func Whole(p *plan.Program) []Placement {
	cores := make([]int, p.Arch.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return []Placement{{Program: p, Cores: cores}}
}

// jitter returns a deterministic pseudo-random barrier-release delay
// in [0, bound] cycles, keyed by barrier ID — the runtime's dynamic
// variance, reproducible across runs.
func jitter(barrierID int, bound int64) float64 {
	if bound <= 0 {
		return 0
	}
	h := uint64(barrierID+1) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h % uint64(bound+1))
}

// unionLength merges intervals and returns their covered length.
func unionLength(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	curLo, curHi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + (curHi - curLo)
}
