package npu

import (
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// Fault-tolerance aliases: inject deterministic faults into simulated
// runs and recover from core death onto the surviving cores.
type (
	// FaultPlan describes the faults injected into a run (DMA drops,
	// thermal throttles, core deaths); see ParseFaultSpec for the
	// command-line syntax.
	FaultPlan = fault.Plan
	// FaultThrottle is a sustained core slowdown from a given cycle.
	FaultThrottle = fault.Throttle
	// FaultDeath is a hard core failure at a given cycle.
	FaultDeath = fault.Death
	// FaultHang is a silent core stall from a given cycle: the core
	// stops retiring without any announcement, and only a watchdog
	// (Config.WatchdogCycles) turns it into a typed HangDetected.
	FaultHang = fault.Hang
	// FaultSlowdown is a silent throttle — invisible to the scheduler,
	// unlike FaultThrottle which models an announced DVFS step.
	FaultSlowdown = fault.Slowdown
	// CoreFailure is the typed error a fault-injected run returns when
	// a core becomes unusable; it carries the recovery checkpoint.
	CoreFailure = sim.CoreFailure
	// HangDetected is the typed error the watchdog raises when cores
	// with pending work silently stop making progress.
	HangDetected = sim.HangDetected
	// Corruption records one silently corrupted stratum, caught by the
	// stratum-boundary checksum.
	Corruption = sim.Corruption
	// RecoveryResult describes a completed degradation path: failures
	// handled, surviving cores, recompiled suffix, merged statistics.
	RecoveryResult = recovery.Result
)

// ParseFaultSpec parses the "drop=0.02,throttle=1@50000x0.5,
// kill=2@400000" command-line fault syntax; the seed drives the
// probabilistic drop decisions.
func ParseFaultSpec(spec string, seed uint64) (*FaultPlan, error) {
	return fault.ParseSpec(spec, seed)
}

// FaultReport is a Report whose run was subjected to a fault plan.
// When a core died, Stats merges the wasted attempts with the
// recovered rerun, and Recovery holds the degradation details.
type FaultReport struct {
	Report
	// Failures lists every core failure survived, in order. Empty when
	// the run completed without losing a core (drops and throttles may
	// still have slowed it — see Stats.PerCore Retries).
	Failures []*CoreFailure
	// Hangs lists every silent stall the watchdog caught and recovery
	// retired. Empty unless the run was watched (RunWithFaultsWatched)
	// and a hang fired mid-run.
	Hangs []*HangDetected
	// Corruptions lists the strata whose boundary checksums caught
	// flipped DMA payloads during the (final) run. The run still
	// completes; repair re-executes just these strata from their
	// DRAM-resident inputs, through the subgraph builder core-loss
	// recovery resumes with (see recovery.StratumGraph).
	Corruptions []Corruption
	// Recovery is the degradation path taken, nil if no core was lost.
	Recovery *RecoveryResult
}

// Degraded reports whether the run lost at least one core — to an
// announced failure or a detected hang.
func (fr *FaultReport) Degraded() bool { return len(fr.Failures)+len(fr.Hangs) > 0 }

// RunWithFaults compiles g, simulates it under the fault plan, and —
// if a core dies — re-partitions the unexecuted suffix onto the
// surviving cores and resumes from the checkpoint, repeating on
// cascading failures. Recovery never changes numerics (see
// ValidateRecovery); it only costs latency, which the report's merged
// statistics account for, re-dispatch penalties included.
//
// Hangs in the plan are injected but not detected: without a watchdog
// a silent stall surfaces as a deadlock error. Use RunWithFaultsWatched
// to arm detection.
func RunWithFaults(g *Graph, a *Arch, opt Options, plan *FaultPlan) (*FaultReport, error) {
	return RunWithFaultsWatched(g, a, opt, plan, 0)
}

// RunWithFaultsWatched is RunWithFaults with a progress watchdog: every
// watchdogCycles simulated cycles, each core with pending work is
// checked for forward progress, and a silent stall becomes a typed
// HangDetected that recovery handles exactly like a core death (the
// hung cores are retired, the suffix re-runs on the survivors).
// watchdogCycles <= 0 disables the watchdog.
//
// When the survivors cannot finish either (every core lost), the error
// is the original typed *CoreFailure or *HangDetected.
func RunWithFaultsWatched(g *Graph, a *Arch, opt Options, plan *FaultPlan, watchdogCycles float64) (*FaultReport, error) {
	res, err := Compile(g, a, opt)
	if err != nil {
		return nil, err
	}
	rec, err := recovery.Run(res, recovery.Options{
		Opt: opt,
		Sim: sim.Config{Faults: plan, WatchdogCycles: watchdogCycles},
	})
	if err != nil {
		return nil, err
	}
	fr := &FaultReport{
		Report:      Report{Stats: rec.MergedStats(), Arch: a, Config: opt.Name()},
		Failures:    rec.Failures,
		Hangs:       rec.Hangs,
		Corruptions: rec.Final.Corruptions,
	}
	if rec.Degraded() {
		fr.Recovery = rec
	}
	return fr, nil
}

// ValidateRecovery proves a recovered run reproduced the whole-graph
// reference bit-exactly. It is slow on full benchmark models; use
// small graphs.
func ValidateRecovery(g *Graph, r *RecoveryResult) error {
	return recovery.Validate(g, r)
}
