package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
)

// FailureKind classifies why a simulated core became unusable.
type FailureKind int

const (
	// FailCoreDeath: a fault.Death fired while the core still had
	// unexecuted instructions.
	FailCoreDeath FailureKind = iota
	// FailDMAExhausted: a single DMA transfer was dropped more times
	// than the plan's retry bound — the runtime treats the core's link
	// as dead.
	FailDMAExhausted
)

func (k FailureKind) String() string {
	switch k {
	case FailCoreDeath:
		return "core-death"
	case FailDMAExhausted:
		return "dma-retries-exhausted"
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// CoreFailure is the typed error a fault-injected run returns when a
// core becomes unusable mid-program. It carries everything a recovery
// runtime needs: which core died, when, the checkpoint to resume from,
// and the statistics accumulated up to the failure (so degraded-mode
// latency can account for the wasted cycles).
type CoreFailure struct {
	Kind FailureKind
	// Core is the global core index that failed.
	Core int
	// Placement indexes the placement the core was running (0 for
	// single-program Run; -1 if the core was unassigned).
	Placement int
	// AtCycle is the simulated time of the failure.
	AtCycle float64
	// Completed is the checkpoint: the longest prefix of the failed
	// placement's layer execution order (its strata, flattened) whose
	// layers all finished every instruction AND whose results needed
	// outside the prefix were stored to global memory. Because
	// forwarding and stratum layers keep intermediates in SPM without
	// stores, this cut naturally falls on a barrier or stratum
	// boundary — exactly the paper's synchronization points.
	Completed []graph.LayerID
	// Partial holds the statistics accumulated up to AtCycle.
	Partial Stats
}

func (f *CoreFailure) Error() string {
	return fmt.Sprintf("sim: core %d failed (%s) at cycle %.0f with %d layers checkpointed",
		f.Core, f.Kind, f.AtCycle, len(f.Completed))
}

// HangDetected is the typed error the watchdog returns when one or
// more cores with pending work have silently stopped making progress.
// Unlike CoreFailure it is raised by detection, not by the fault
// itself: the simulated time is the heartbeat at which the stall was
// observed, not the cycle the hang was injected. It carries the same
// recovery payload as CoreFailure — checkpoint and partial stats — so
// recovery can re-map the suffix onto the survivors.
type HangDetected struct {
	// Cores lists every core the watchdog found stalled at this
	// heartbeat, ascending. (A single SoC-level event — e.g. a power
	// domain browning out — can stall several cores at once.)
	Cores []int
	// Placement indexes the placement of Cores[0] (-1 if unassigned).
	Placement int
	// AtCycle is the heartbeat at which the stall was detected; the
	// detection latency is AtCycle minus the injection cycle, bounded
	// by the heartbeat interval for a core that was mid-instruction.
	AtCycle float64
	// Completed is the checkpoint of the first stalled core's
	// placement (same cut rule as CoreFailure.Completed).
	Completed []graph.LayerID
	// Partial holds the statistics accumulated up to AtCycle.
	Partial Stats
}

func (h *HangDetected) Error() string {
	return fmt.Sprintf("sim: watchdog: core %d hung (no progress) detected at cycle %.0f with %d layers checkpointed",
		h.Cores[0], h.AtCycle, len(h.Completed))
}

// Loss is the recovery payload a survivable failure carries: the
// fields *CoreFailure and *HangDetected share. Exactly one of Failure
// and Hang is set, and the other fields are copied from it.
type Loss struct {
	Failure *CoreFailure
	Hang    *HangDetected
	// Cores are the global cores lost: the dead core, or every core
	// the watchdog found stalled.
	Cores []int
	// Placement indexes the failed placement (-1 if unassigned).
	Placement int
	// AtCycle is the failure (or detection) time in the run's clock.
	AtCycle float64
	// Completed is the checkpoint to resume from.
	Completed []graph.LayerID
	// Partial points at the statistics accumulated up to AtCycle.
	Partial *Stats
}

// LossOf is the one place that decides whether a run's error is
// survivable: it reports whether err is (or wraps) a *CoreFailure or a
// *HangDetected, and returns the lost cores and the checkpoint. Every
// other error — deadlock, SPM overflow, cancellation, a bad fault
// spec — is fatal to the run and yields ok == false.
func LossOf(err error) (l Loss, ok bool) {
	var cf *CoreFailure
	if errors.As(err, &cf) {
		return Loss{Failure: cf, Cores: []int{cf.Core}, Placement: cf.Placement,
			AtCycle: cf.AtCycle, Completed: cf.Completed, Partial: &cf.Partial}, true
	}
	var hd *HangDetected
	if errors.As(err, &hd) {
		return Loss{Hang: hd, Cores: hd.Cores, Placement: hd.Placement,
			AtCycle: hd.AtCycle, Completed: hd.Completed, Partial: &hd.Partial}, true
	}
	return Loss{}, false
}

// Corruption records one silently corrupted stratum: some DMA
// transfer feeding the stratum delivered flipped bytes, and the
// stratum-boundary checksum caught it when the stratum's last
// instruction retired. Re-executing just that stratum (its inputs are
// DRAM-resident at the boundary) repairs the run — the blast radius
// is bounded by the checksum granularity.
type Corruption struct {
	// Placement indexes the placement the stratum belongs to.
	Placement int
	// Stratum is the index into the placement program's Strata.
	Stratum int
	// DetectedAtCycle is when the stratum's checksum was verified —
	// the completion time of its last instruction.
	DetectedAtCycle float64
	// Transfers counts the corrupted DMA transfers in the stratum.
	Transfers int
}

// faultState is the per-run mutable view of a fault.Plan: the merged
// event timeline (fault.Timeline, in firing order) plus the current
// effective speed/liveness of every core. The effective speed is the
// product of the announced throttle factor and the silent slowdown
// factor, forced to 0 while the core is hung; throttleF/silentF/hung
// keep the components so a resume restores exactly the pre-hang
// speed. All buffers are reusable so a pooled engine run injects
// faults without steady-state allocation.
type faultState struct {
	plan       *fault.Plan
	maxRetries int
	speed      []float64 // effective: throttleF * silentF, 0 while hung
	throttleF  []float64
	silentF    []float64
	hung       []bool
	dead       []bool
	events     []fault.TimedEvent // merged timeline, pending from pos on
	pos        int
	fired      []firedEvent // reusable fire() output buffer
}

// firedEvent is one fault event applied at the current time.
type firedEvent struct {
	kind     fault.EventKind
	core     int
	oldSpeed float64 // effective speed before the event
	newSpeed float64 // effective speed after the event
}

// init validates and loads a plan for ncores cores, reusing fs's
// buffers. It reports whether the plan injects anything; an empty
// plan leaves the fault-free simulation path untouched. Plans naming
// cores outside the architecture are rejected with a typed
// *fault.CoreRangeError.
func (fs *faultState) init(p *fault.Plan, ncores int) (bool, error) {
	if p.Empty() {
		return false, nil
	}
	if err := p.ValidateFor(ncores); err != nil {
		return false, err
	}
	fs.plan = p
	fs.maxRetries = p.Retries()
	if cap(fs.speed) < ncores {
		fs.speed = make([]float64, ncores)
		fs.throttleF = make([]float64, ncores)
		fs.silentF = make([]float64, ncores)
		fs.hung = make([]bool, ncores)
		fs.dead = make([]bool, ncores)
	}
	fs.speed = fs.speed[:ncores]
	fs.throttleF = fs.throttleF[:ncores]
	fs.silentF = fs.silentF[:ncores]
	fs.hung = fs.hung[:ncores]
	fs.dead = fs.dead[:ncores]
	for i := range fs.speed {
		fs.speed[i] = 1
		fs.throttleF[i] = 1
		fs.silentF[i] = 1
		fs.hung[i] = false
		fs.dead[i] = false
	}
	fs.events = p.Timeline(ncores, fs.events)
	fs.pos = 0
	return true, nil
}

// newFaultState validates and instantiates a plan for ncores cores.
// An empty (or nil) plan yields a nil state.
func newFaultState(p *fault.Plan, ncores int) (*faultState, error) {
	fs := &faultState{}
	active, err := fs.init(p, ncores)
	if err != nil || !active {
		return nil, err
	}
	return fs, nil
}

// next returns the earliest pending fault-event time, or +Inf.
func (fs *faultState) next() float64 {
	if fs.pos >= len(fs.events) {
		return math.Inf(1)
	}
	return fs.events[fs.pos].AtCycle
}

// fire pops and applies every event due at or before now, in time
// order, and returns them for the simulator to act on (rescaling
// in-flight compute, freezing hung cores, failing dead cores with
// pending work). Speed-affecting events (throttle, slowdown) landing
// on a hung core update the component factor but emit oldSpeed ==
// newSpeed == 0 — the effective speed stays zero until the resume.
// The returned slice is valid until the next call.
func (fs *faultState) fire(now float64) []firedEvent {
	out := fs.fired[:0]
	for fs.pos < len(fs.events) && fs.events[fs.pos].AtCycle <= now+eps {
		ev := fs.events[fs.pos]
		fs.pos++
		old := fs.speed[ev.Core]
		switch ev.Kind {
		case fault.KindDeath:
			fs.dead[ev.Core] = true
			out = append(out, firedEvent{kind: ev.Kind, core: ev.Core})
			continue
		case fault.KindThrottle:
			fs.throttleF[ev.Core] = ev.Factor
		case fault.KindSlowdown:
			fs.silentF[ev.Core] = ev.Factor
		case fault.KindHang:
			fs.hung[ev.Core] = true
		case fault.KindResume:
			fs.hung[ev.Core] = false
		}
		newSpeed := fs.throttleF[ev.Core] * fs.silentF[ev.Core]
		if fs.hung[ev.Core] {
			newSpeed = 0
		}
		fs.speed[ev.Core] = newSpeed
		out = append(out, firedEvent{kind: ev.Kind, core: ev.Core, oldSpeed: old, newSpeed: newSpeed})
	}
	fs.fired = out
	return out
}

// StratumLayers returns the layers of the program stratum a
// Corruption names, mirroring the engines' checksum granularity: the
// program's strata when it has them, otherwise one stratum per layer.
func StratumLayers(p *plan.Program, stratum int) []graph.LayerID {
	if len(p.Strata) == 0 {
		return []graph.LayerID{graph.LayerID(stratum)}
	}
	return p.Strata[stratum]
}

// deadlockError builds the quiescent-machine diagnostic, shared by
// both engines so the message (and thus error-comparing tests) stays
// identical. When cores are silently hung with work outstanding the
// message names them — that is the deadlock's cause, and the fix is a
// watchdog.
func deadlockError(now float64, completed, total int, hungPending []int) error {
	if len(hungPending) > 0 {
		return fmt.Errorf("sim: deadlock at t=%.0f with %d/%d instructions done; cores %v silently hung with pending work (set Config.WatchdogCycles to detect hangs)",
			now, completed, total, hungPending)
	}
	return fmt.Errorf("sim: deadlock at t=%.0f with %d/%d instructions done", now, completed, total)
}

// checkpoint computes the recovery cut for a partially executed
// program: the longest prefix of the flattened strata order such that
// (a) every prefix layer completed all its instructions, and (b) every
// prefix layer with a consumer outside the prefix published its output
// to global memory via at least one Store. Condition (b) is what makes
// the cut safe — forwarded/stratum intermediates live only in the dead
// core's SPM and cannot seed a resumed run.
func checkpoint(p *plan.Program, done, total []int, hasStore []bool) []graph.LayerID {
	var order []graph.LayerID
	for _, s := range p.Strata {
		order = append(order, s...)
	}
	if len(order) == 0 {
		return nil
	}
	pos := make(map[graph.LayerID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	// k = longest fully-executed prefix.
	k := 0
	for k < len(order) {
		id := order[k]
		if done[id] < total[id] {
			break
		}
		k++
	}
	// Largest j <= k where every prefix layer is either stored or has
	// all consumers inside the prefix.
	for j := k; j > 0; j-- {
		ok := true
		for i := 0; i < j && ok; i++ {
			id := order[i]
			if hasStore[id] {
				continue
			}
			for _, u := range p.Graph.Users(id) {
				pu, in := pos[u]
				if !in || pu >= j {
					ok = false
					break
				}
			}
		}
		if ok {
			return append([]graph.LayerID(nil), order[:j]...)
		}
	}
	return nil
}
