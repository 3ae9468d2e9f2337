// Package fault defines deterministic, seed-driven fault plans for the
// NPU simulator: the dynamic processor conditions a mobile SoC imposes
// on a compiled schedule. Three fault classes are modeled, mirroring
// what deployed multicore NPUs actually suffer:
//
//   - transient DMA transfer failures (dropped bus transactions,
//     re-issued with exponential backoff in simulated cycles — the
//     retried bytes consume real shared-bus bandwidth);
//   - sustained core slowdown (a thermal-throttle factor applied to a
//     core's compute and DMA rates from a given cycle on);
//   - hard core death (preemption by a higher-priority client, or a
//     hung engine) at a given cycle.
//
// Every decision is a pure function of (plan, seed, transfer identity),
// so a fixed (program, fault plan, seed) triple reproduces identical
// simulations bit for bit. Package sim consumes plans via Config.Faults
// and surfaces core death as a typed CoreFailure; package recovery
// re-partitions the unexecuted schedule suffix onto surviving cores.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultMaxRetries bounds re-issues of a single DMA transfer before
// the core is declared failed (the runtime cannot distinguish a link
// that drops every retry from a dead one).
const DefaultMaxRetries = 8

// Throttle is a sustained slowdown of one core: from AtCycle on, the
// core's compute and DMA rates are multiplied by Factor. A later
// Throttle for the same core overrides the factor (it is absolute, not
// cumulative), so a recovery-to-full-speed event is Factor: 1.
type Throttle struct {
	Core    int
	AtCycle float64
	Factor  float64 // in (0, 1]: 0.5 halves the core's rates
}

// Death is a hard core failure at AtCycle: the core executes nothing
// from that cycle on, and any simulation still needing it fails with a
// sim.CoreFailure carrying the last safe checkpoint.
type Death struct {
	Core    int
	AtCycle float64
}

// Hang is a silent core stall: from AtCycle on, the core stops
// retiring instructions — compute freezes mid-flight, its DMA engines
// stop moving bytes, and nothing new issues — without any failure
// being signaled. Unlike Death, the hardware never announces the
// condition; only a watchdog observing the absence of progress can.
// If ResumeAfter > 0 the core silently resumes at AtCycle+ResumeAfter,
// continuing exactly where it froze (a thermal stall that clears).
type Hang struct {
	Core        int
	AtCycle     float64
	ResumeAfter float64 // 0 = hangs forever
}

// Slowdown is a silent throttle: from AtCycle on, the core's compute
// and DMA rates are multiplied by Factor, exactly like Throttle —
// except the condition is not visible to the scheduler or watchdog
// bookkeeping (no announced event, no speed-change accounting). It
// models DVFS/thermal capping the runtime cannot observe directly.
// A later Slowdown for the same core overrides the factor.
type Slowdown struct {
	Core    int
	AtCycle float64
	Factor  float64 // in (0, 1]: 0.5 halves the core's rates, silently
}

// Plan describes the faults injected into one simulation run. The zero
// value (and a nil *Plan) injects nothing.
//
// Core indices refer to the simulated architecture's cores. The
// simulator validates them against the target architecture via
// ValidateFor and rejects out-of-range cores with a *CoreRangeError —
// a plan that names a core the hardware does not have is a
// configuration bug, not a fault to inject. (Recovery runs resume on
// the full global architecture with dead cores simply unplaced, so
// plans remain reusable across a failure cascade.)
type Plan struct {
	// Seed drives every probabilistic decision. Two runs of the same
	// program under the same plan and seed are identical.
	Seed uint64
	// DropRate is the per-DMA-transfer probability that the transfer
	// fails after moving its bytes and must be re-issued from scratch.
	DropRate float64
	// FlipRate is the per-DMA-transfer probability that the transfer
	// completes normally but delivers corrupted bytes — a silent data
	// corruption only a checksum at the next stratum boundary catches.
	FlipRate float64
	// MaxRetries bounds re-issues per transfer; a transfer dropped more
	// than MaxRetries times fails its core. Zero means
	// DefaultMaxRetries.
	MaxRetries int
	// Throttles lists sustained slowdowns, applied in AtCycle order.
	Throttles []Throttle
	// Deaths lists hard core failures.
	Deaths []Death
	// Hangs lists silent core stalls (watchdog-detectable only).
	Hangs []Hang
	// Slowdowns lists silent throttles (invisible to the scheduler).
	Slowdowns []Slowdown
}

// Empty reports whether the plan injects no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (p.DropRate <= 0 && p.FlipRate <= 0 &&
		len(p.Throttles) == 0 && len(p.Deaths) == 0 &&
		len(p.Hangs) == 0 && len(p.Slowdowns) == 0)
}

// KeepsTiming reports whether the plan leaves the timing of a run on
// the cores on marks (core c when c < len(on) and on[c]) exactly as a
// fault-free run's: it drops no transfer, and its Timeline on those
// cores is empty. A bit-flip corrupts data but never timing.
func (p *Plan) KeepsTiming(on []bool) bool {
	return p == nil || (p.DropRate <= 0 && len(p.Timeline(on, nil)) == 0)
}

// Retries returns the effective per-transfer retry bound.
func (p *Plan) Retries() int {
	if p == nil || p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// Validate checks the plan's parameters are sensible. It does not
// range-check core indices against an architecture — use ValidateFor
// once the target core count is known.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.DropRate < 0 || p.DropRate >= 1 {
		return fmt.Errorf("fault: drop rate %g outside [0, 1)", p.DropRate)
	}
	if p.FlipRate < 0 || p.FlipRate >= 1 {
		return fmt.Errorf("fault: flip rate %g outside [0, 1)", p.FlipRate)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative retry bound %d", p.MaxRetries)
	}
	for _, t := range p.Throttles {
		if t.Factor <= 0 || t.Factor > 1 {
			return fmt.Errorf("fault: throttle factor %g outside (0, 1]", t.Factor)
		}
		if t.Core < 0 || t.AtCycle < 0 {
			return fmt.Errorf("fault: throttle core %d at cycle %g", t.Core, t.AtCycle)
		}
	}
	for _, d := range p.Deaths {
		if d.Core < 0 || d.AtCycle < 0 {
			return fmt.Errorf("fault: death core %d at cycle %g", d.Core, d.AtCycle)
		}
	}
	for _, h := range p.Hangs {
		if h.Core < 0 || h.AtCycle < 0 {
			return fmt.Errorf("fault: hang core %d at cycle %g", h.Core, h.AtCycle)
		}
		if h.ResumeAfter < 0 {
			return fmt.Errorf("fault: hang resume delay %g is negative", h.ResumeAfter)
		}
	}
	for _, s := range p.Slowdowns {
		if s.Factor <= 0 || s.Factor > 1 {
			return fmt.Errorf("fault: slowdown factor %g outside (0, 1]", s.Factor)
		}
		if s.Core < 0 || s.AtCycle < 0 {
			return fmt.Errorf("fault: slowdown core %d at cycle %g", s.Core, s.AtCycle)
		}
	}
	return nil
}

// CoreRangeError is returned by ValidateFor when a plan names a core
// the target architecture does not have.
type CoreRangeError struct {
	What   string // event kind: "throttle", "kill", "hang", "slow"
	Core   int
	NCores int
}

func (e *CoreRangeError) Error() string {
	return fmt.Sprintf("fault: %s names core %d but the architecture has cores 0..%d",
		e.What, e.Core, e.NCores-1)
}

// ValidateFor runs Validate and additionally rejects, with a typed
// *CoreRangeError, any timed event naming a core at or beyond ncores.
// Historically such events were silently dropped; a plan that
// references hardware that does not exist is a configuration bug and
// is now surfaced as one.
func (p *Plan) ValidateFor(ncores int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p == nil {
		return nil
	}
	for _, t := range p.Throttles {
		if t.Core >= ncores {
			return &CoreRangeError{What: "throttle", Core: t.Core, NCores: ncores}
		}
	}
	for _, d := range p.Deaths {
		if d.Core >= ncores {
			return &CoreRangeError{What: "kill", Core: d.Core, NCores: ncores}
		}
	}
	for _, h := range p.Hangs {
		if h.Core >= ncores {
			return &CoreRangeError{What: "hang", Core: h.Core, NCores: ncores}
		}
	}
	for _, s := range p.Slowdowns {
		if s.Core >= ncores {
			return &CoreRangeError{What: "slow", Core: s.Core, NCores: ncores}
		}
	}
	return nil
}

// Drops decides deterministically whether the transfer identified by
// its global instruction id fails on the given attempt (0 = first
// issue). The decision is a pure hash of (seed, transfer, attempt).
func (p *Plan) Drops(transfer, attempt int) bool {
	if p == nil || p.DropRate <= 0 {
		return false
	}
	h := splitmix(p.Seed ^ splitmix(uint64(transfer)+1) ^ splitmix(uint64(attempt)*0x9E3779B97F4A7C15+0xD1CE))
	// Top 53 bits to a uniform float in [0, 1).
	u := float64(h>>11) / float64(1<<53)
	return u < p.DropRate
}

// Flips decides deterministically whether the transfer identified by
// its global instruction id delivers corrupted bytes on the given
// attempt. The hash stream is salted differently from Drops so drop
// and flip decisions for the same transfer are independent.
func (p *Plan) Flips(transfer, attempt int) bool {
	if p == nil || p.FlipRate <= 0 {
		return false
	}
	h := splitmix(p.Seed ^ splitmix(uint64(transfer)+0xF11B) ^ splitmix(uint64(attempt)*0x9E3779B97F4A7C15+0x5DC0))
	u := float64(h>>11) / float64(1<<53)
	return u < p.FlipRate
}

// BackoffCycles returns the re-issue delay after the attempt-th drop:
// exponential in the architecture's DMA setup cost, capped so a long
// retry chain stays bounded (attempt 1 waits 2x setup, attempt 2 4x,
// ... up to 256x).
func BackoffCycles(dmaSetupCycles int64, attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt
	if shift > 8 {
		shift = 8
	}
	base := dmaSetupCycles
	if base <= 0 {
		base = 1
	}
	return float64(base << uint(shift))
}

// EventKind classifies one entry of a merged fault timeline.
type EventKind int

// Timeline event kinds. KindThrottle sorts before KindDeath at equal
// cycles, matching the simulator's historical fire order; the silent
// kinds follow in declaration order.
const (
	KindThrottle EventKind = iota
	KindDeath
	KindSlowdown
	KindHang
	KindResume
)

// TimedEvent is one fault event on the merged timeline: a throttle or
// silent slowdown (Factor set), a death, a hang, or a hang resume
// (Factor unused).
type TimedEvent struct {
	Kind    EventKind
	Core    int
	AtCycle float64
	Factor  float64
}

// Timeline merges the plan's throttles, deaths, hangs (each hang with
// ResumeAfter > 0 also synthesizing a KindResume event at
// AtCycle+ResumeAfter), and silent slowdowns into one event queue
// sorted by (AtCycle, kind, core, declaration order) — the order the
// simulator's event engine consumes them in. The core tie-break keeps
// the order independent of how the plan happened to list same-cycle,
// same-kind events on different cores. Only events on the cores on
// marks (core c when c < len(on) and on[c]) are kept: the simulator
// marks the cores its placements occupy, after ValidateFor has rejected
// cores the architecture lacks, since an event on a core with no work
// has nothing to act on. The returned slice is appended to buf, letting
// callers reuse a scratch buffer across runs without steady-state
// allocation.
func (p *Plan) Timeline(on []bool, buf []TimedEvent) []TimedEvent {
	if p == nil {
		return buf[:0]
	}
	out := buf[:0]
	for _, t := range p.Throttles {
		if marked(on, t.Core) {
			out = append(out, TimedEvent{Kind: KindThrottle, Core: t.Core, AtCycle: t.AtCycle, Factor: t.Factor})
		}
	}
	for _, d := range p.Deaths {
		if marked(on, d.Core) {
			out = append(out, TimedEvent{Kind: KindDeath, Core: d.Core, AtCycle: d.AtCycle})
		}
	}
	for _, s := range p.Slowdowns {
		if marked(on, s.Core) {
			out = append(out, TimedEvent{Kind: KindSlowdown, Core: s.Core, AtCycle: s.AtCycle, Factor: s.Factor})
		}
	}
	for _, h := range p.Hangs {
		if marked(on, h.Core) {
			out = append(out, TimedEvent{Kind: KindHang, Core: h.Core, AtCycle: h.AtCycle})
			if h.ResumeAfter > 0 {
				out = append(out, TimedEvent{Kind: KindResume, Core: h.Core, AtCycle: h.AtCycle + h.ResumeAfter})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].AtCycle != out[j].AtCycle {
			return out[i].AtCycle < out[j].AtCycle
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Core < out[j].Core
	})
	return out
}

// marked reports whether on marks core c.
func marked(on []bool, c int) bool { return c < len(on) && on[c] }

// ParseSpec parses the command-line fault specification: a
// comma-separated list of clauses
//
//	drop=RATE              per-transfer DMA drop probability in [0, 1)
//	flip=RATE              per-transfer silent-corruption probability in [0, 1)
//	retries=N              per-transfer retry bound (default 8)
//	throttle=CORE@CYCLExFACTOR  slow CORE to FACTOR of its rates from CYCLE
//	slow=CORE@CYCLExFACTOR      same, but silent (invisible to the scheduler)
//	kill=CORE@CYCLE        hard core death at CYCLE
//	hang=CORE@CYCLE[+RESUME]    silent stall at CYCLE, resuming RESUME cycles later if given
//
// e.g. "drop=0.02,throttle=1@50000x0.5,kill=2@400000" or
// "hang=1@200000+50000,flip=0.001". The seed drives the drop and flip
// decisions; the same (spec, seed) is fully reproducible.
func ParseSpec(spec string, seed uint64) (*Plan, error) {
	p := &Plan{Seed: seed}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		switch key {
		case "drop":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: drop rate %q: %v", val, err)
			}
			p.DropRate = r
		case "flip":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: flip rate %q: %v", val, err)
			}
			p.FlipRate = r
		case "retries":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fault: retries %q: %v", val, err)
			}
			p.MaxRetries = n
		case "throttle":
			at, rest, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: throttle %q wants CORE@CYCLExFACTOR", val)
			}
			cyc, fac, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("fault: throttle %q wants CORE@CYCLExFACTOR", val)
			}
			core, err := strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("fault: throttle core %q: %v", at, err)
			}
			cycle, err := strconv.ParseFloat(cyc, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: throttle cycle %q: %v", cyc, err)
			}
			factor, err := strconv.ParseFloat(fac, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: throttle factor %q: %v", fac, err)
			}
			p.Throttles = append(p.Throttles, Throttle{Core: core, AtCycle: cycle, Factor: factor})
		case "slow":
			at, rest, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: slow %q wants CORE@CYCLExFACTOR", val)
			}
			cyc, fac, ok := strings.Cut(rest, "x")
			if !ok {
				return nil, fmt.Errorf("fault: slow %q wants CORE@CYCLExFACTOR", val)
			}
			core, err := strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("fault: slow core %q: %v", at, err)
			}
			cycle, err := strconv.ParseFloat(cyc, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: slow cycle %q: %v", cyc, err)
			}
			factor, err := strconv.ParseFloat(fac, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: slow factor %q: %v", fac, err)
			}
			p.Slowdowns = append(p.Slowdowns, Slowdown{Core: core, AtCycle: cycle, Factor: factor})
		case "hang":
			at, rest, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: hang %q wants CORE@CYCLE[+RESUME]", val)
			}
			core, err := strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("fault: hang core %q: %v", at, err)
			}
			cyc, res, resumes := strings.Cut(rest, "+")
			cycle, err := strconv.ParseFloat(cyc, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: hang cycle %q: %v", cyc, err)
			}
			h := Hang{Core: core, AtCycle: cycle}
			if resumes {
				r, err := strconv.ParseFloat(res, 64)
				if err != nil {
					return nil, fmt.Errorf("fault: hang resume %q: %v", res, err)
				}
				h.ResumeAfter = r
			}
			p.Hangs = append(p.Hangs, h)
		case "kill":
			at, cyc, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("fault: kill %q wants CORE@CYCLE", val)
			}
			core, err := strconv.Atoi(at)
			if err != nil {
				return nil, fmt.Errorf("fault: kill core %q: %v", at, err)
			}
			cycle, err := strconv.ParseFloat(cyc, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: kill cycle %q: %v", cyc, err)
			}
			p.Deaths = append(p.Deaths, Death{Core: core, AtCycle: cycle})
		default:
			return nil, fmt.Errorf("fault: unknown clause %q (drop, flip, retries, throttle, slow, kill, hang)", key)
		}
	}
	return p, p.Validate()
}

// String renders the plan in ParseSpec syntax (seed excluded).
func (p *Plan) String() string {
	if p.Empty() {
		return "none"
	}
	var parts []string
	if p.DropRate > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.DropRate))
	}
	if p.FlipRate > 0 {
		parts = append(parts, fmt.Sprintf("flip=%g", p.FlipRate))
	}
	if p.MaxRetries > 0 {
		parts = append(parts, fmt.Sprintf("retries=%d", p.MaxRetries))
	}
	for _, t := range p.Throttles {
		parts = append(parts, fmt.Sprintf("throttle=%d@%gx%g", t.Core, t.AtCycle, t.Factor))
	}
	for _, s := range p.Slowdowns {
		parts = append(parts, fmt.Sprintf("slow=%d@%gx%g", s.Core, s.AtCycle, s.Factor))
	}
	for _, d := range p.Deaths {
		parts = append(parts, fmt.Sprintf("kill=%d@%g", d.Core, d.AtCycle))
	}
	for _, h := range p.Hangs {
		if h.ResumeAfter > 0 {
			parts = append(parts, fmt.Sprintf("hang=%d@%g+%g", h.Core, h.AtCycle, h.ResumeAfter))
		} else {
			parts = append(parts, fmt.Sprintf("hang=%d@%g", h.Core, h.AtCycle))
		}
	}
	return strings.Join(parts, ",")
}

// splitmix is SplitMix64, the repository's standard deterministic
// value generator (also used by the numeric executor).
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
