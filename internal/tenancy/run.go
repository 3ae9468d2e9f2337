package tenancy

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// cycleEps matches the simulator's time-comparison tolerance.
const cycleEps = 1e-6

// maxEpochInstrs caps the instructions one epoch's co-run simulates,
// summed over every stream element: the engine builds a node per
// instruction before it first polls its context. The 20 ms default
// needs under 170k, even for four TinyCNN tenants on a core each.
const maxEpochInstrs = 1 << 20

// EpochTooLongError reports an epoch whose co-run would simulate more
// than maxEpochInstrs instructions.
type EpochTooLongError struct {
	EpochUS, Instrs float64 // the epoch, and the instructions it needs
	Limit           int
}

func (e *EpochTooLongError) Error() string {
	return fmt.Sprintf("tenancy: a %.0f us epoch would simulate %.0f instructions, over the limit of %d; shorten the horizon",
		e.EpochUS, e.Instrs, e.Limit)
}

// Run simulates the tenants sharing one platform over the horizon and
// returns per-tenant serving statistics. Arrivals and departures cut
// the horizon into epochs, and each epoch is one co-run in which every
// admitted tenant runs inferences back to back on its core subset, a
// sim.RunConcurrent stream (its preempted inference's suffix first),
// sharing the bus max–min fair: each inference's latency includes the
// interference the report measures against a fault-free isolated run
// of the same program. Inferences retired by the epoch's end are
// booked at their own durations; the one running is preempted at the
// stratum boundary its per-layer finish cycles imply (sim.CutAtCycle).
// Survivors are re-placed (priority first, sticky) and their suffixes
// re-compiled bit-exactly through recovery.Remap. Clean co-runs are
// memoized process-wide (see coRunMemo).
//
// Everything is deterministic: same (arch, tenants, options) inputs
// produce identical reports, byte for byte.
func Run(a *arch.Arch, tenants []Tenant, opts Options) (*Report, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenancy: no tenants")
	}
	clock := float64(a.ClockMHz)
	if clock <= 0 {
		return nil, fmt.Errorf("tenancy: arch %s has no clock", a.Name)
	}
	horizon := opts.horizonUS() * clock
	opt := opts.opt()

	states := make([]*tenantState, len(tenants))
	seen := map[string]bool{}
	for i := range tenants {
		t := &tenants[i]
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("tenancy: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		g, err := buildModel(t.Model)
		if err != nil {
			return nil, err
		}
		states[i] = &tenantState{spec: t, index: i, g: g, firstUS: -1}
	}

	// Epoch boundaries: start, horizon, and every arrival/departure
	// strictly inside the window.
	timeSet := map[float64]bool{0: true, horizon: true}
	for _, ts := range states {
		if at := ts.spec.ArriveUS * clock; at > 0 && at < horizon {
			timeSet[at] = true
		}
		if dt := ts.spec.DepartUS * clock; dt > 0 && dt < horizon {
			timeSet[dt] = true
		}
	}
	times := sortedKeys(timeSet)

	// Isolated baselines are fault-free by construction: interference
	// must measure bus contention, not injected faults.
	icfg := sim.Config{Ctx: opts.Sim.Ctx}

	// Degradation state: cores retired mid-horizon by a detected hang
	// or an announced failure never host tenants again; the serving loop
	// shrinks around them instead of erroring out.
	dead := map[int]bool{}
	alive := func() int { return a.NumCores() - len(dead) }
	var failureLog []string

	// A program alone on its subset runs exactly as it did when the
	// compiler admitted it for a.Subset(cores), so the isolated
	// baseline is the admission run and coSims counts only co-runs.
	coSims := 0
	remap := func(ts *tenantState, c *recovery.Checkpoint) (*recovery.Remapped, float64, error) {
		rm, err := recovery.Remap(opts.Sim.Ctx, ts.g, c, a, ts.cores, opt)
		if err != nil {
			return nil, 0, fmt.Errorf("tenancy: tenant %s: %w", ts.spec.Name, err)
		}
		out, err := rm.Compiled.Simulate(icfg)
		if err != nil {
			return nil, 0, fmt.Errorf("tenancy: tenant %s isolated run: %w", ts.spec.Name, err)
		}
		return rm, out.Stats.ProgramCycles[0], nil
	}

	// setPrograms compiles ts's model for its cores and, when it has a
	// preempted inference, the suffix past its checkpoint, with their
	// isolated latencies.
	setPrograms := func(ts *tenantState) (err error) {
		if ts.full, ts.fullIso, err = remap(ts, nil); err != nil {
			return err
		}
		ts.resume = nil
		if !ts.ckpt.Empty() {
			ts.resume, ts.resumeIso, err = remap(ts, &ts.ckpt)
		}
		return err
	}

	// cosim co-runs the admitted tenants' streams for an epoch of D
	// cycles and returns what booking reads of each and the cycle they
	// are cut at: the epoch's end, or a core loss, whose error comes
	// back with the runs. A clean co-run is served from the memo when it
	// has run before; a fault plan, a program from outside the compile
	// cache, or a context already done (so the engine returns its own
	// cancellation) bypasses it.
	cosim := func(admitted []*tenantState, D float64) ([]streamRun, float64, error) {
		// Each stream outlasts the epoch at isolated speed, and
		// co-running only slows it.
		counts := make([]int, len(admitted))
		instrs := 0.0
		for i, ts := range admitted {
			full := D
			if ts.resume != nil {
				full -= ts.resumeIso
				counts[i] = 1
				instrs += float64(ts.resume.Compiled.Program.NumInstrs())
			}
			n := math.Floor(max(full, 0)/ts.fullIso) + 1
			if instrs += n * float64(ts.full.Compiled.Program.NumInstrs()); instrs > maxEpochInstrs {
				return nil, 0, &EpochTooLongError{EpochUS: D / clock, Instrs: instrs, Limit: maxEpochInstrs}
			}
			counts[i] += int(n)
		}
		key, memoize := "", false
		if opts.Sim.Faults.Empty() && (opts.Sim.Ctx == nil || opts.Sim.Ctx.Err() == nil) {
			key, memoize = coRunKey(a, admitted, D)
		}
		if memoize {
			if r, ok := memo.Get(key); ok {
				coSims++
				return r, D, nil
			}
		}
		var placements []sim.Placement
		for i, ts := range admitted {
			for j := range counts[i] {
				rm, _ := ts.element(j)
				placements = append(placements, sim.Placement{Program: rm.Compiled.Program, Cores: ts.cores})
			}
		}
		fin := sim.NewLayerFinish(placements)
		cfg := opts.Sim
		cfg.Hook = fin
		_, err := sim.RunConcurrent(a, placements, cfg)
		cut := D
		loss, lost := sim.LossOf(err)
		if err != nil {
			err = fmt.Errorf("tenancy: co-run: %w", err)
			if !lost {
				return nil, 0, err
			}
			cut = loss.AtCycle
		}
		coSims++
		runs := make([]streamRun, len(admitted))
		p := 0
		for i := range admitted {
			for j := p; j < p+counts[i]; j++ {
				if end := slices.Max(fin.Finish[j]); end <= cut+cycleEps {
					runs[i].ends = append(runs[i].ends, end)
					continue
				}
				runs[i].running = true
				if lost && j == loss.Placement {
					runs[i].cut = loss.Completed // the engine's own checkpoint
				} else {
					runs[i].cut = sim.CutAtCycle(placements[j].Program, fin.Finish[j], cut)
				}
				break
			}
			p += counts[i]
		}
		if memoize {
			memo.Put(key, runs)
		}
		return runs, cut, err
	}

	// book credits ts with its stream's run up to the cut: each retired
	// inference at its own duration, the first one plus the cycles ts
	// carried into the epoch, and the inference still running preempted
	// at its checkpoint, folded into original-graph IDs.
	book := func(ts *tenantState, r *streamRun, cut float64) {
		start := 0.0
		for j, end := range r.ends {
			_, I := ts.element(j)
			L := end - start
			latency := ts.carried + L
			ts.infs++
			ts.sumLatency += latency
			if ts.spec.SLOUS <= 0 || latency <= ts.spec.SLOUS*clock+cycleEps {
				ts.hits++
			}
			ts.sumIsolated += I
			ts.sumInterf += (L - I) / I * 100
			ts.ckpt, ts.carried = recovery.Checkpoint{}, 0
			start = end
		}
		if r.running {
			rm, _ := ts.element(len(r.ends))
			ts.ckpt.Fold(ts.g, r.cut, rm.Origin)
			ts.carried += cut - start
			ts.preempts++
		}
	}

	// admit places the front of active, in precedence order, counting
	// re-maps and recompiling every tenant for its (possibly new)
	// subset. At most one tenant runs per surviving core; the rest
	// queue, checkpoints intact, until a slot frees.
	admit := func(active []*tenantState, nowUS float64) ([]*tenantState, error) {
		admitted := active[:min(len(active), alive())]
		prev := make([][]int, len(admitted))
		for i, ts := range active {
			if i >= len(admitted) {
				ts.cores = nil
				continue
			}
			prev[i] = ts.cores
		}
		place(a, admitted, dead)
		for i, ts := range admitted {
			if ts.firstUS < 0 {
				ts.firstUS = nowUS
			}
			if prev[i] != nil && !slices.Equal(prev[i], ts.cores) {
				ts.remaps++
			}
			if err := setPrograms(ts); err != nil {
				return nil, err
			}
		}
		return admitted, nil
	}

	epochs := 0
	for ei := 0; ei+1 < len(times); ei++ {
		now, next := times[ei], times[ei+1]
		var active []*tenantState
		for _, ts := range states {
			at := ts.spec.ArriveUS * clock
			dt := ts.spec.DepartUS * clock
			in := at <= now+cycleEps && (ts.spec.DepartUS <= 0 || dt > now+cycleEps)
			if ts.active && !in {
				// Departure: in-flight work leaves with the tenant.
				ts.cores, ts.ckpt, ts.carried, ts.full, ts.resume = nil, recovery.Checkpoint{}, 0, nil, nil
			}
			ts.active = in
			if in {
				active = append(active, ts)
			}
		}
		admitOrder(active)
		admitted, err := admit(active, now/clock)
		if err != nil {
			return nil, err
		}
		if len(admitted) == 0 || next-now <= cycleEps {
			continue
		}
		for remaining := next - now; remaining > cycleEps; {
			runs, cut, err := cosim(admitted, remaining)
			loss, lost := sim.LossOf(err)
			if err != nil && !lost {
				return nil, err
			}
			for i, ts := range admitted {
				book(ts, &runs[i], cut)
			}
			if !lost {
				break
			}
			// Degradation: retire the dead cores and keep serving the
			// rest of the epoch on the survivors, every tenant resuming
			// from its cut at the loss.
			for _, c := range loss.Cores {
				dead[c] = true
			}
			failureLog = append(failureLog, err.Error())
			if alive() == 0 {
				return nil, fmt.Errorf("tenancy: every core lost to faults: %w", err)
			}
			if remaining -= cut; remaining <= cycleEps {
				break
			}
			if admitted, err = admit(admitted, now/clock); err != nil {
				return nil, err
			}
		}
		epochs++
	}
	return buildReport(a, opt.Name(), opts.horizonUS(), epochs, coSims, states, sortedKeys(dead), failureLog), nil
}

// streamRun is what booking reads of a tenant's stream in a co-run cut
// at some cycle: each retired element's end cycle, and whether one was
// still running, with its checkpoint in its program's graph IDs.
type streamRun struct {
	ends    []float64
	running bool
	cut     []graph.LayerID
}

// sortedKeys lists set's keys in increasing order (nil when empty).
func sortedKeys[K cmp.Ordered](set map[K]bool) []K {
	var out []K
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
