package tenancy

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/arch"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// cycleEps matches the simulator's time-comparison tolerance.
const cycleEps = 1e-6

// Run simulates the tenants sharing one platform over the horizon and
// returns per-tenant serving statistics. The schedule is gang-rounded:
// every admitted tenant runs inferences back-to-back on its core
// subset, rounds are aligned (a round lasts as long as the slowest
// tenant's inference), and the bus is shared max–min fair within a
// round, so each tenant's measured period already includes the
// cross-tenant interference the report quantifies against a fault-free
// isolated run of the same program. Arrivals and departures end the
// current epoch: in-flight inferences are preempted at the stratum
// boundary the round's per-layer finish cycles imply (sim.CutAtCycle),
// surviving tenants are re-placed (priority first, sticky), and
// preempted suffixes are re-compiled bit-exactly through recovery.Remap
// for the new subsets. Clean co-runs are memoized process-wide (see
// coRunMemo), so a schedule that repeats a co-run simulates it once.
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
	times := sortedTimes(timeSet)

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
	isolatedOf := func(ts *tenantState) (float64, error) {
		out, err := ts.run.Compiled.Simulate(icfg)
		if err != nil {
			return 0, fmt.Errorf("tenancy: tenant %s isolated run: %w", ts.spec.Name, err)
		}
		return out.Stats.ProgramCycles[0], nil
	}

	setProgram := func(ts *tenantState) error {
		rm, err := recovery.Remap(opts.Sim.Ctx, ts.g, &ts.ckpt, a, ts.cores, opt)
		if err != nil {
			return fmt.Errorf("tenancy: tenant %s: %w", ts.spec.Name, err)
		}
		ts.run = rm
		return nil
	}

	// cosim co-runs the admitted tenants' current programs, recording
	// each layer's finish cycle for preemption cuts. A clean co-run is
	// served from the memo when it has run before; a fault plan, a
	// program from outside the compile cache, or a context already done
	// (so the engine returns its own cancellation) goes to the engine.
	cosim := func(admitted []*tenantState) (*coRun, error) {
		key, memoize := "", false
		if opts.Sim.Faults.Empty() && (opts.Sim.Ctx == nil || opts.Sim.Ctx.Err() == nil) {
			key, memoize = coRunKey(a, admitted)
		}
		if memoize {
			if r, ok := memo.get(key); ok {
				coSims++
				return r, nil
			}
		}
		placements := make([]sim.Placement, len(admitted))
		for i, ts := range admitted {
			placements[i] = sim.Placement{Program: ts.run.Compiled.Program, Cores: ts.cores}
		}
		fin := sim.NewLayerFinish(placements)
		cfg := opts.Sim
		cfg.Hook = fin
		out, err := sim.RunConcurrent(a, placements, cfg)
		if err != nil {
			return nil, fmt.Errorf("tenancy: co-run: %w", err)
		}
		coSims++
		r := &coRun{cycles: out.Stats.ProgramCycles, finish: fin.Finish}
		if memoize {
			memo.put(key, r)
		}
		return r, nil
	}

	// account books n inferences of identical per-inference latency,
	// with interference weighted against the isolated baseline I of the
	// co-run period L.
	account := func(ts *tenantState, n int64, latency, L, I float64) {
		ts.infs += n
		ts.sumLatency += float64(n) * latency
		if slo := ts.spec.SLOUS * clock; ts.spec.SLOUS <= 0 || latency <= slo+cycleEps {
			ts.hits += n
		}
		if I > 0 {
			w := float64(n)
			ts.weight += w
			ts.wIsolated += w * I
			ts.wInterf += w * (L - I) / I * 100
		}
	}

	// settle ends a round rem cycles in. A tenant whose inference fits
	// (latency L on top of the cycles it carried in) completes it and,
	// if it ran a resumed suffix, gets its full program back; the rest
	// are preempted at the cut their placement's per-layer finish cycles
	// imply, the checkpoint folded into original-graph IDs.
	settle := func(admitted []*tenantState, out *coRun, rem float64) error {
		for i, ts := range admitted {
			L := out.cycles[i]
			if L > rem+cycleEps {
				ts.ckpt.Fold(ts.g, sim.CutAtCycle(ts.run.Compiled.Program, out.finish[i], rem), ts.run.Origin)
				ts.carried += rem
				ts.preempts++
				continue
			}
			I, err := isolatedOf(ts)
			if err != nil {
				return err
			}
			account(ts, 1, ts.carried+L, L, I)
			ts.ckpt, ts.carried = recovery.Checkpoint{}, 0
			if ts.run.Suffix != ts.g {
				if err := setProgram(ts); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// runEpoch drives one epoch of duration D and reports the wall
	// cycles actually consumed: D on success, the cut time when a
	// co-run dies mid-epoch (the failure's typed error comes back for
	// the caller's degradation path).
	runEpoch := func(admitted []*tenantState, D float64) (float64, error) {
		// Round 1 may mix resumed suffixes with full models.
		hadSuffix := slices.ContainsFunc(admitted, func(ts *tenantState) bool { return ts.run.Suffix != ts.g })
		out, err := cosim(admitted)
		if err != nil {
			l, _ := sim.LossOf(err) // a fatal error cuts at cycle 0
			return l.AtCycle, err
		}
		// When the next event lands mid-round, what finished in time
		// counts and the rest is cut at the boundary.
		if err := settle(admitted, out, D); err != nil {
			return D, err
		}
		spent := maxOf(out.cycles)
		if D < spent-cycleEps {
			return D, nil
		}

		// Steady state: every tenant on its full model, having carried
		// nothing over. Identical to round 1 unless a suffix ran there.
		if hadSuffix {
			if out, err = cosim(admitted); err != nil {
				l, _ := sim.LossOf(err)
				return spent + l.AtCycle, err
			}
		}
		LS := out.cycles
		R := maxOf(LS)
		if n := int64((D - spent + cycleEps) / R); n > 0 {
			for i, ts := range admitted {
				I, err := isolatedOf(ts)
				if err != nil {
					return spent, err
				}
				account(ts, n, LS[i], LS[i], I)
			}
			spent += float64(n) * R
		}
		if rem := D - spent; rem > cycleEps {
			return D, settle(admitted, out, rem)
		}
		return D, nil
	}

	// rePlace assigns cores to the admitted prefix, counting re-maps and
	// recompiling every tenant for its (possibly new) subset.
	rePlace := func(admitted []*tenantState, nowUS float64) error {
		prev := make([][]int, len(admitted))
		for i, ts := range admitted {
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
			if err := setProgram(ts); err != nil {
				return err
			}
		}
		return nil
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
				ts.cores, ts.ckpt, ts.carried, ts.run = nil, recovery.Checkpoint{}, 0, nil
			}
			ts.active = in
			if in {
				active = append(active, ts)
			}
		}
		admitOrder(active)
		admitted := active
		if len(admitted) > alive() {
			// Admission control: at most one tenant per surviving core.
			// The rest queue (checkpoints intact) until a slot frees.
			for _, ts := range admitted[alive():] {
				ts.cores = nil
			}
			admitted = admitted[:alive()]
		}
		if err := rePlace(admitted, now/clock); err != nil {
			return nil, err
		}
		if len(admitted) > 0 && next-now > cycleEps {
			remaining := next - now
			for remaining > cycleEps {
				spent, err := runEpoch(admitted, remaining)
				if err == nil {
					break
				}
				loss, ok := sim.LossOf(err)
				if !ok {
					return nil, err
				}
				// Degradation: retire the dead cores, keep serving on the
				// survivors. The failed placement resumes from its typed
				// checkpoint; every other admitted tenant loses its
				// in-flight round (charged to carried, restarting from its
				// last own checkpoint) — the co-run died without a trace to
				// cut from.
				for _, c := range loss.Cores {
					dead[c] = true
				}
				failureLog = append(failureLog, err.Error())
				if pi := loss.Placement; pi >= 0 && pi < len(admitted) {
					admitted[pi].ckpt.Fold(admitted[pi].g, loss.Completed, admitted[pi].run.Origin)
				}
				for _, ts := range admitted {
					ts.carried += loss.AtCycle
				}
				remaining -= spent
				if alive() == 0 {
					return nil, fmt.Errorf("tenancy: every core lost to faults: %w", err)
				}
				if remaining <= cycleEps {
					break
				}
				if len(admitted) > alive() {
					for _, ts := range admitted[alive():] {
						ts.cores = nil
					}
					admitted = admitted[:alive()]
				}
				// Isolated baselines are per-(program, subset); shrinking
				// subsets recompile, so the cache keys stay valid.
				if err := rePlace(admitted, now/clock); err != nil {
					return nil, err
				}
			}
			epochs++
		}
	}
	return buildReport(a, opt.Name(), opts.horizonUS(), epochs, coSims, states, deadList(dead), failureLog), nil
}

func deadList(dead map[int]bool) []int {
	if len(dead) == 0 {
		return nil
	}
	out := make([]int, 0, len(dead))
	for c := range dead {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func sortedTimes(set map[float64]bool) []float64 {
	out := make([]float64, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}
