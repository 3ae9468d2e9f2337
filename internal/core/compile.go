package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stratum"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// attempt is one rung of the fallback chain: an option set, a tiler
// budget scale, and a stratum depth cap.
type attempt struct {
	level      FallbackLevel
	opt        Options
	scale      float64 // 0 or 1 = full SPM budget
	maxStratum int     // 0 = unlimited
}

// Compile lowers graph g for architecture a under the given options,
// guaranteeing the returned schedule fits every core's SPM: the tiler
// enforces a liveness-exact per-layer budget, and a fault-free
// simulation run then admission-checks the whole program against the
// simulator's own live-byte tracking (which sees the cross-layer
// concurrency the per-layer budget cannot).
//
// When either check fails, the driver walks a graceful-degradation
// chain — shrink the tiler budget, cap stratum depth, disable
// feature-map forwarding, force channel partitioning — recording each
// downgrade in Result.Downgrades. Exhausting the chain returns a
// typed *UnfitError.
func Compile(g *graph.Graph, a *arch.Arch, opt Options) (*Result, error) {
	return CompileCtx(nil, g, a, opt)
}

// CompileCtx is Compile with cooperative cancellation: ctx is polled
// between fallback attempts, between compile stages, per emitted layer,
// and (through sim.Config.Ctx) inside the admission simulation, so a
// canceled compile returns promptly — wrapping ctx's error, or the
// simulator's typed *CanceledError — without producing a Result. A
// nil ctx disables every checkpoint and behaves exactly like Compile.
func CompileCtx(ctx context.Context, g *graph.Graph, a *arch.Arch, opt Options) (*Result, error) {
	t0 := time.Now()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	var downgrades []Downgrade
	var lastErr error
	for i, at := range fallbackChain(opt) {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if i > 0 {
			downgrades = append(downgrades, Downgrade{Level: at.level, Reason: lastErr.Error()})
		}
		res, err := compileOnce(ctx, g, a, at.opt, at.scale, at.maxStratum)
		if err == nil {
			mark := time.Now()
			err = admit(ctx, res)
			res.Timing.Admit = time.Since(mark)
			if err == nil {
				res.Fallback = at.level
				res.Downgrades = downgrades
				res.Timing.Total = time.Since(t0)
				return res, nil
			}
		}
		if !capacityFailure(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, &UnfitError{Graph: g.Name, Downgrades: downgrades, Last: lastErr}
}

// compileCanceled wraps a context error observed at a compile-stage
// checkpoint. It matches sim.ErrCanceled, so one sentinel covers "the
// toolchain was cut short" wherever the checkpoint fired — compile
// stage, emitted layer, or mid-simulation — and unwraps to the
// context's error so errors.Is still distinguishes client abandonment
// from deadline expiry.
type compileCanceled struct{ cause error }

func (e *compileCanceled) Error() string {
	return "core: compile canceled: " + e.cause.Error()
}
func (e *compileCanceled) Is(target error) bool { return target == sim.ErrCanceled }
func (e *compileCanceled) Unwrap() error        { return e.cause }

// ctxErr polls an optional context, wrapping its error so compile-side
// cancellations are attributable. A nil ctx never fails.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return &compileCanceled{cause: err}
	}
	return nil
}

// fallbackChain lists the attempts for one requested configuration,
// most capable first. Later rungs keep the earlier restrictions, so
// the chain degrades monotonically and always ends at a configuration
// with no cross-layer SPM residency at all.
func fallbackChain(opt Options) []attempt {
	chain := []attempt{
		{level: FallbackNone, opt: opt},
		{level: FallbackShrinkTiles, opt: opt, scale: 0.85},
		{level: FallbackShrinkTiles, opt: opt, scale: 0.7},
		{level: FallbackShrinkTiles, opt: opt, scale: 0.55},
		{level: FallbackShrinkTiles, opt: opt, scale: 0.45},
	}
	if opt.Stratum {
		chain = append(chain,
			attempt{level: FallbackShallowStrata, opt: opt, maxStratum: 2},
			attempt{level: FallbackShallowStrata, opt: opt, maxStratum: 1},
			attempt{level: FallbackShallowStrata, opt: opt, maxStratum: 1, scale: 0.7},
			attempt{level: FallbackShallowStrata, opt: opt, maxStratum: 1, scale: 0.55},
			attempt{level: FallbackShallowStrata, opt: opt, maxStratum: 1, scale: 0.45},
		)
	}
	if opt.Forwarding {
		o := opt
		o.Forwarding = false
		maxStratum := 0
		if opt.Stratum {
			maxStratum = 1
		}
		chain = append(chain,
			attempt{level: FallbackNoForwarding, opt: o, maxStratum: maxStratum},
			attempt{level: FallbackNoForwarding, opt: o, maxStratum: maxStratum, scale: 0.7},
			attempt{level: FallbackNoForwarding, opt: o, maxStratum: maxStratum, scale: 0.55},
			attempt{level: FallbackNoForwarding, opt: o, maxStratum: maxStratum, scale: 0.45},
		)
	}
	if opt.Partitioning == partition.Adaptive {
		o := opt
		o.Partitioning = partition.ForceChannel
		o.Forwarding = false
		o.Stratum = false
		chain = append(chain,
			attempt{level: FallbackChannelPartition, opt: o},
			attempt{level: FallbackChannelPartition, opt: o, scale: 0.7},
			attempt{level: FallbackChannelPartition, opt: o, scale: 0.55},
			attempt{level: FallbackChannelPartition, opt: o, scale: 0.45},
		)
	}
	return chain
}

// capacityFailure reports whether err is a fit failure the fallback
// chain can respond to, as opposed to a compiler bug or invalid input.
func capacityFailure(err error) bool {
	var cf *tiling.CannotFitError
	if errors.As(err, &cf) {
		return true
	}
	var of *sim.SPMOverflowError
	return errors.As(err, &of)
}

// admit runs the compiled program fault-free through the event engine
// with the SPM admission check on; the simulator's live-byte tracking
// is the authority on whether the schedule actually fits. The context
// threads into the engine's cooperative checkpoints, so a canceled
// compile aborts even mid-admission. A live context never perturbs the
// run, so the admitted run is the program's clean simulation, and the
// Result keeps it for Simulate.
func admit(ctx context.Context, res *Result) error {
	out, err := sim.Run(res.Program, sim.Config{Ctx: ctx})
	if err == nil {
		res.clean = &admission{run: out}
	}
	return err
}

// Simulate runs the compiled program alone on its own architecture;
// see SimulateOn.
func (r *Result) Simulate(cfg sim.Config) (*sim.Result, error) {
	return r.SimulateOn(r.Program.Arch, nil, cfg)
}

// SimulateOn runs the compiled program placed on cores of the global
// architecture a: program core i on a's core cores[i], nil cores
// meaning a's cores in order. It answers from the admission run (a
// private copy of its Stats) when the run would repeat it:
//
//   - The placement is the machine the program was admitted on: a's
//     cores there, in ascending order and with a's shared parameters,
//     are the program's architecture (as arch.Subset builds it). PerCore
//     is the admission run's, moved to global core indices; an unplaced
//     core is idle for the whole run.
//   - The fault plan cannot change the timing on those cores
//     (fault.Plan.KeepsTiming): it drops no transfer and times no event
//     on them. The engines drop every event on an unoccupied core, a
//     bit-flip corrupts data but never timing, and the watchdog arms
//     only for a hang on an occupied core (sim.Config.WatchdogCycles).
//     The Corruptions come from sim.Checksums, the engines' own checksum
//     pass, over the admission run's per-layer finish row (computed on
//     the first such call and shared by every copy of the Result).
//
// Any other placement or plan, a Hook (a trace is a Recorder hook), a
// Result without an admission run, and a cfg.Ctx that is already done
// go to the engine, so a canceled context yields its own cancellation
// error. An engine run on the admitted whole machine (recovery's first
// attempt, for one) runs the program's prepared layout (sim.Prepare),
// built once and shared like the admission run; an engine run on any
// other placement builds its own.
func (r *Result) SimulateOn(a *arch.Arch, cores []int, cfg sim.Config) (*sim.Result, error) {
	pl := []sim.Placement{{Program: r.Program, Cores: cores}}
	if cores == nil {
		pl = sim.Whole(r.Program)
	}
	on := r.admittedOn(a, cores)
	if on == nil || cfg.Hook != nil || (cfg.Ctx != nil && cfg.Ctx.Err() != nil) || !cfg.Faults.KeepsTiming(on) {
		if on != nil && len(pl[0].Cores) == a.NumCores() {
			if lay := r.clean.layout(r.Program); lay != nil {
				return lay.Run(cfg)
			}
		}
		return sim.RunConcurrent(a, pl, cfg)
	}
	var corrupts []sim.Corruption
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.ValidateFor(a.NumCores()); err != nil {
			return nil, err
		}
		if cfg.Faults.FlipRate > 0 {
			row := r.clean.finishRow(r.Program)
			if row == nil {
				return sim.RunConcurrent(a, pl, cfg)
			}
			corrupts = sim.Checksums(cfg.Faults, pl, [][]float64{row}, nil)
		}
	}
	clean := &r.clean.run.Stats
	st := *clean
	st.ProgramCycles = append([]float64(nil), clean.ProgramCycles...)
	st.PerCore = make([]sim.CoreStats, a.NumCores())
	for c := range st.PerCore {
		st.PerCore[c].Idle = st.TotalCycles
	}
	for i, c := range pl[0].Cores {
		st.PerCore[c] = clean.PerCore[i]
	}
	return &sim.Result{Stats: st, Corruptions: corrupts}, nil
}

// admittedOn returns the cores of a the placement occupies, marked,
// when the placement is the machine of the admission run (see
// SimulateOn), and nil otherwise. The cores must ascend because the
// engines order same-time work and equal bus shares by global core.
func (r *Result) admittedOn(a *arch.Arch, cores []int) []bool {
	if r.clean == nil {
		return nil
	}
	on := make([]bool, a.NumCores())
	sub := a
	if cores == nil {
		for c := range on {
			on[c] = true
		}
	} else {
		for i, c := range cores {
			if c < 0 || c >= len(on) || (i > 0 && c <= cores[i-1]) {
				return nil
			}
			on[c] = true
		}
		var err error
		if sub, err = a.Subset(cores); err != nil {
			return nil
		}
	}
	if sub != r.Program.Arch && ArchKey(sub) != ArchKey(r.Program.Arch) {
		return nil
	}
	return on
}

// compileOnce runs the four compile stages for one fallback attempt,
// polling ctx (when non-nil) between stages and inside the long ones.
func compileOnce(ctx context.Context, g *graph.Graph, a *arch.Arch, opt Options, scale float64, maxStratum int) (*Result, error) {
	// Stage 1: partition every layer (heuristics h1-h5 or forced mode).
	var tm Timing
	mark := time.Now()
	part := partition.New(g, a)
	part.Mode = opt.Partitioning
	part.WeightScale = opt.WeightScale
	part.Force = opt.ForceMethods
	plans, err := part.PlanAllCtx(ctx)
	if err != nil {
		return nil, &compileCanceled{cause: err}
	}
	tm.Partition = time.Since(mark)

	// Stage 2: schedule layer execution. Algorithm 1's
	// spatial_partitioning() predicate reads the partition decision;
	// the pure depth-/breadth-first orders serve as ablations.
	mark = time.Now()
	var order []graph.LayerID
	switch opt.Scheduling {
	case ScheduleDepthFirst:
		order = schedule.DepthFirst(g)
	case ScheduleBreadthFirst:
		order = schedule.BreadthFirst(g)
	default:
		pred := func(l *graph.Layer) bool { return plans[l.ID].Direction.Spatial() }
		order = schedule.New(g, pred).Order()
	}
	if err := schedule.Verify(g, order); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	tm.Schedule = time.Since(mark)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Stage 3: stratum construction (Algorithm 2), or singleton strata
	// when disabled.
	mark = time.Now()
	builder := stratum.New(g, a, plans, order)
	builder.MaxLayers = maxStratum
	builder.Boundary = opt.StratumBoundary
	var strata []stratum.Stratum
	if opt.Stratum && maxStratum != 1 {
		for _, s := range builder.Build() {
			strata = append(strata, builder.TrimToFit(&s)...)
		}
	} else {
		strata = singletonStrata(g, plans, order)
	}
	if err := builder.Validate(strata); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	var redundant int64
	for _, s := range strata {
		redundant += s.RedundantMACs
	}
	tm.Stratum = time.Since(mark)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	// Stage 4: tile and lower to per-core instruction streams.
	mark = time.Now()
	em := newEmitter(g, a, opt, plans, order, strata)
	em.budgetScale = scale
	em.ctx = ctx
	prog, err := em.emit()
	if err != nil {
		return nil, err
	}
	tm.Emit = time.Since(mark)
	tm.Total = tm.Partition + tm.Schedule + tm.Stratum + tm.Emit
	return &Result{
		Program:       prog,
		Plans:         plans,
		Order:         order,
		Strata:        strata,
		RedundantMACs: redundant,
		Timing:        tm,
	}, nil
}

// singletonStrata wraps every executable layer in its own stratum with
// its planned (unexpanded) regions.
func singletonStrata(g *graph.Graph, plans []partition.Plan, order []graph.LayerID) []stratum.Stratum {
	var out []stratum.Stratum
	for _, id := range order {
		if g.Layer(id).IsInput() {
			continue
		}
		regions := make([]tensor.Region, len(plans[id].Subs))
		for i, s := range plans[id].Subs {
			regions[i] = s.Out
		}
		out = append(out, stratum.Stratum{
			Layers:   []graph.LayerID{id},
			Expanded: map[graph.LayerID][]tensor.Region{id: regions},
		})
	}
	return out
}
