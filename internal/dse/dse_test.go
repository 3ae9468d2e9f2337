package dse

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/sim"
)

func explore(t *testing.T, seed uint64) *Result {
	t.Helper()
	r, err := Explore(context.Background(), models.TinyCNN(), arch.Exynos2100Like(), core.Stratum(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExploreBeatsOrMatchesBaseline(t *testing.T) {
	r := explore(t, 1)
	if r.BestCycles > r.BaselineCycles {
		t.Errorf("best %.0f worse than baseline %.0f", r.BestCycles, r.BaselineCycles)
	}
	if !r.EngineMatch {
		t.Error("winner not verified bit-identical across engines")
	}
	if r.Points < 2 {
		t.Errorf("points = %d: search never left the baseline", r.Points)
	}
	if r.Points != len(r.Explored) {
		t.Errorf("Points %d != len(Explored) %d", r.Points, len(r.Explored))
	}
	// The baseline genome must be the first explored point and carry no
	// overrides, so its Options fingerprint-match the plain config.
	m, b, s := r.Explored[0].Genome.Overrides()
	if m+b+s != 0 {
		t.Errorf("baseline genome has %d/%d/%d overrides", m, b, s)
	}
	if r.Explored[0].Cycles != r.BaselineCycles {
		t.Errorf("first point %.0f != baseline %.0f", r.Explored[0].Cycles, r.BaselineCycles)
	}
	// On TinyCNN the default budget reliably finds a strict improvement
	// (measured 17% at seed 1); regressing to 0 means the moves stopped
	// working.
	if r.BestCycles == r.BaselineCycles {
		t.Errorf("no improvement found on TinyCNN (baseline %.0f)", r.BaselineCycles)
	}
}

// TestExploredSchedulesAdmit is the SPM-admission property test: every
// feasible explored genome must recompile (a cache hit) and pass the
// simulator's SPM admission check, and the winning genome must simulate
// bit-identically on the event and reference engines.
func TestExploredSchedulesAdmit(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	base := core.Stratum()
	r, err := Explore(context.Background(), g, a, base, 7)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := core.CacheStats()
	for i, e := range r.Explored {
		if !e.Feasible {
			continue
		}
		cres, err := core.CompileCached(g, a, e.Genome.Options(base))
		if err != nil {
			t.Fatalf("explored point %d no longer compiles: %v", i, err)
		}
		if _, err := sim.Run(cres.Program, sim.Config{}); err != nil {
			t.Errorf("explored point %d fails SPM admission: %v", i, err)
		}
	}
	hits1, misses1 := core.CacheStats()
	if misses1 != misses0 {
		t.Errorf("re-checking explored points recompiled %d schedules; want all cache hits", misses1-misses0)
	}
	if hits1-hits0 < int64(r.Points-r.Infeasible) {
		t.Errorf("expected >= %d cache hits, got %d", r.Points-r.Infeasible, hits1-hits0)
	}

	// Winner bit-identity, independently of the in-Explore check.
	wres, err := core.CompileCached(g, a, r.Best.Options(base))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sim.Run(wres.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.RunReference(wres.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(&ev.Stats, &ref.Stats) {
		t.Errorf("winner diverges: event %.0f vs reference %.0f cycles",
			ev.Stats.TotalCycles, ref.Stats.TotalCycles)
	}
	if ev.Stats.TotalCycles != r.BestCycles {
		t.Errorf("winner re-simulates to %.0f, reported %.0f", ev.Stats.TotalCycles, r.BestCycles)
	}
}

// TestExploreDeterministic pins the cross-worker determinism contract:
// the same seed must produce a byte-identical serialized Result at -j 8
// and -j 1. The compile cache is reset before each run because the
// Result embeds the cache-delta counters.
func TestExploreDeterministic(t *testing.T) {
	run := func(workers int) []byte {
		t.Helper()
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		core.ResetCache()
		r := explore(t, 42)
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	j8 := run(8)
	j1 := run(1)
	if string(j8) != string(j1) {
		t.Errorf("same-seed runs diverge across worker counts:\n-j 8: %s\n-j 1: %s", j8, j1)
	}
	// And a distinct seed explores a different trajectory (sanity that
	// the seed actually feeds the search).
	core.ResetCache()
	other := explore(t, 43)
	var r42 Result
	if err := json.Unmarshal(j8, &r42); err != nil {
		t.Fatal(err)
	}
	if other.Points == r42.Points && other.BestCycles == r42.BestCycles && other.Revisits == r42.Revisits {
		t.Logf("seeds 42 and 43 coincide on (points, best, revisits); suspicious but not fatal")
	}
}

func TestExploreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	core.ResetCache() // cached compiles would skip the ctx check
	_, err := Explore(ctx, models.TinyCNN(), arch.Exynos2100Like(), core.Stratum(), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGenomeKeyAndOptions(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	base := core.Stratum()
	fp := func(o core.Options) core.CacheKey { return core.Fingerprint(g, a, o) }
	gen := newGenome(g, a.NumCores())
	if k1, k2 := gen.key(), gen.clone().key(); k1 != k2 {
		t.Errorf("clone changes key: %q vs %q", k1, k2)
	}
	// The all-default genome must lower to exactly the base options so
	// evaluating it is a compile-cache hit against the plain config.
	if fp(gen.Options(base)) != fp(base) {
		t.Error("baseline genome fingerprint differs from plain options")
	}
	// Any deviation must change both the key and the fingerprint.
	dev := gen.clone()
	dev.Scale[0] = scaleGrid[unitScale+1]
	if dev.key() == gen.key() {
		t.Error("scale deviation not reflected in key")
	}
	if fp(dev.Options(base)) == fp(base) {
		t.Error("scale deviation not reflected in options fingerprint")
	}
}

// busBound is a platform whose shared bus, not the per-core DMA rates,
// is the bottleneck: the cores advertise 16/12/8 B/cycle but share 8.
// The analytic balance weights the nominally fast core by its DMA rate
// and so overloads it.
func busBound() *arch.Arch {
	a := arch.Exynos2100Like()
	a.BusBytesPerCycle = 8
	return a
}

// TestExploreRebalancesSkewedBus pins the paper's profile-guided fix
// for unbalanced sub-layers (Section 3.1.3): on a bus-saturated
// platform the search beats the analytic balance by shifting weight
// away from the nominally fast core toward the slow one.
func TestExploreRebalancesSkewedBus(t *testing.T) {
	r, err := Explore(context.Background(), models.MobileNetV2(), busBound(), core.Stratum(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BestCycles >= r.BaselineCycles {
		t.Errorf("best %.2f does not beat the analytic balance %.2f", r.BestCycles, r.BaselineCycles)
	}
	if s := r.Best.Scale; !(s[0] < 1 && 1 < s[2]) {
		t.Errorf("scales %v: want weight shifted off core 0 onto core 2", s)
	}
}

// TestExploreRepeatIsAllCacheHits pins that candidate evaluation goes
// through the fingerprint-keyed compile cache: repeating a search
// compiles nothing.
func TestExploreRepeatIsAllCacheHits(t *testing.T) {
	g, a := models.MobileNetV2(), busBound()
	if _, err := Explore(context.Background(), g, a, core.Stratum(), 1); err != nil {
		t.Fatal(err)
	}
	r, err := Explore(context.Background(), g, a, core.Stratum(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheMisses != 0 || r.CacheHits == 0 {
		t.Errorf("repeat search: %d hits, %d misses; want all hits", r.CacheHits, r.CacheMisses)
	}
}

// TestExploreNeverWorseFromHalo pins the never-worse guarantee from a
// non-default starting point: searched from +Halo, the winner is no
// slower than the +Halo baseline, and its program recompiles valid.
func TestExploreNeverWorseFromHalo(t *testing.T) {
	g, a, base := models.TinyCNN(), arch.Exynos2100Like(), core.Halo()
	r, err := Explore(context.Background(), g, a, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.BestCycles > r.BaselineCycles {
		t.Errorf("best %.0f worse than the +Halo baseline %.0f", r.BestCycles, r.BaselineCycles)
	}
	cres, err := core.CompileCached(g, a, r.Best.Options(base))
	if err != nil {
		t.Fatal(err)
	}
	if err := cres.Program.Validate(); err != nil {
		t.Errorf("best program invalid: %v", err)
	}
}

// TestExploreParallelMatchesSerialSkewedDMA asserts that evaluating
// each generation concurrently commits exactly what the serial search
// commits on a platform where rebalancing moves (one core's DMA is
// slowed): the same explored trajectory, the same winner and the same
// winning instruction streams.
func TestExploreParallelMatchesSerialSkewedDMA(t *testing.T) {
	g := models.ConvChain(6, 64, 64, 16)
	a := arch.Exynos2100Like()
	a.Cores[2].DMABytesPerCycle = 2
	search := func(workers int) (*Result, *core.Result) {
		t.Helper()
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		core.ResetCache()
		r, err := Explore(context.Background(), g, a, core.Halo(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := core.CompileCached(g, a, r.Best.Options(core.Halo()))
		if err != nil {
			t.Fatal(err)
		}
		return r, cres
	}
	serial, sprog := search(1)
	par, pprog := search(8)
	if serial.BestCycles >= serial.BaselineCycles {
		t.Errorf("search committed nothing to compare: best %.0f, baseline %.0f", serial.BestCycles, serial.BaselineCycles)
	}
	if serial.BestCycles != par.BestCycles {
		t.Errorf("best differs: serial %.0f vs parallel %.0f", serial.BestCycles, par.BestCycles)
	}
	if !reflect.DeepEqual(serial.Explored, par.Explored) {
		t.Error("explored trajectories differ between serial and parallel")
	}
	if !reflect.DeepEqual(serial.Best, par.Best) {
		t.Errorf("winners differ:\nserial:   %+v\nparallel: %+v", serial.Best, par.Best)
	}
	if !reflect.DeepEqual(sprog.Program.Cores, pprog.Program.Cores) {
		t.Error("winning instruction streams differ between serial and parallel")
	}
}

// countdownCtx is live for its first n Err polls and canceled after,
// so a search can be stopped at a fixed point part-way through.
type countdownCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExploreCancelledMidSearch pins cooperative cancellation once the
// search is under way: a context canceled after the baseline has been
// scored aborts the search with the context's error.
func TestExploreCancelledMidSearch(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &countdownCtx{Context: parent, cancel: cancel}
	ctx.left.Store(400) // a full search polls ~1600 times
	core.ResetCache()
	_, err := Explore(ctx, models.TinyCNN(), arch.Exynos2100Like(), core.Stratum(), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, misses := core.CacheStats(); misses < 2 {
		t.Errorf("canceled after %d compiles; want the search past its baseline", misses)
	}
}
