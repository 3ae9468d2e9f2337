package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/randgraph"
)

// The tests in this file extend the hand-picked equivalence suite to
// generated programs: random graphs (randgraph) compiled under every
// configuration for four architectures, each run alone and as a
// two-element stream [p, p] under six fault plans (for the stream, the
// plan's events are spread over twice the clean latency). The event
// engine must return a Result DeepEqual to the reference engine's,
// corruptions included, or the same typed error, and feed its hook the
// same events (the prefix before a failure included). Each case also
// runs twice through one prepared Layout, under its plan and under
// another plan of the matrix with the watchdog toggled, and must match
// a fresh run each time.

var genConfigs = []core.Options{core.Base(), core.Halo(), core.Stratum()}

// genArchs covers the 3-core preset, a 4-core machine (8 DMA slots on
// the bus), the preset with halo traffic on a dedicated link, and an
// 8-core machine (16 DMA slots), the size the core-scaling experiment
// simulates.
func genArchs() []*arch.Arch {
	direct := arch.Exynos2100Like()
	direct.DirectHaloInterconnect = true
	return []*arch.Arch{arch.Exynos2100Like(), arch.Homogeneous(4), direct, arch.Homogeneous(8)}
}

var genPlans = []string{"none", "drop", "throttle", "kill", "hang", "flip"}

// genProgram compiles randgraph seed for one architecture and
// configuration of the matrix and returns it with its clean latency.
func genProgram(t testing.TB, seed int64, a *arch.Arch, opt core.Options) (*plan.Program, float64) {
	t.Helper()
	res, err := core.Compile(randgraph.New(seed, randgraph.Params{}), a, opt)
	if err != nil {
		t.Fatalf("seed %d %s/%s: compile: %v", seed, a.Name, opt.Name(), err)
	}
	clean, err := RunReference(res.Program, Config{})
	if err != nil {
		t.Fatalf("seed %d %s/%s: clean reference run: %v", seed, a.Name, opt.Name(), err)
	}
	return res.Program, clean.Stats.TotalCycles
}

// genConfig builds the named fault plan, its events placed at
// fractions of the clean latency T.
func genConfig(name string, faultSeed uint64, T float64) Config {
	var cfg Config
	switch name {
	case "drop":
		cfg.Faults = &fault.Plan{Seed: faultSeed, DropRate: 0.05, MaxRetries: 12}
	case "throttle":
		cfg.Faults = &fault.Plan{
			Seed: faultSeed,
			Throttles: []fault.Throttle{
				{Core: 1, AtCycle: 0.2 * T, Factor: 0.5},
				{Core: 0, AtCycle: 0.5 * T, Factor: 0.25},
				{Core: 1, AtCycle: 0.7 * T, Factor: 1},
			},
			Slowdowns: []fault.Slowdown{{Core: 2, AtCycle: 0.4 * T, Factor: 0.6}},
		}
	case "kill":
		cfg.Faults = &fault.Plan{Seed: faultSeed, Deaths: []fault.Death{{Core: 2, AtCycle: 0.5 * T}}}
	case "hang":
		cfg.Faults = &fault.Plan{Seed: faultSeed, Hangs: []fault.Hang{
			{Core: 1, AtCycle: 0.2 * T, ResumeAfter: 0.05 * T},
			{Core: 0, AtCycle: 0.6 * T},
		}}
		cfg.WatchdogCycles = 0.1 * T
	case "flip":
		cfg.Faults = &fault.Plan{Seed: faultSeed, FlipRate: 0.05}
	}
	return cfg
}

// altConfig is the second configuration a case's prepared layout runs
// under: the next plan of the matrix, with a fresh fault seed and the
// watchdog toggled (the hang plan without one deadlocks).
func altConfig(planIdx int, faultSeed uint64, T float64) Config {
	cfg := genConfig(genPlans[(planIdx+1)%len(genPlans)], faultSeed+1, T)
	if cfg.WatchdogCycles > 0 {
		cfg.WatchdogCycles = 0
	} else {
		cfg.WatchdogCycles = T / 37
	}
	return cfg
}

// runGenerated runs both engines on prog over all its cores, n times
// back to back as a stream, and requires identical outcomes. It then
// runs the stream twice through one prepared Layout, under cfg with a
// hook and under alt without one (checkPrepared).
func runGenerated(t *testing.T, prog *plan.Program, n int, cfg, alt Config) (*Result, []Event, error) {
	t.Helper()
	var stream []Placement
	for range n {
		stream = append(stream, Whole(prog)...)
	}
	res, trace, err := runBoth(t, prog.Arch, stream, cfg)
	checkPrepared(t, prog.Arch, stream, cfg, alt)
	return res, trace, err
}

// checkPrepared runs placements through one prepared Layout under each
// config in turn, the even ones with a Recorder, and requires every
// outcome and trace DeepEqual to a fresh RunConcurrent's.
func checkPrepared(t *testing.T, a *arch.Arch, placements []Placement, cfgs ...Config) {
	t.Helper()
	lay, err := Prepare(a, placements)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	for i, cfg := range cfgs {
		fresh, prepared := cfg, cfg
		freshRec, preparedRec := &Recorder{}, &Recorder{}
		if i%2 == 0 {
			fresh.Hook, prepared.Hook = freshRec, preparedRec
		}
		want, wantErr := RunConcurrent(a, placements, fresh)
		got, gotErr := lay.Run(prepared)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("config %d: prepared run %+v (err %v), fresh run %+v (err %v)", i, got, gotErr, want, wantErr)
		}
		if !reflect.DeepEqual(preparedRec.Events, freshRec.Events) {
			t.Fatalf("config %d: prepared run traced %d events, fresh run %d, or they differ",
				i, len(preparedRec.Events), len(freshRec.Events))
		}
	}
}

func TestGeneratedEngineEquivalence(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	// Outcomes seen across the matrix: a generator that never drops,
	// kills, hangs, flips or moves halo traffic, or fails before any
	// instruction retires, would hold the engines equal without testing
	// those paths.
	seen := map[string]bool{}
	for seed := int64(0); seed < seeds; seed++ {
		for _, a := range genArchs() {
			for _, opt := range genConfigs {
				prog, T := genProgram(t, seed, a, opt)
				for k, name := range genPlans {
					for n := 1; n <= 2; n++ {
						sub := fmt.Sprintf("seed%d/%s/%s/%s", seed, a.Name, opt.Name(), name)
						if n == 2 {
							sub += "/stream"
						}
						t.Run(sub, func(t *testing.T) {
							nT := float64(n) * T
							res, trace, err := runGenerated(t, prog, n, genConfig(name, uint64(seed)+1, nT), altConfig(k, uint64(seed)+1, nT))
							l, ok := LossOf(err)
							if ok && l.Failure != nil {
								seen["core failure"] = true
							} else if ok {
								seen["hang detected"] = true
							}
							if ok && l.Placement == 1 {
								seen["stream loss"] = true
							}
							if err != nil && len(trace) > 0 {
								seen["failure prefix"] = true
							}
							if res != nil && len(res.Corruptions) > 0 {
								seen["corruption"] = true
							}
							for _, ev := range trace {
								if ev.Retries > 0 {
									seen["retry"] = true
								}
								if ev.Op == plan.LoadHalo && a.DirectHaloInterconnect {
									seen["direct halo"] = true
								}
							}
						})
					}
				}
			}
		}
	}
	for _, want := range []string{"core failure", "hang detected", "failure prefix", "corruption", "retry", "direct halo", "stream loss"} {
		if !seen[want] {
			t.Errorf("no generated case produced a %s", want)
		}
	}
}

// TestUnoccupiedCoreEventsInert is the generated suite's metamorphic
// case for fault events on cores no placement occupies: an engine drops
// them, so they can neither split a step nor arm the watchdog. Each
// program of the matrix is compiled for its machine without core 0
// (and core n/2 on a machine of more than three cores) and placed on
// the rest, under each plan of the matrix moved onto the occupied
// cores, with the watchdog off and on. Adding a death, a hang with and
// without a resume, a throttle and a slowdown on every unoccupied core
// must leave both engines' outcomes as they were: the same Result, or
// the same typed error. A plan naming a core the machine lacks is still
// rejected.
func TestUnoccupiedCoreEventsInert(t *testing.T) {
	seeds := int64(16)
	if testing.Short() {
		seeds = 4
	}
	engines := map[string]func(*arch.Arch, []Placement, Config) (*Result, error){
		"event": RunConcurrent, "reference": RunConcurrentReference,
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, a := range genArchs() {
			n := a.NumCores()
			var cores, idle []int
			for c := 0; c < n; c++ {
				if c == 0 || (n > 3 && c == n/2) {
					idle = append(idle, c)
				} else {
					cores = append(cores, c)
				}
			}
			sub, err := a.Subset(cores)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range genConfigs {
				prog, T := genProgram(t, seed, sub, opt)
				pl := []Placement{{Program: prog, Cores: cores}}
				for _, name := range genPlans {
					for _, wd := range []float64{0, T / 37} {
						cfg := genConfig(name, uint64(seed)+1, T)
						cfg.Faults = movedOnto(cfg.Faults, cores)
						cfg.WatchdogCycles = max(cfg.WatchdogCycles, wd)
						noisy := cfg
						noisy.Faults = withIdleEvents(cfg.Faults, idle, T)
						for engine, run := range engines {
							want, wantErr := run(a, pl, cfg)
							got, gotErr := run(a, pl, noisy)
							if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
								t.Fatalf("seed%d/%s/%s/%s watchdog %g: %s engine with events on idle cores %v: %+v (err %v), without: %+v (err %v)",
									seed, a.Name, opt.Name(), name, cfg.WatchdogCycles, engine, idle, got, gotErr, want, wantErr)
							}
						}
					}
				}
			}
		}
	}

	a := arch.Exynos2100Like()
	sub, err := a.Subset([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	prog, T := genProgram(t, 0, sub, core.Stratum())
	beyond := &fault.Plan{Hangs: []fault.Hang{{Core: a.NumCores(), AtCycle: T / 2}}}
	for engine, run := range engines {
		_, err := run(a, []Placement{{Program: prog, Cores: []int{1, 2}}}, Config{Faults: beyond, WatchdogCycles: T / 10})
		var cre *fault.CoreRangeError
		if !errors.As(err, &cre) || cre.Core != a.NumCores() {
			t.Errorf("%s engine: hang on core %d of a %d-core machine: err %v, want *fault.CoreRangeError",
				engine, a.NumCores(), a.NumCores(), err)
		}
	}
}

// movedOnto returns a copy of p with every event's core c moved to
// cores[c % len(cores)].
func movedOnto(p *fault.Plan, cores []int) *fault.Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Throttles, q.Deaths, q.Hangs, q.Slowdowns = nil, nil, nil, nil
	on := func(c int) int { return cores[c%len(cores)] }
	for _, e := range p.Throttles {
		q.Throttles = append(q.Throttles, fault.Throttle{Core: on(e.Core), AtCycle: e.AtCycle, Factor: e.Factor})
	}
	for _, e := range p.Deaths {
		q.Deaths = append(q.Deaths, fault.Death{Core: on(e.Core), AtCycle: e.AtCycle})
	}
	for _, e := range p.Hangs {
		q.Hangs = append(q.Hangs, fault.Hang{Core: on(e.Core), AtCycle: e.AtCycle, ResumeAfter: e.ResumeAfter})
	}
	for _, e := range p.Slowdowns {
		q.Slowdowns = append(q.Slowdowns, fault.Slowdown{Core: on(e.Core), AtCycle: e.AtCycle, Factor: e.Factor})
	}
	return &q
}

// withIdleEvents returns a copy of p (an empty plan for nil) that also
// kills, hangs (once resuming, once for good), throttles and slows every
// idle core at fractions of the clean latency T.
func withIdleEvents(p *fault.Plan, idle []int, T float64) *fault.Plan {
	q := fault.Plan{}
	if p != nil {
		q = *p
	}
	q.Throttles = append([]fault.Throttle(nil), q.Throttles...)
	q.Deaths = append([]fault.Death(nil), q.Deaths...)
	q.Hangs = append([]fault.Hang(nil), q.Hangs...)
	q.Slowdowns = append([]fault.Slowdown(nil), q.Slowdowns...)
	for _, c := range idle {
		q.Hangs = append(q.Hangs, fault.Hang{Core: c, AtCycle: 0.15 * T, ResumeAfter: 0.1 * T},
			fault.Hang{Core: c, AtCycle: 0.55 * T})
		q.Throttles = append(q.Throttles, fault.Throttle{Core: c, AtCycle: 0.3 * T, Factor: 0.5})
		q.Slowdowns = append(q.Slowdowns, fault.Slowdown{Core: c, AtCycle: 0.4 * T, Factor: 0.7})
		q.Deaths = append(q.Deaths, fault.Death{Core: c, AtCycle: 0.65 * T})
	}
	return &q
}

// FuzzEngineMatchesReference searches the same matrix with fuzzed graph
// and fault seeds; planIdx also picks the stream length (1 below
// len(genPlans), then alternating). Its seed corpus lives in
// testdata/fuzz.
func FuzzEngineMatchesReference(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint64(1))
	archs := genArchs()
	f.Fuzz(func(t *testing.T, seed int64, archIdx, cfgIdx, planIdx uint8, faultSeed uint64) {
		a := archs[int(archIdx)%len(archs)]
		opt := genConfigs[int(cfgIdx)%len(genConfigs)]
		prog, T := genProgram(t, seed, a, opt)
		n := 1 + int(planIdx)/len(genPlans)%2
		k := int(planIdx) % len(genPlans)
		runGenerated(t, prog, n, genConfig(genPlans[k], faultSeed, float64(n)*T), altConfig(k, faultSeed, float64(n)*T))
	})
}

// TestWatchdogInertWithoutHangs is the generated suite's metamorphic
// case for the watchdog: it arms only for a plan that hangs a core, so
// on every hang-free plan of the matrix a fine heartbeat changes
// nothing in either engine: the same Result, or the same typed error.
func TestWatchdogInertWithoutHangs(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		for _, a := range genArchs() {
			for _, opt := range genConfigs {
				prog, T := genProgram(t, seed, a, opt)
				for _, name := range genPlans {
					if name == "hang" {
						continue
					}
					cfg := genConfig(name, uint64(seed)+1, T)
					armed := cfg
					armed.WatchdogCycles = T / 37
					for engine, run := range map[string]func(*plan.Program, Config) (*Result, error){
						"event": Run, "reference": RunReference,
					} {
						want, wantErr := run(prog, cfg)
						got, gotErr := run(prog, armed)
						if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
							t.Fatalf("seed%d/%s/%s/%s: %s engine with a watchdog: %v (err %v), without: %v (err %v)",
								seed, a.Name, opt.Name(), name, engine, got, gotErr, want, wantErr)
						}
					}
				}
			}
		}
	}
}
