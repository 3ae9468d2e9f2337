package sim_test

import (
	. "repro/internal/sim"

	"fmt"
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
// same events (the prefix before a failure included).

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

// runGenerated runs both engines on prog over all its cores, n times
// back to back as a stream, and requires identical outcomes.
func runGenerated(t *testing.T, prog *plan.Program, n int, cfg Config) (*Result, []Event, error) {
	t.Helper()
	var stream []Placement
	for range n {
		stream = append(stream, Whole(prog)...)
	}
	return runBoth(t, prog.Arch, stream, cfg)
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
				for _, name := range genPlans {
					for n := 1; n <= 2; n++ {
						sub := fmt.Sprintf("seed%d/%s/%s/%s", seed, a.Name, opt.Name(), name)
						if n == 2 {
							sub += "/stream"
						}
						t.Run(sub, func(t *testing.T) {
							res, trace, err := runGenerated(t, prog, n, genConfig(name, uint64(seed)+1, float64(n)*T))
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
		runGenerated(t, prog, n, genConfig(genPlans[int(planIdx)%len(genPlans)], faultSeed, float64(n)*T))
	})
}
