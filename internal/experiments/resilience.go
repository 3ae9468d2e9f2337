package experiments

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// resilienceFracs are the watchdog heartbeat intervals swept per
// model, as fractions of the model's clean end-to-end latency.
var resilienceFracs = []float64{0.02, 0.05, 0.10}

// resilienceFlipRate is the per-transfer corruption probability of the
// silent-data-corruption leg — high enough that every Table 2 model
// sees at least one flip at any seed.
const resilienceFlipRate = 0.05

// HangRow is one (model, heartbeat) point of the hang-detection sweep:
// a core silently stalls halfway through a clean run, the watchdog
// catches it, and recovery re-executes the suffix on the survivors.
type HangRow struct {
	Model string `json:"model"`
	// HeartbeatFrac is the watchdog interval as a fraction of the
	// model's clean latency.
	HeartbeatFrac float64 `json:"heartbeat_frac"`
	// Detected: the run returned a typed HangDetected (never false in a
	// written report — a miss fails the experiment — but CI gates on it).
	Detected bool `json:"detected"`
	// DetectionLatencyBeats is the detection latency in heartbeat
	// units; the watchdog guarantees <= 2.
	DetectionLatencyBeats float64 `json:"detection_latency_beats"`
	// EngineMatch: the reference engine returned a bit-identical
	// detection (same cores, cycle, checkpoint, partial stats).
	EngineMatch bool `json:"engine_match"`
	metrics.ResilienceReport
}

// FlipRow is one model's silent-data-corruption leg: seeded bit-flips
// on DMA transfers, caught at stratum-boundary checksums, repaired by
// re-executing only the corrupted strata.
type FlipRow struct {
	Model    string  `json:"model"`
	FlipRate float64 `json:"flip_rate"`
	// FlipsInjected counts the corrupted transfers per the reference
	// engine (the independent oracle); FlipsDetected per the event
	// engine. The acceptance gate requires them equal — every injected
	// flip surfaced at a stratum boundary in both implementations.
	FlipsInjected int `json:"flips_injected"`
	FlipsDetected int `json:"flips_detected"`
	// EngineMatch: both engines reported identical Corruption lists.
	EngineMatch bool `json:"engine_match"`
	metrics.CorruptionReport
}

// ResilienceBench is the BENCH_resilience.json payload.
type ResilienceBench struct {
	Seed  uint64    `json:"seed"`
	Hangs []HangRow `json:"hangs"`
	Flips []FlipRow `json:"flips"`
}

// Resilience sweeps hang detection and silent-data-corruption repair
// over every Table 2 model under +Stratum. Deterministic: the same
// seed produces an identical report at any worker count.
func Resilience(seed uint64) (*ResilienceBench, error) {
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	ms := models.All()

	hangs, err := parallel.Map(len(ms)*len(resilienceFracs), func(i int) (HangRow, error) {
		m := ms[i/len(resilienceFracs)]
		frac := resilienceFracs[i%len(resilienceFracs)]
		g := m.Build()
		res, err := core.CompileCached(g, a, opt)
		if err != nil {
			return HangRow{}, fmt.Errorf("resilience %s: %w", m.Name, err)
		}
		clean, err := res.Simulate(sim.Config{})
		if err != nil {
			return HangRow{}, fmt.Errorf("resilience %s clean: %w", m.Name, err)
		}
		cleanCycles := clean.Stats.TotalCycles
		// Inject off the heartbeat grid (0.437 is not a multiple of any
		// swept fraction), so the sweep measures real detection latency
		// instead of a beat landing exactly on the injection cycle.
		injectAt := 0.437 * cleanCycles
		heartbeat := frac * cleanCycles

		cfg := sim.Config{
			Faults:         &fault.Plan{Seed: seed, Hangs: []fault.Hang{{Core: 1, AtCycle: injectAt}}},
			WatchdogCycles: heartbeat,
		}
		rec, err := recovery.Run(res, recovery.Options{Opt: opt, Sim: cfg})
		if err != nil {
			return HangRow{}, fmt.Errorf("resilience %s H=%g: recovery: %w", m.Name, frac, err)
		}
		if len(rec.Hangs) == 0 || len(rec.Failures) > 0 {
			return HangRow{}, fmt.Errorf("resilience %s H=%g: hang not detected", m.Name, frac)
		}
		_, rerr := sim.RunReference(res.Program, cfg)
		ref, ok := sim.LossOf(rerr)
		match := ok && reflect.DeepEqual(rec.Hangs[0], ref.Hang)

		rep, err := metrics.BuildResilience("hang", injectAt, heartbeat, cleanCycles, rec)
		if err != nil {
			return HangRow{}, fmt.Errorf("resilience %s H=%g: %w", m.Name, frac, err)
		}
		return HangRow{
			Model:                 m.Name,
			HeartbeatFrac:         frac,
			Detected:              true,
			DetectionLatencyBeats: rep.DetectionLatencyCycles / heartbeat,
			EngineMatch:           match,
			ResilienceReport:      rep,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	flips, err := parallel.Map(len(ms), func(i int) (FlipRow, error) {
		m := ms[i]
		g := m.Build()
		res, err := core.CompileCached(g, a, opt)
		if err != nil {
			return FlipRow{}, fmt.Errorf("resilience %s: %w", m.Name, err)
		}
		clean, err := res.Simulate(sim.Config{})
		if err != nil {
			return FlipRow{}, fmt.Errorf("resilience %s clean: %w", m.Name, err)
		}
		cfg := sim.Config{Faults: &fault.Plan{Seed: seed, FlipRate: resilienceFlipRate}}
		outE, err := res.Simulate(cfg)
		if err != nil {
			return FlipRow{}, fmt.Errorf("resilience %s flips: %w", m.Name, err)
		}
		outR, err := sim.RunReference(res.Program, cfg)
		if err != nil {
			return FlipRow{}, fmt.Errorf("resilience %s flips (reference): %w", m.Name, err)
		}
		detected, injected := 0, 0
		for _, c := range outE.Corruptions {
			detected += c.Transfers
		}
		for _, c := range outR.Corruptions {
			injected += c.Transfers
		}
		if detected == 0 {
			return FlipRow{}, fmt.Errorf("resilience %s: flip rate %g injected nothing", m.Name, resilienceFlipRate)
		}

		// Repair cost: re-execute exactly the corrupted strata. Each
		// stratum's inputs are DRAM-resident at its boundary, so the
		// repair graph compiles and runs stand-alone.
		reexecLayers, reexecCycles := 0, 0.0
		for _, c := range outE.Corruptions {
			layers := sim.StratumLayers(res.Program, c.Stratum)
			sub, _, err := recovery.StratumGraph(g, layers)
			if err != nil {
				return FlipRow{}, fmt.Errorf("resilience %s stratum %d: %w", m.Name, c.Stratum, err)
			}
			subRes, err := core.CompileCached(sub, a, opt)
			if err != nil {
				return FlipRow{}, fmt.Errorf("resilience %s stratum %d: %w", m.Name, c.Stratum, err)
			}
			subOut, err := subRes.Simulate(sim.Config{})
			if err != nil {
				return FlipRow{}, fmt.Errorf("resilience %s stratum %d: %w", m.Name, c.Stratum, err)
			}
			reexecLayers += len(layers)
			reexecCycles += subOut.Stats.TotalCycles
		}
		return FlipRow{
			Model:            m.Name,
			FlipRate:         resilienceFlipRate,
			FlipsInjected:    injected,
			FlipsDetected:    detected,
			EngineMatch:      reflect.DeepEqual(outE.Corruptions, outR.Corruptions),
			CorruptionReport: metrics.BuildCorruption(clean.Stats.TotalCycles, outE.Corruptions, reexecLayers, reexecCycles),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ResilienceBench{Seed: seed, Hangs: hangs, Flips: flips}, nil
}

// PrintResilience renders the sweep as tables.
func PrintResilience(w io.Writer, b *ResilienceBench) {
	fmt.Fprintf(w, "Silent-hang detection and recovery (+Stratum, hang on core 1 at 43.7%% of clean, seed %d)\n", b.Seed)
	fmt.Fprintf(w, "%-16s %6s %10s %10s %7s %10s %10s %8s %7s\n",
		"model", "hb", "latency", "beats", "dead", "wasted", "degraded", "ovh%", "engines")
	for _, r := range b.Hangs {
		fmt.Fprintf(w, "%-16s %5.0f%% %9.0fc %10.2f %7v %9.0fc %9.0fc %8.1f %7v\n",
			r.Model, 100*r.HeartbeatFrac, r.DetectionLatencyCycles, r.DetectionLatencyBeats,
			r.DeadCores, r.WastedCycles, r.DegradedCycles, r.OverheadPct, r.EngineMatch)
	}
	fmt.Fprintf(w, "\nSilent-data-corruption detection at stratum boundaries (flip rate %g)\n", resilienceFlipRate)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %9s %10s %8s %7s\n",
		"model", "injected", "detected", "strata", "re-exec", "cycles", "ovh%", "engines")
	for _, r := range b.Flips {
		fmt.Fprintf(w, "%-16s %8d %8d %8d %9d %9.0fc %8.1f %7v\n",
			r.Model, r.FlipsInjected, r.FlipsDetected, r.Detected,
			r.ReExecutedLayers, r.ReExecutedCycles, r.OverheadPct, r.EngineMatch)
	}
}
