package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/sim"
)

// engineSample is one engine's measurement on one model.
type engineSample struct {
	NsPerOp     int64   `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	Iterations  int     `json:"iterations"`
	LatencyUS   float64 `json:"latency_us"`
}

// benchRow is the A/B comparison for one benchmark model. EventCtx
// re-measures the event engine with a live context.Context installed
// (cooperative cancellation checkpoints armed), and CtxOverhead is its
// fractional slowdown over the bare event engine — the serving layer's
// deadline support is designed to cost <=1% here, and the JSON keeps
// the receipts.
type benchRow struct {
	Model       string       `json:"model"`
	Instrs      int          `json:"instrs"`
	Reference   engineSample `json:"reference"`
	Event       engineSample `json:"event"`
	EventCtx    engineSample `json:"event_ctx"`
	Speedup     float64      `json:"speedup"`
	CtxOverhead float64      `json:"ctx_overhead"`
}

// benchReport is the BENCH_sim.json schema.
type benchReport struct {
	BenchTime string     `json:"bench_time"`
	Arch      string     `json:"arch"`
	Config    string     `json:"config"`
	Rows      []benchRow `json:"rows"`
}

// runSimBench A/B-benchmarks the event engine against the retained
// reference engine over every Table 2 model on precompiled programs,
// prints the comparison, and writes it as JSON (the BENCH_sim.json
// artifact CI archives). Correctness of the comparison rests on the
// sim package's equivalence tests, which hold the engines
// bit-identical — so the ratio here is pure engine overhead.
func runSimBench(w io.Writer, jsonPath string, benchTime time.Duration) error {
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	report := benchReport{BenchTime: benchTime.String(), Arch: a.Name, Config: opt.Name()}

	measure := func(p *plan.Program, cfg sim.Config, run func(*plan.Program, sim.Config) (*sim.Result, error)) (engineSample, error) {
		var simErr error
		var latency float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := run(p, cfg)
				if err != nil {
					simErr = err
					b.FailNow()
				}
				latency = out.Stats.LatencyMicros(a.ClockMHz)
			}
		})
		if simErr != nil {
			return engineSample{}, simErr
		}
		return engineSample{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			LatencyUS:   latency,
		}, nil
	}

	if err := setBenchTime(benchTime); err != nil {
		return err
	}
	// One P: the event engine's pooled machine is then always found on
	// the P that returned it, so allocs_op counts the engine's own
	// allocations rather than pool misses after a goroutine migrated.
	// CI gates allocs_op exactly against the committed report.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	fmt.Fprintf(w, "%-18s %14s %14s %14s %8s %9s\n",
		"model", "reference", "event", "event+ctx", "speedup", "ctx ovhd")
	for _, m := range models.All() {
		res, err := core.Compile(m.Build(), a, opt)
		if err != nil {
			return fmt.Errorf("compile %s: %v", m.Name, err)
		}
		ref, err := measure(res.Program, sim.Config{}, sim.RunReference)
		if err != nil {
			return fmt.Errorf("%s reference: %v", m.Name, err)
		}
		ev, err := measure(res.Program, sim.Config{}, sim.Run)
		if err != nil {
			return fmt.Errorf("%s event: %v", m.Name, err)
		}
		evCtx, err := measure(res.Program, sim.Config{Ctx: context.Background()}, sim.Run)
		if err != nil {
			return fmt.Errorf("%s event+ctx: %v", m.Name, err)
		}
		row := benchRow{
			Model:       m.Name,
			Instrs:      res.Program.NumInstrs(),
			Reference:   ref,
			Event:       ev,
			EventCtx:    evCtx,
			Speedup:     float64(ref.NsPerOp) / float64(ev.NsPerOp),
			CtxOverhead: float64(evCtx.NsPerOp)/float64(ev.NsPerOp) - 1,
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "%-18s %12dns %12dns %12dns %7.2fx %8.2f%%\n",
			row.Model, ref.NsPerOp, ev.NsPerOp, evCtx.NsPerOp, row.Speedup, 100*row.CtxOverhead)
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "benchmark report written to %s\n", jsonPath)
	return nil
}

// setBenchTime points the testing package's -test.benchtime at d so
// testing.Benchmark measures long enough to be stable but short enough
// for a CI smoke run.
func setBenchTime(d time.Duration) error {
	testing.Init()
	return flag.Set("test.benchtime", d.String())
}
