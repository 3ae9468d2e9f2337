// Package repro's root benchmarks regenerate the paper's evaluation
// through the Go benchmark harness: one benchmark family per table or
// figure. Each benchmark compiles and simulates the workload and
// reports the modeled inference latency as the custom metric
// "latency_us" (the quantity the paper's figures plot), alongside the
// usual wall-clock cost of running the toolchain itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one experiment:
//
//	go test -bench=BenchmarkFig11
package repro

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// runPoint compiles and simulates one configuration point, reporting
// the modeled latency.
func runPoint(b *testing.B, g *graph.Graph, a *arch.Arch, opt core.Options) {
	b.Helper()
	var lastUS float64
	for i := 0; i < b.N; i++ {
		res, err := core.Compile(g, a, opt)
		if err != nil {
			b.Fatal(err)
		}
		out, err := sim.Run(res.Program, sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		lastUS = out.Stats.LatencyMicros(a.ClockMHz)
	}
	b.ReportMetric(lastUS, "latency_us")
}

// BenchmarkFig11 sweeps every benchmark model across the four
// configurations of Figure 11 (1-core, and 3-core Base/+Halo/+Stratum).
func BenchmarkFig11(b *testing.B) {
	for _, m := range models.All() {
		g := m.Build()
		points := []struct {
			name string
			a    *arch.Arch
			opt  core.Options
		}{
			{"1core", arch.SingleCore(), core.Base()},
			{"Base", arch.Exynos2100Like(), core.Base()},
			{"Halo", arch.Exynos2100Like(), core.Halo()},
			{"Stratum", arch.Exynos2100Like(), core.Stratum()},
		}
		for _, pt := range points {
			b.Run(m.Name+"/"+pt.name, func(b *testing.B) {
				runPoint(b, g, pt.a, pt.opt)
			})
		}
	}
}

// BenchmarkFig12 measures the three pipelining variants of Figure 12
// on the InceptionV3 stem, reporting the exposed idle before the
// second convolution as "exposed_idle_us".
func BenchmarkFig12(b *testing.B) {
	var variants []experiments.Fig12Variant
	var err error
	for i := 0; i < b.N; i++ {
		variants, err = experiments.Fig12()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range variants {
		b.ReportMetric(v.ExposedIdleUS, fmt.Sprintf("idle_us_%s", v.Name[:3]))
	}
}

// BenchmarkTable4 profiles InceptionV3 under the three partitioning
// schemes of Table 4, reporting the per-run latency.
func BenchmarkTable4(b *testing.B) {
	g := models.InceptionV3()
	a := arch.Exynos2100Like()
	for _, sch := range []struct {
		name string
		mode partition.Mode
	}{
		{"spatial", partition.ForceSpatial},
		{"channel", partition.ForceChannel},
		{"adaptive", partition.Adaptive},
	} {
		b.Run(sch.name, func(b *testing.B) {
			opt := core.Base()
			opt.Partitioning = sch.mode
			runPoint(b, g, a, opt)
		})
	}
}

// BenchmarkTable5 compares Halo-only, Stratum-only, and the combined
// configuration on the InceptionV3 stem region (Table 5).
func BenchmarkTable5(b *testing.B) {
	g := models.InceptionV3Stem()
	a := arch.Exynos2100Like()
	stratumOnly := core.Base()
	stratumOnly.Stratum = true
	for _, cfg := range []struct {
		name string
		opt  core.Options
	}{
		{"Halo", core.Halo()},
		{"Stratum", stratumOnly},
		{"Combined", core.Stratum()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			runPoint(b, g, a, cfg.opt)
		})
	}
}

// BenchmarkTable1 regenerates the partitioning-method enumeration of
// Table 1 (a compile-time property; benchmarked for completeness of
// the per-table harness).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 4 {
			b.Fatal("table1 rows missing")
		}
	}
}

// BenchmarkTable2 rebuilds all six benchmark models (Table 2),
// measuring graph-construction cost.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range models.All() {
			if g := m.Build(); g.Len() == 0 {
				b.Fatal("empty model")
			}
		}
	}
}

// BenchmarkCompile measures compiler throughput per model (full
// +Stratum pipeline: partition, schedule, strata, tiling, lowering).
func BenchmarkCompile(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		g := m.Build()
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(g, a, core.Stratum()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSync sweeps the barrier cost on MobileNetV2
// (design-choice ablation A1: what stratum construction buys as
// synchronization gets costlier).
func BenchmarkAblationSync(b *testing.B) {
	g := models.ByNameMust("MobileNetV2")
	for _, syncUS := range []float64{0.5, 8} {
		for _, opt := range []core.Options{core.Base(), core.Stratum()} {
			b.Run(fmt.Sprintf("sync%gus/%s", syncUS, opt.Name()), func(b *testing.B) {
				a := arch.Exynos2100Like()
				a.SyncBaseCycles = a.MicrosToCycles(syncUS)
				a.SyncJitterCycles = a.SyncBaseCycles
				runPoint(b, g, a, opt)
			})
		}
	}
}

// BenchmarkAblationCores measures speedup scaling on homogeneous
// 1..8-core platforms (ablation A4).
func BenchmarkAblationCores(b *testing.B) {
	g := models.ByNameMust("MobileNetV2")
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dcores", n), func(b *testing.B) {
			runPoint(b, g, arch.Homogeneous(n), core.Stratum())
		})
	}
}

// BenchmarkSweepWorkers measures the toolchain wall-clock of a full
// compile+simulate sweep (Table 5) at one worker versus all available
// cores. The cache is cold every iteration so the comparison isolates
// the fan-out; the latency_us metric of the sweep itself is untouched
// by the worker count (see the determinism tests).
func BenchmarkSweepWorkers(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				core.ResetCache()
				if _, err := experiments.Table5(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11Workers is the headline sweep (six models, four
// configurations each) at one worker versus all available cores.
func BenchmarkFig11Workers(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				core.ResetCache()
				if _, err := experiments.Fig11(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileCached isolates the compile-result cache: "miss"
// resets the cache each iteration, "hit" replays a warm entry.
func BenchmarkCompileCached(b *testing.B) {
	g := models.InceptionV3()
	a := arch.Exynos2100Like()
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ResetCache()
			if _, err := core.CompileCached(g, a, core.Stratum()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		core.ResetCache()
		if _, err := core.CompileCached(g, a, core.Stratum()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.CompileCached(g, a, core.Stratum()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulate measures event-engine simulator throughput on
// precompiled programs. Allocations are reported because the engine's
// contract is zero steady-state allocation (only the Result escapes).
func BenchmarkSimulate(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		g := m.Build()
		res, err := core.Compile(g, a, core.Stratum())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(res.Program, sim.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulateConcurrent measures a co-run: two +Stratum programs
// on disjoint core subsets sharing the bus, recorded by one reused
// sim.Recorder. Once the recorder has grown to a run's length, a traced
// run allocates no more than an untraced one.
func BenchmarkSimulateConcurrent(b *testing.B) {
	global := arch.Exynos2100Like()
	var placements []sim.Placement
	for _, pl := range []struct {
		model string
		cores []int
	}{{"MobileNetV2", []int{0}}, {"InceptionV3", []int{1, 2}}} {
		sub, err := global.Subset(pl.cores)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Compile(models.ByNameMust(pl.model), sub, core.Stratum())
		if err != nil {
			b.Fatal(err)
		}
		placements = append(placements, sim.Placement{Program: res.Program, Cores: pl.cores})
	}
	rec := &sim.Recorder{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		if _, err := sim.RunConcurrent(global, placements, sim.Config{Hook: rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// tenantShapes are the four /tenants scenarios perfbench's run-degraded
// workload replays, with its arrival and departure shares of the 20 ms
// default horizon and the mobile models taken in turn.
var tenantShapes = []string{
	"t0=InceptionV3:prio=1:slo=5000,t1=MobileNetV2:prio=2:slo=4000:arrive=5317",
	"t0=MobileNetV2-SSD:prio=2:slo=6000,t1=MobileDet-SSD:prio=1:slo=6000:arrive=10421",
	"t0=InceptionV3:prio=1:slo=5000,t1=MobileNetV2:prio=3:slo=3000:arrive=4210,t2=MobileNetV2-SSD:prio=2:slo=7000:arrive=9733",
	"t0=MobileDet-SSD:prio=2:slo=6000,t1=InceptionV3:prio=3:slo=8000:arrive=6604:depart=11388,t2=MobileNetV2:prio=1:slo=3000:arrive=12555",
}

// BenchmarkTenancyRun measures tenancy.Run over the four shapes, one
// op running all four, on a warm compile cache. "cold-memo" empties the
// co-run memo and the remap memo before every op, so each shape
// simulates its co-runs and rebuilds its resumed suffixes as a
// first-seen schedule does; "warm-memo" serves them from the memos, as
// a repeated scenario is.
func BenchmarkTenancyRun(b *testing.B) {
	a := arch.Exynos2100Like()
	var specs [][]tenancy.Tenant
	for _, s := range tenantShapes {
		ts, err := tenancy.ParseSpec(s)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, ts)
	}
	runAll := func(b *testing.B) {
		for _, ts := range specs {
			if _, err := tenancy.Run(a, ts, tenancy.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	runAll(b) // fill the compile cache
	for _, mode := range []string{"cold-memo", "warm-memo"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if mode == "cold-memo" {
					tenancy.ResetMemo()
					recovery.ResetRemapMemo()
				}
				runAll(b)
			}
		})
	}
}

// BenchmarkRecoverKill measures a faulted /run on a cached Result:
// core 1 dies halfway through the clean run, so one op is the faulted
// first attempt, the remap of the unfinished suffix onto cores 0 and 2
// (a compile-cache hit after the first op) and the resumed run, which
// the suffix's admission run answers.
func BenchmarkRecoverKill(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, name := range []string{"InceptionV3", "MobileNetV2"} {
		res, err := core.CompileCached(models.ByNameMust(name), a, core.Stratum())
		if err != nil {
			b.Fatal(err)
		}
		clean, err := res.Simulate(sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		opts := recovery.Options{Opt: core.Stratum(), Sim: sim.Config{
			Faults: &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: 0.5 * clean.Stats.TotalCycles}}},
		}}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := recovery.Run(res, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !r.Degraded() {
					b.Fatal("the kill did not fire")
				}
			}
		})
	}
}

// BenchmarkRemap measures recovery.Remap of each model with its first
// half of layers done (IDs are topological, so the lower half is a
// prefix) onto cores 0 and 2, on a warm compile cache. "miss" empties
// the remap memo before every op, so each op keys, rebuilds and
// fingerprints the suffix as a first-seen point does; "hit" serves the
// repeat from the memo.
func BenchmarkRemap(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, name := range []string{"InceptionV3", "MobileNetV2"} {
		g := models.ByNameMust(name)
		done := make([]graph.LayerID, g.Len()/2)
		for i := range done {
			done[i] = graph.LayerID(i)
		}
		var ckpt recovery.Checkpoint
		ckpt.Fold(g, done, nil)
		remap := func(b *testing.B) {
			if _, err := recovery.Remap(nil, g, &ckpt, a, []int{0, 2}, core.Stratum()); err != nil {
				b.Fatal(err)
			}
		}
		remap(b) // fill the compile cache
		for _, mode := range []string{"miss", "hit"} {
			b.Run(name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if mode == "miss" {
						recovery.ResetRemapMemo()
					}
					remap(b)
				}
			})
		}
	}
}

// BenchmarkSimulateCtx measures what arming the cooperative
// cancellation checkpoints costs the event engine: "nil" is the bare
// fast path (one pointer compare per step), "background" polls a live
// context every 64 steps (the serving layer's configuration; designed
// to stay within 1% of "nil"), and "precanceled" measures how fast an
// already-dead request aborts.
func BenchmarkSimulateCtx(b *testing.B) {
	a := arch.Exynos2100Like()
	g := models.ByNameMust("MobileNetV2")
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(res.Program, sim.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("background", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(res.Program, sim.Config{Ctx: ctx}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("precanceled", func(b *testing.B) {
		b.ReportAllocs()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(res.Program, sim.Config{Ctx: ctx}); !errors.Is(err, sim.ErrCanceled) {
				b.Fatalf("want ErrCanceled, got %v", err)
			}
		}
	})
}

// BenchmarkSimulateReference measures the retained reference engine on
// the same programs — the "before" column of the event-engine speedup.
func BenchmarkSimulateReference(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		g := m.Build()
		res, err := core.Compile(g, a, core.Stratum())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunReference(res.Program, sim.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
