// Command npubench regenerates every table and figure of the paper's
// evaluation section on the simulated platform.
//
// Usage:
//
//	npubench                      # everything
//	npubench -experiment fig11    # one experiment
//	npubench -experiment table4
//	npubench -bench-json BENCH_sim.json -bench-time 200ms
//	npubench -experiment dse -dse-seed 1 -dse-json BENCH_dse.json
//	npubench -experiment fig11 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/arch"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

// fatal reports err and exits with its typed exit code (see the
// cliutil exit-code table in -help): unfit schedules, SPM overflows,
// core failures, and cancellations each get a stable number scripts
// can branch on.
func fatal(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "npubench: %s%v\n", prefix, err)
	os.Exit(cliutil.ExitCode(err))
}

func main() {
	which := flag.String("experiment", "all", "fig11, fig12, table1, table2, table4, table5, ablation, concurrent, dse, faults, loadgen, metrics, resilience, spm, tenancy, or all")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for compile/simulate sweeps (1 forces serial)")
	benchJSON := flag.String("bench-json", "", "A/B-benchmark the event simulator engine against the reference engine, write the report to this file, and exit")
	benchTime := flag.Duration("bench-time", time.Second, "per-measurement duration for -bench-json")
	loadgenJSON := flag.String("loadgen-json", "BENCH_loadgen.json", "output file for the -experiment loadgen fleet-replay report")
	tenancyJSON := flag.String("tenancy-json", "BENCH_tenancy.json", "output file for the -experiment tenancy multi-tenant serving report")
	tenancySeed := flag.Uint64("tenancy-seed", 1, "seed for the -experiment tenancy Poisson replay (same seed, byte-identical report)")
	resilienceJSON := flag.String("resilience-json", "BENCH_resilience.json", "output file for the -experiment resilience hang/SDC detection report")
	resilienceSeed := flag.Uint64("resilience-seed", 1, "seed for the -experiment resilience fault decisions (same seed, byte-identical report)")
	dseJSON := flag.String("dse-json", "BENCH_dse.json", "output file for the -experiment dse schedule-search report")
	dseModels := flag.String("dse-models", "", "comma-separated models for -experiment dse (empty = all Table 2)")
	dseSeed := flag.Uint64("dse-seed", 1, "seed for the -experiment dse search (same seed, byte-identical report modulo wall-clock)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), "\n"+cliutil.ExitCodeDoc)
	}
	flag.Parse()
	parallel.SetWorkers(*jobs)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "npubench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "npubench: %v\n", err)
			}
		}()
	}

	if *benchJSON != "" {
		if err := runSimBench(os.Stdout, *benchJSON, *benchTime); err != nil {
			fatal("bench: ", err)
		}
		return
	}

	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fatal(name+": ", err)
		}
		fmt.Println()
	}

	run("table1", func() error {
		experiments.PrintTable1(os.Stdout, experiments.Table1())
		return nil
	})
	run("table2", func() error {
		experiments.PrintTable2(os.Stdout, experiments.Table2())
		return nil
	})
	run("fig11", func() error {
		rows, err := experiments.Fig11()
		if err != nil {
			return err
		}
		experiments.PrintFig11(os.Stdout, rows)
		return nil
	})
	run("fig12", func() error {
		variants, err := experiments.Fig12()
		if err != nil {
			return err
		}
		return experiments.PrintFig12(os.Stdout, variants, arch.Exynos2100Like())
	})
	run("table4", func() error {
		rows, err := experiments.Table4()
		if err != nil {
			return err
		}
		experiments.PrintTable4(os.Stdout, rows)
		return nil
	})
	run("table5", func() error {
		rows, err := experiments.Table5()
		if err != nil {
			return err
		}
		experiments.PrintTable5(os.Stdout, rows)
		return nil
	})
	run("ablation", func() error {
		return experiments.PrintAblations(os.Stdout)
	})
	run("concurrent", func() error {
		rows, err := experiments.Concurrent()
		if err != nil {
			return err
		}
		experiments.PrintConcurrent(os.Stdout, rows)
		return nil
	})
	run("faults", func() error {
		return experiments.PrintFaults(os.Stdout, "MobileNetV2")
	})
	run("spm", func() error {
		return spmGate(os.Stdout)
	})
	run("loadgen", func() error {
		return runLoadgen(os.Stdout, *loadgenJSON)
	})
	run("tenancy", func() error {
		return runTenancy(os.Stdout, *tenancyJSON, *tenancySeed)
	})
	run("resilience", func() error {
		return runResilience(os.Stdout, *resilienceJSON, *resilienceSeed)
	})
	run("dse", func() error {
		return runDSE(os.Stdout, *dseJSON, *dseModels, *dseSeed, *jobs)
	})
	run("metrics", func() error {
		for _, opt := range []core.Options{core.Base(), core.Stratum()} {
			rows, err := experiments.Utilization(opt)
			if err != nil {
				return err
			}
			experiments.PrintUtilization(os.Stdout, opt.Name(), rows)
		}
		return nil
	})
}
