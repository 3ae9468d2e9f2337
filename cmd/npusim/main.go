// Command npusim compiles and simulates a benchmark network on the
// multicore-NPU model, printing latency and per-core utilization, and
// optionally writing a Chrome trace or a text Gantt chart. With
// -serve it runs instead as a long-lived HTTP service with deadlines,
// backpressure, and graceful shutdown.
//
// Usage:
//
//	npusim -model InceptionV3 -cores 3 -config stratum
//	npusim -model MobileNetV2 -gantt 120
//	npusim -model UNet -trace unet.json   # open in chrome://tracing
//	npusim -model TinyCNN -faults "drop=0.02,kill=2@400000" -fault-seed 7
//	npusim -serve :8080                   # POST /run /tenants, GET /healthz /readyz /stats
//	npusim -tenants "cam=MobileNetV2:prio=2:slo=9000,kbd=TinyCNN:slo=600"
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/recovery"
	"repro/internal/report"
	"repro/internal/serialize"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/trace"
)

func main() {
	model := flag.String("model", "MobileNetV2", "benchmark model name")
	cores := flag.Int("cores", 3, "number of NPU cores")
	config := flag.String("config", "stratum", "optimization configuration: base, halo, stratum")
	mode := flag.String("partition", "adaptive", "partitioning policy: adaptive, spatial, channel")
	inFile := flag.String("in", "", "simulate a precompiled program (from npuc -o) instead of compiling")
	traceOut := flag.String("trace", "", "write Chrome trace JSON to this file")
	gantt := flag.Int("gantt", 0, "print a text Gantt chart this many columns wide")
	metricsFlag := flag.Bool("metrics", false, "print the structured utilization report")
	metricsOut := flag.String("metrics-out", "", "write the structured metrics report as JSON to this file")
	faults := flag.String("faults", "", `fault spec, e.g. "drop=0.02,throttle=1@50000x0.5,kill=2@400000,hang=1@50000,flip=0.01"`)
	faultSeed := flag.Uint64("fault-seed", 0, "seed for probabilistic fault decisions")
	watchdog := flag.Float64("watchdog", 0, "fault mode: progress-watchdog heartbeat in cycles (0 = off); silent hangs become typed detections the recovery path survives")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for partition planning and reference kernels (1 forces serial)")
	tenantsSpec := flag.String("tenants", "", `multi-tenant serving mode: comma-separated tenant spec, e.g. "cam=MobileNetV2:prio=2:slo=9000,seg=DeepLabV3+:arrive=5000"`)
	tenantsHorizon := flag.Float64("tenants-horizon", 0, "tenants mode: simulated serving window in us (0 = 20000)")
	tenantsOut := flag.String("tenants-out", "", "tenants mode: write the report as JSON to this file")
	serveAddr := flag.String("serve", "", "run as an HTTP service on this address (e.g. :8080) instead of a one-shot simulation; POST /run /tenants, GET /healthz /readyz /stats")
	serveConc := flag.Int("serve-concurrency", 0, "serve mode: requests executed at once (0 = GOMAXPROCS)")
	serveQueue := flag.Int("serve-queue", 0, "serve mode: admitted requests waiting beyond the executing set; beyond this, shed with 429 (0 = 2x concurrency)")
	serveTimeout := flag.Duration("serve-timeout", 30*time.Second, "serve mode: default per-request deadline (requests may set a shorter one)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "serve mode: how long SIGTERM/SIGINT waits for in-flight requests before giving up")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprint(flag.CommandLine.Output(), "\n"+cliutil.ExitCodeDoc)
	}
	flag.Parse()
	parallel.SetWorkers(*jobs)

	obs := observeOpts{print: *metricsFlag, out: *metricsOut, traceOut: *traceOut, gantt: *gantt}

	if *serveAddr != "" {
		runServe(*serveAddr, serve.Options{
			Concurrency:    *serveConc,
			Queue:          *serveQueue,
			DefaultTimeout: *serveTimeout,
			Logger:         log.New(os.Stderr, "npusim: ", log.LstdFlags),
		}, *drainTimeout)
		return
	}

	if *inFile != "" {
		simulateFile(*inFile, obs)
		return
	}

	m, err := models.ByName(*model)
	if err != nil {
		fatal(err)
	}
	g := m.Build()

	a, err := cliutil.Arch(*cores)
	if err != nil {
		fatal(err)
	}
	opt, err := cliutil.Config(*config)
	if err != nil {
		fatal(err)
	}
	opt.Partitioning, err = cliutil.Mode(*mode)
	if err != nil {
		fatal(err)
	}

	if *tenantsSpec != "" {
		runTenants(a, *tenantsSpec, *tenantsHorizon, *tenantsOut, opt)
		return
	}

	res, err := core.Compile(g, a, opt)
	if err != nil {
		fatal(err)
	}
	if res.Fallback != core.FallbackNone {
		fmt.Printf("SPM fallback: %s (%d downgrades to fit)\n", res.Fallback, len(res.Downgrades))
	}

	if *faults != "" {
		plan, err := fault.ParseSpec(*faults, *faultSeed)
		if err != nil {
			fatal(err)
		}
		if err := plan.ValidateFor(a.NumCores()); err != nil {
			fatal(err)
		}
		runFaulted(g, a, opt, res, plan, *watchdog, obs)
		return
	}

	out, err := res.Simulate(sim.Config{Hook: obs.hook()})
	if err != nil {
		fatal(err)
	}

	clock := a.ClockMHz
	fmt.Printf("%s on %s, %s: %.1f us end-to-end\n",
		g.Name, a.Name, opt.Name(), out.Stats.LatencyMicros(clock))
	var idles, syncs []float64
	for c, cs := range out.Stats.PerCore {
		idles = append(idles, cs.Idle/float64(clock))
		syncs = append(syncs, cs.SyncWait/float64(clock))
		fmt.Printf("  %s: compute %.1fus  load %.1fus  store %.1fus  idle %.1fus  %.1fMB moved\n",
			a.Cores[c].Name,
			cs.ComputeBusy/float64(clock), cs.LoadBusy/float64(clock),
			cs.StoreBusy/float64(clock), cs.Idle/float64(clock),
			float64(cs.BytesLoaded+cs.BytesStored)/1e6)
	}
	fmt.Printf("  idle %sus, sync %sus across cores; %d barriers; %.2f GMACs executed\n",
		metrics.Summarize(idles), metrics.Summarize(syncs),
		out.Stats.Barriers, float64(out.Stats.TotalMACs())/1e9)
	obs.export(res.Program, res, opt.Name(), &out.Stats)
}

// runTenants co-schedules a multi-tenant serving scenario over the
// platform and prints per-tenant SLO hit rates and interference. The
// report carries no wall-clock fields: the same spec writes the same
// bytes, so scripts can diff reruns.
func runTenants(a *arch.Arch, spec string, horizonUS float64, out string, opt core.Options) {
	tenants, err := tenancy.ParseSpec(spec)
	if err != nil {
		fatal(err)
	}
	rep, err := tenancy.Run(a, tenants, tenancy.Options{
		HorizonUS: horizonUS,
		Opt:       opt,
		OptSet:    true,
	})
	if err != nil {
		fatal(err)
	}
	rep.Print(os.Stdout)
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("tenancy report written to %s\n", out)
	}
}

// runFaulted simulates under a fault plan and, when a core dies or the
// watchdog catches a silent hang, recovers the unexecuted suffix onto
// the surviving cores. Metrics observe the first attempt: a completed
// run reports it whole; a failed one reports the partial execution up
// to the failure.
func runFaulted(g *graph.Graph, a *arch.Arch, opt core.Options, res *core.Result, plan *fault.Plan, watchdog float64, obs observeOpts) {
	clock := a.ClockMHz
	printRetries := func(per []sim.CoreStats) {
		total := 0
		for _, cs := range per {
			total += cs.Retries
		}
		if total > 0 {
			fmt.Printf("  %d DMA transfers dropped and re-issued\n", total)
		}
	}
	printCorruptions := func(cors []sim.Corruption) {
		for _, c := range cors {
			fmt.Printf("  corrupted stratum %d detected at cycle %.0f (%d flipped transfers); re-execute it to repair\n",
				c.Stratum, c.DetectedAtCycle, c.Transfers)
		}
	}
	emit := func(st *sim.Stats) { obs.emitMetrics(res.Program, res, opt.Name(), st) }

	// A faulted run exports metrics only: the collector observes just
	// the first attempt, so it holds no trace of the recovered run.
	obs.traceOut, obs.gantt = "", 0
	rec, err := recovery.Run(res, recovery.Options{
		Opt: opt,
		Sim: sim.Config{Faults: plan, WatchdogCycles: watchdog, Hook: obs.hook()},
	})
	if err != nil {
		if l, ok := sim.LossOf(err); ok {
			emit(l.Partial) // the recovery could not finish; report the first attempt
		}
		fatal(err)
	}
	if !rec.Degraded() {
		fmt.Printf("%s on %s, %s under faults [%s]: %.1f us end-to-end\n",
			g.Name, a.Name, opt.Name(), plan, rec.Final.Stats.LatencyMicros(clock))
		printRetries(rec.Final.Stats.PerCore)
		printCorruptions(rec.Final.Corruptions)
		emit(&rec.Final.Stats)
		return
	}
	emit(rec.FirstAttempt())
	fmt.Printf("%s on %s, %s under faults [%s]: degraded but recovered\n",
		g.Name, a.Name, opt.Name(), plan)
	for _, f := range rec.Failures {
		fmt.Printf("  core %s failed (%s) at cycle %.0f, checkpoint %d layers\n",
			a.Cores[f.Core].Name, f.Kind, f.AtCycle, len(f.Completed))
	}
	for _, h := range rec.Hangs {
		var hung []string
		for _, c := range h.Cores {
			hung = append(hung, a.Cores[c].Name)
		}
		fmt.Printf("  watchdog caught %v silently hung at cycle %.0f (heartbeat %.0f), checkpoint %d layers\n",
			hung, h.AtCycle, watchdog, len(h.Completed))
	}
	var names []string
	for _, c := range rec.Survivors {
		names = append(names, a.Cores[c].Name)
	}
	fmt.Printf("  resumed on %v from %d checkpointed layers, re-executing %d\n",
		names, len(rec.Completed), rec.ReExecutedLayers())
	merged := rec.MergedStats()
	fmt.Printf("  degraded latency %.1f us (re-dispatch penalties included)\n",
		merged.LatencyMicros(clock))
	printRetries(merged.PerCore)
	printCorruptions(rec.Final.Corruptions)
}

// simulateFile replays a precompiled program artifact. Compile-side
// metrics (strata, pass timings) are unavailable here — the report
// covers the run only. It is the one npusim path that runs sim.Run
// directly: a loaded program has no core.Result.
func simulateFile(path string, obs observeOpts) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := serialize.LoadProgram(f)
	if err != nil {
		fatal(err)
	}
	out, err := sim.Run(p, sim.Config{Hook: obs.hook()})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s: %.1f us end-to-end (replayed from %s)\n",
		p.Graph.Name, p.Arch.Name, out.Stats.LatencyMicros(p.Arch.ClockMHz), path)
	obs.export(p, nil, "", &out.Stats)
}

// observeOpts carries the flags that observe a run (-metrics,
// -metrics-out, -trace, -gantt) plus the collector recording it: nil
// until hook finds an output that needs it, which keeps the engine's
// nil-hook fast path.
type observeOpts struct {
	print    bool
	out      string
	traceOut string
	gantt    int
	col      *metrics.Collector
}

func (o *observeOpts) wantMetrics() bool { return o.print || o.out != "" }

// hook returns the sim.Hook to install: the collector when metrics or
// a trace are wanted, else a nil interface.
func (o *observeOpts) hook() sim.Hook {
	if !o.wantMetrics() && o.traceOut == "" && o.gantt <= 0 {
		return nil
	}
	if o.col == nil {
		o.col = &metrics.Collector{}
	}
	return o.col
}

// export writes everything the flags ask for of one observed
// whole-platform run of p: the metrics report, the text Gantt chart and
// the Chrome trace. res, when non-nil, adds the compile-side metrics.
func (o *observeOpts) export(p *plan.Program, res *core.Result, config string, st *sim.Stats) {
	o.emitMetrics(p, res, config, st)
	if o.gantt > 0 {
		if err := trace.Gantt(os.Stdout, o.col.Events, p.Arch, o.gantt); err != nil {
			fatal(err)
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteChrome(f, o.col.Events, p.Arch); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (open in chrome://tracing)\n", o.traceOut)
	}
}

// emitMetrics prints and/or writes the metrics report per the flags.
func (o *observeOpts) emitMetrics(p *plan.Program, res *core.Result, config string, st *sim.Stats) {
	if !o.wantMetrics() {
		return
	}
	rep := metrics.BuildReport(p.Arch, sim.Whole(p), st, o.col)
	if res != nil {
		rep.AttachCompile(res)
	}
	rep.Model = p.Graph.Name
	rep.Config = config
	if o.print {
		if err := report.Utilization(os.Stdout, rep); err != nil {
			fatal(err)
		}
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", o.out)
	}
}

// runServe runs the HTTP service until SIGTERM/SIGINT, then drains:
// admissions stop (readyz flips to 503, new /run requests shed), every
// in-flight request finishes (up to drainTimeout), and the process
// exits 0 on a clean drain.
func runServe(addr string, opts serve.Options, drainTimeout time.Duration) {
	s := serve.New(opts)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- s.ListenAndServe(addr) }()
	opts.Logger.Printf("serving on %s (POST /run /tenants, GET /healthz /readyz /stats)", addr)

	select {
	case err := <-errCh:
		// The listener died on its own (bad address, port in use).
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		opts.Logger.Printf("signal received, draining (timeout %s)", drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(sctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		if err := <-errCh; err != nil {
			fatal(err)
		}
		opts.Logger.Printf("drained cleanly")
	}
}

// fatal reports err and exits with its typed exit code (see the
// cliutil exit-code table in -help).
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "npusim:", err)
	os.Exit(cliutil.ExitCode(err))
}
