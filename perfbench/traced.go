package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
)

// runtimeDelta is what the Go runtime reports for one phase.
type runtimeDelta struct {
	gcCycles uint32
	pauseNS  uint64
	allocB   uint64
}

func (d runtimeDelta) perRequest(vals map[string]float64, n int) {
	if n == 0 {
		return
	}
	vals["runtime.gc_cycles"] = float64(d.gcCycles) / float64(n)
	vals["runtime.gc_pause_ms"] = float64(d.pauseNS) / 1e6 / float64(n)
	vals["runtime.alloc_mb"] = float64(d.allocB) / (1 << 20) / float64(n)
}

// measureRuntime runs f and returns the runtime's GC and allocation
// counters over it.
func measureRuntime(f func()) runtimeDelta {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return runtimeDelta{
		gcCycles: b.NumGC - a.NumGC,
		pauseNS:  b.PauseTotalNs - a.PauseTotalNs,
		allocB:   b.TotalAlloc - a.TotalAlloc,
	}
}

// replay drops the compile cache, repeats set-up through direct calls
// (as request 0), then sends the request list through direct calls on
// this goroutine until d has passed (d <= 0: no time limit) or maxN
// requests ran. It returns the replies for the check, the number of
// requests sent, their summed wall time, and the runtime counters over
// them.
func replay(ctx context.Context, rec *recorder, in *inputs, d time.Duration, maxN int) (got []served, n, failed int, total time.Duration, rt runtimeDelta) {
	core.ResetCache()
	for _, w := range in.Warm {
		if _, _, err := direct(ctx, rec, w); err != nil {
			failed++
		}
	}
	start := time.Now()
	rt = measureRuntime(func() {
		for ; n < maxN && (d <= 0 || time.Since(start) < d); n++ {
			if rec != nil {
				rec.req = n + 1
			}
			pool := in.Order[n%len(in.Order)]
			t0 := time.Now()
			body, _, err := direct(ctx, rec, in.Pool[pool])
			total += time.Since(t0)
			if err != nil {
				failed++
				continue
			}
			got = append(got, served{Pool: pool, Body: body})
		}
	})
	return got, n, failed, total, rt
}

// tracedServe is the traced run of run-warm or run-degraded. A quarter
// of the window drives the server untraced for serve's own counters;
// then the same request list is replayed through direct layer calls
// twice, traced and untraced, for the per-layer figures and the
// tracing overhead.
func tracedServe(ctx context.Context, cfg config, gen func(uint64, map[string]float64) (*inputs, error), golden map[string]float64) (*result, error) {
	in, err := gen(cfg.seed, golden)
	if err != nil {
		return nil, err
	}
	s, _, err := setupServer(ctx, in)
	if err != nil {
		return nil, err
	}
	warm := s.srv.Stats()
	lr := closedLoop(ctx, s.ts.URL, in, cfg.clients, seconds(cfg.seconds/4), 0)
	st := s.srv.Stats()
	s.close()

	rec := newRecorder()
	tracedGot, n, tracedFailed, traced, _ := replay(ctx, rec, in, seconds(cfg.seconds*3/8), len(in.Order))
	plainGot, _, plainFailed, plain, rt := replay(ctx, nil, in, 0, n)

	c := &checker{log: cfg.log}
	exp, err := serveChecks(ctx, c, in, golden, lr.Served)
	if err != nil {
		return nil, err
	}
	checkServed(c, exp, tracedGot, false)
	checkServed(c, exp, plainGot, false)

	vals := layerMetrics(rec.spans)
	// The server's latency histogram also holds set-up's cold compiles;
	// take them out of its mean to get the timed requests' own.
	if n := st.Latency.Count - warm.Latency.Count; n > 0 {
		exec := float64(st.Latency.MeanUS*st.Latency.Count-warm.Latency.MeanUS*warm.Latency.Count) / float64(n)
		vals["serve.exec_us"] = exec
		vals["serve.overhead_us"] = mean(lr.LatMS)*1e3 - exec
	}
	if tot := (st.Accepted + st.Rejected) - (warm.Accepted + warm.Rejected); tot > 0 {
		vals["serve.shed_ratio"] = float64(st.Rejected-warm.Rejected) / float64(tot)
	}
	rt.perRequest(vals, n)
	vals["trace.overhead_pct"] = overheadPct(traced, plain)
	if err := finishTrace(cfg, rec, n, traced, plain); err != nil {
		return nil, err
	}
	return newResult(perLayer, vals, lr.Attempted+2*n, lr.Failed+tracedFailed+plainFailed, c)
}

// tracedCold is the traced run of compile-cold: half the window of
// traced sweeps, then the same points untraced.
func tracedCold(cfg config, gen func(uint64, map[string]float64) (*inputs, error), golden map[string]float64) (*result, error) {
	in, err := gen(cfg.seed, golden)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	tracedPts, tracedMS, tracedFailed, _ := sweepCold(rec, in, seconds(cfg.seconds/2), len(in.Order))
	n := len(tracedMS) + tracedFailed
	var plainPts []coldPoint
	var plainMS []float64
	var plainFailed int
	rt := measureRuntime(func() {
		plainPts, plainMS, plainFailed, _ = sweepCold(nil, in, 0, n)
	})

	c := &checker{log: cfg.log}
	if _, err := checkCold(c, in, append(tracedPts, plainPts...)); err != nil {
		return nil, err
	}
	vals := layerMetrics(rec.spans)
	vals["serve.exec_us"], vals["serve.overhead_us"], vals["serve.shed_ratio"] = 0, 0, 0
	rt.perRequest(vals, n)
	traced, plain := msDuration(sum(tracedMS)), msDuration(sum(plainMS))
	vals["trace.overhead_pct"] = overheadPct(traced, plain)
	if err := finishTrace(cfg, rec, n, traced, plain); err != nil {
		return nil, err
	}
	return newResult(perLayer, vals, 2*n, tracedFailed+plainFailed, c)
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func overheadPct(traced, plain time.Duration) float64 {
	if plain <= 0 {
		return 0
	}
	return 100 * float64(traced-plain) / float64(plain)
}

// spansDir is where traced runs write their spans, inside the build
// directory that run.sh creates in the checkout.
const spansDir = ".bench_build/spans"

// finishTrace reports the tracing overhead and writes the spans out.
func finishTrace(cfg config, rec *recorder, n int, traced, plain time.Duration) error {
	fmt.Fprintf(cfg.log, "traced replay: %d requests, %v traced vs %v untraced (%+.2f%%), %d spans\n",
		n, traced.Round(time.Millisecond), plain.Round(time.Millisecond), overheadPct(traced, plain), len(rec.spans))
	path, err := writeSpans(spansDir, cfg.workload, cfg.seed, rec.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	return nil
}
