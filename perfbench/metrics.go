package main

import "time"

// metric is one reported number. Moves records, for a per-layer metric,
// which end-to-end metric on which workload a change to that layer
// should move, and where the prediction is no change.
type metric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: tolerated worsening, as a share of the median
	Moves              string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// error_rate and output_mismatches are not among them: both are zero by
// construction and are carried by the result's "failed" and "correct"
// fields instead (any failure or mismatch fails the run).
var endToEnd = []metric{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25,
		Moves: "completed 200s per second, median of 5 windows (compile-cold: points per second of a sweep)"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Moves: "client-measured request latency, median of 5 windows' medians (compile-cold: of the points' medians over sweeps)"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Moves: "nearest-rank p99, median of 5 windows each with 10 samples beyond it (compile-cold: the slowest point's median over sweeps)"},
	{Name: "oneshot_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Moves: "geomean of cold build+compile+simulate per point, each its median over sweeps (run workloads: over set-ups, of set-up's cache-warming requests)"},
	{Name: "oneshot_sum_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "the same points summed: the cost of one sweep, dominated by UNet"},
	{Name: "sim_latency_us_geomean", Unit: "sim_us", Better: "lower", Bound: 0.05,
		Moves: "modelled inference latency over the distinct requests; deterministic, unvalidated against silicon"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Moves: "inputs generated, server started, cache warmed (compile-cold: inputs and graphs); median of 3 or more set-ups"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Moves: "highest live-heap sample, median over the 5 windows (compile-cold: over sweeps)"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer a workload never calls reads 0.
var perLayer = []metric{
	{Name: "models.build_us", Unit: "us", Better: "lower",
		Moves: "run-warm latency_p50_ms/throughput_rps; none on compile-cold"},
	{Name: "core.fingerprint_us", Unit: "us", Better: "lower",
		Moves: "run-warm latency_p50_ms/throughput_rps; no change on compile-cold"},
	{Name: "core.fingerprint_allocs", Unit: "count", Better: "lower",
		Moves: "run-warm latency_p50_ms/throughput_rps; no change on compile-cold"},
	{Name: "core.lookup_us", Unit: "us", Better: "lower",
		Moves: "a cache-hit CompileCachedCtx (its fingerprint, load and copy): run-warm latency_p50_ms/throughput_rps; no change on compile-cold"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher",
		Moves: "run-warm latency_p50_ms/throughput_rps; no change on compile-cold"},
	{Name: "core.partition_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.schedule_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.stratum_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.emit_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.admit_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.fallback_attempts", Unit: "count", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.fallback_wasted_us", Unit: "us", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.compile_allocs", Unit: "count", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "core.compile_mb", Unit: "MB", Better: "lower",
		Moves: "compile-cold oneshot_*/peak_heap_mb; run-warm setup_s; no change on run-warm timed metrics"},
	{Name: "sim.run_us", Unit: "us", Better: "lower",
		Moves: "run-warm throughput_rps (about 70% of a hit); compile-cold oneshot_geomean_ms via admit"},
	{Name: "sim.run_allocs", Unit: "count", Better: "lower",
		Moves: "run-warm throughput_rps; compile-cold oneshot_geomean_ms via admit"},
	{Name: "sim.minstr_per_s", Unit: "Minstr/s", Better: "higher",
		Moves: "run-warm throughput_rps; compile-cold oneshot_geomean_ms via admit"},
	{Name: "recovery.recover_us", Unit: "us", Better: "lower",
		Moves: "run-degraded latency_p99_ms/throughput_rps; no change on run-warm"},
	{Name: "recovery.remap_misses", Unit: "count", Better: "lower",
		Moves: "run-degraded latency_p99_ms/throughput_rps; no change on run-warm"},
	{Name: "recovery.degraded_ratio", Unit: "ratio", Better: "lower",
		Moves: "run-degraded latency_p99_ms/throughput_rps; no change on run-warm"},
	{Name: "tenancy.run_us", Unit: "us", Better: "lower",
		Moves: "run-degraded latency_p99_ms; no change on run-warm and compile-cold"},
	{Name: "tenancy.epochs", Unit: "count", Better: "lower",
		Moves: "run-degraded latency_p99_ms; no change on run-warm and compile-cold"},
	{Name: "tenancy.preemptions", Unit: "count", Better: "lower",
		Moves: "run-degraded latency_p99_ms; no change on run-warm and compile-cold"},
	{Name: "tenancy.remaps", Unit: "count", Better: "lower",
		Moves: "run-degraded latency_p99_ms; no change on run-warm and compile-cold"},
	{Name: "serve.exec_us", Unit: "us", Better: "lower",
		Moves: "run-warm latency_p50_ms"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower",
		Moves: "run-warm latency_p50_ms (HTTP, decode, admission, encode)"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower",
		Moves: "run-warm latency_p50_ms"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower",
		Moves: "run-warm latency_p50_ms"},
	{Name: "runtime.gc_cycles", Unit: "1/req", Better: "lower",
		Moves: "peak_heap_mb on every workload, and oneshot_sum_s (compile-cold: includes the collection forced before each point)"},
	{Name: "runtime.gc_pause_ms", Unit: "ms/req", Better: "lower",
		Moves: "peak_heap_mb on every workload, and oneshot_sum_s"},
	{Name: "runtime.alloc_mb", Unit: "MB/req", Better: "lower",
		Moves: "peak_heap_mb on every workload, and oneshot_sum_s"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower",
		Moves: "none: traced minus untraced time of the same replayed requests"},
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics derives the span-based per-layer metrics. Compile figures
// cover every compile the replay made, set-up included; the cache-hit
// ratio covers only the replayed requests (req >= 1).
func layerMetrics(spans []span) map[string]float64 {
	self := selfNS(spans)
	byName := map[string][]int{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], i)
	}
	meanSelfUS := func(name string) float64 {
		var xs []float64
		for _, i := range byName[name] {
			xs = append(xs, float64(self[i])/1e3)
		}
		return mean(xs)
	}
	meanOf := func(idx []int, f func(*span) float64) float64 {
		var xs []float64
		for _, i := range idx {
			xs = append(xs, f(&spans[i]))
		}
		return mean(xs)
	}
	attr := func(key string) func(*span) float64 {
		return func(s *span) float64 { return s.Attrs[key] }
	}

	m := map[string]float64{}
	for _, pm := range perLayer {
		m[pm.Name] = 0 // a layer this workload never calls
	}
	m["models.build_us"] = meanSelfUS("models.Build")
	m["core.fingerprint_us"] = meanSelfUS("core.Fingerprint")
	m["core.fingerprint_allocs"] = meanOf(byName["core.Fingerprint"], func(s *span) float64 { return float64(s.Allocs) })

	// A hit's CompileCachedCtx is the whole cost of a cache hit: its own
	// fingerprint, the map load and the Result copy.
	var lookups []float64
	var hits, calls float64
	var compiles []int
	for _, i := range byName["core.CompileCachedCtx"] {
		s := &spans[i]
		if s.Attrs["hit"] == 1 {
			lookups = append(lookups, float64(self[i])/1e3)
		} else {
			compiles = append(compiles, i)
		}
		if s.Req >= 1 {
			calls++
			hits += s.Attrs["hit"]
		}
	}
	m["core.lookup_us"] = mean(lookups)
	if calls > 0 {
		m["core.cache_hit_ratio"] = hits / calls
	}
	compiles = append(compiles, byName["core.Compile"]...)
	for _, k := range []string{"partition_us", "schedule_us", "stratum_us", "emit_us", "admit_us", "fallback_wasted_us"} {
		m["core."+k] = meanOf(compiles, attr(k))
	}
	m["core.fallback_attempts"] = meanOf(compiles, attr("fallbacks"))
	m["core.compile_allocs"] = meanOf(compiles, func(s *span) float64 { return float64(s.Allocs) })
	m["core.compile_mb"] = meanOf(compiles, func(s *span) float64 { return float64(s.Bytes) / (1 << 20) })

	m["sim.run_us"] = meanSelfUS("sim.Run")
	m["sim.run_allocs"] = meanOf(byName["sim.Run"], func(s *span) float64 { return float64(s.Allocs) })
	var instrs, simNS float64
	for _, i := range byName["sim.Run"] {
		if n := spans[i].Attrs["instrs"]; n > 0 {
			instrs += n
			simNS += float64(spans[i].dur())
		}
	}
	if simNS > 0 {
		m["sim.minstr_per_s"] = instrs / (simNS / 1e9) / 1e6
	}

	m["recovery.recover_us"] = meanSelfUS("recovery.RecoverFrom")
	for _, i := range byName["recovery.RecoverFrom"] {
		m["recovery.remap_misses"] += spans[i].Attrs["remap_misses"]
	}
	var faulted, degraded float64
	for _, i := range byName["request"] {
		faulted += spans[i].Attrs["faulted"]
		degraded += spans[i].Attrs["degraded"]
	}
	if faulted > 0 {
		m["recovery.degraded_ratio"] = degraded / faulted
	}

	m["tenancy.run_us"] = meanSelfUS("tenancy.Run")
	for _, k := range []string{"epochs", "preemptions", "remaps"} {
		m["tenancy."+k] = meanOf(byName["tenancy.Run"], attr(k))
	}
	m["serve.encode_us"] = meanSelfUS("json.Marshal")
	return m
}
