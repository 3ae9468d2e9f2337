// Command perfbench is the repository's benchmark. It drives the
// toolchain's public packages (serve, models, core, sim, recovery,
// tenancy) from outside, checks every output, and prints the metrics
// named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload run-warm --seed 1 --seconds 25 --trace 0
//
// run.sh builds this package and runs it from the root of a checkout.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// replays the same seed's requests through the layer calls with a span
// around each and prints the per-layer metrics. Human-readable lines go
// to standard error; the last line of standard output is the JSON
// result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/models"
	"repro/internal/plan"
)

// A run sets up at least minSetups times, and again while its set-ups
// so far took under setupBudget, up to maxSetups; setup_s and the
// set-up one-shot figures are medians over them.
const (
	minSetups   = 3
	maxSetups   = 1000
	setupBudget = 1500 * time.Millisecond
)

func moreSetups(done int, spent time.Duration) bool {
	return done < minSetups || (done < maxSetups && spent < setupBudget)
}

// value is one metric reading in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// clients is 1: a second closed-loop client on a 2-vCPU host keeps
	// both CPUs busy, so its figures follow how much of the shared host
	// the run gets (run-warm throughput 630-830 rps on the same code);
	// one client leaves a CPU to the server's other goroutines and the
	// runtime, and repeats within a few percent.
	clients int
	log     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: run-warm, compile-cold or run-degraded")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 25, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gen, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (run-warm, compile-cold, run-degraded), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	golden, err := readGolden(".")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		clients:  1,
		log:      stderr,
	}
	// Every phase stops well inside the three-minute limit on one run.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	var res *result
	switch {
	case *trace == 1 && *workload == "compile-cold":
		res, err = tracedCold(cfg, gen, golden)
	case *trace == 1:
		res, err = tracedServe(ctx, cfg, gen, golden)
	case *workload == "compile-cold":
		res, err = untracedCold(cfg, gen, golden)
	default:
		res, err = untracedServe(ctx, cfg, gen, golden)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	printResult(stdout, stderr, cfg, res)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// printResult writes one "name value unit" line per metric to stderr
// and the JSON result as the last line of stdout.
func printResult(stdout, stderr io.Writer, cfg config, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stderr, "workload %s seed %d: attempted %d, failed %d, correct %v\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Fprintf(stderr, "  %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result of plain numbers always marshals
	}
	fmt.Fprintf(stdout, "%s\n", line)
}

// newResult fills the metrics of the given list from vals, which must
// hold every one of them.
func newResult(list []metric, vals map[string]float64, attempted, failed int, c *checker) (*result, error) {
	res := &result{
		Correct:   c.mismatches == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	fmt.Fprintf(c.log, "output_mismatches %d\n", c.mismatches)
	if attempted > 0 {
		fmt.Fprintf(c.log, "error_rate %.6g (%d of %d attempted)\n", float64(failed)/float64(attempted), failed, attempted)
	}
	return res, nil
}

// windows is how many equal parts a run workload's timed window is cut
// into. Throughput, latency and peak heap are medians over the parts,
// so a burst of noise from the host in one part does not move them.
const windows = 5

// windowedMetrics fills throughput, latency and peak heap of a closed
// loop as medians over its windows.
func windowedMetrics(vals map[string]float64, log io.Writer, lr *loadResult, heap *heapSampler) {
	width := lr.Elapsed / windows
	lat := make([][]float64, windows)
	for i, at := range lr.DoneAt {
		w := min(int(at/width), windows-1)
		lat[w] = append(lat[w], lr.LatMS[i])
	}
	var rps, p50, p99, peak []float64
	fewest := len(lr.LatMS)
	for w, xs := range lat {
		from := lr.Start.Add(time.Duration(w) * width)
		rps = append(rps, float64(len(xs))/width.Seconds())
		p50 = append(p50, median(xs))
		p99 = append(p99, quantile(xs, 0.99))
		peak = append(peak, heap.peakMB(from, from.Add(width)))
		fewest = min(fewest, len(xs))
	}
	vals["throughput_rps"] = median(rps)
	vals["latency_p50_ms"] = median(p50)
	vals["latency_p99_ms"] = median(p99)
	vals["peak_heap_mb"] = median(peak)
	fmt.Fprintf(log, "%d samples in %d windows; the smallest has %d, %d beyond its p99\n",
		len(lr.LatMS), windows, fewest, beyond(fewest, 0.99))
}

// untracedServe measures run-warm or run-degraded: set up (repeatedly,
// keeping the last server), then a closed loop against the server.
func untracedServe(ctx context.Context, cfg config, gen func(uint64, map[string]float64) (*inputs, error), golden map[string]float64) (*result, error) {
	heap := startHeapSampler()
	var in *inputs
	var s *server
	var setups []float64
	var oneshots [][]float64 // per warm request, its cold time in ms in each set-up
	for start := time.Now(); moreSetups(len(setups), time.Since(start)); {
		if s != nil {
			s.close()
		}
		// Each set-up starts from a collected heap, so where the
		// collector's cycles fall in it is the same from run to run.
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = gen(cfg.seed, golden); err != nil {
			heap.stop()
			return nil, err
		}
		var oneshot []float64
		if s, oneshot, err = setupServer(ctx, in); err != nil {
			heap.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if oneshots == nil {
			oneshots = make([][]float64, len(oneshot))
		}
		for i, ms := range oneshot {
			oneshots[i] = append(oneshots[i], ms)
		}
	}
	// Each warm request's cold time is its median over the set-ups, so
	// one slow compile in one set-up does not move the figures.
	var pointMS []float64
	for _, xs := range oneshots {
		pointMS = append(pointMS, median(xs))
	}
	runtime.GC()
	// Each window must hold enough samples for its own p99.
	lr := closedLoop(ctx, s.ts.URL, in, cfg.clients, seconds(cfg.seconds), windows*minSamples(0.99))
	heap.stop()
	s.close()

	c := &checker{log: cfg.log}
	exp, err := serveChecks(ctx, c, in, golden, lr.Served)
	if err != nil {
		return nil, err
	}
	var modelled []float64
	for _, e := range exp {
		modelled = append(modelled, modelledUS(e.v))
	}
	vals := map[string]float64{
		"oneshot_geomean_ms":     geomean(pointMS),
		"oneshot_sum_s":          sum(pointMS) / 1e3,
		"sim_latency_us_geomean": geomean(modelled),
		"setup_s":                median(setups),
	}
	windowedMetrics(vals, cfg.log, lr, heap)
	fmt.Fprintf(cfg.log, "statuses %v, max in flight %d\n", lr.Status, lr.MaxInFlight)
	return newResult(endToEnd, vals, lr.Attempted, lr.Failed, c)
}

// serveChecks runs the output checks of a run workload and returns the
// direct-call expectations.
func serveChecks(ctx context.Context, c *checker, in *inputs, golden map[string]float64, got []served) ([]expectation, error) {
	exp, err := expectations(ctx, in)
	if err != nil {
		return nil, err
	}
	warm := in.Workload == "run-warm"
	checkServed(c, exp, got, warm)
	if warm {
		if err := checkGolden(c, in, exp, golden); err != nil {
			return nil, err
		}
	}
	return exp, nil
}

// coldPoint is one timed compile-cold point, kept for the check.
type coldPoint struct {
	pool   int
	prog   *plan.Program
	cycles float64
}

// sweepCold runs whole sweeps of in.Order through oneShot until at
// least d has passed (d <= 0: no time limit) or maxPoints ran,
// returning each point's wall time in ms and when each sweep began
// (with the end of the last one appended).
func sweepCold(rec *recorder, in *inputs, d time.Duration, maxPoints int) (pts []coldPoint, ms []float64, failed int, marks []time.Time) {
	start := time.Now()
	for i := 0; i < len(in.Order) && i < maxPoints; i++ {
		if i%len(in.Pool) == 0 {
			marks = append(marks, time.Now())
			if d > 0 && time.Since(start) >= d {
				return pts, ms, failed, marks
			}
		}
		if rec != nil {
			rec.req = i + 1
		}
		pool := in.Order[i]
		// Like a fresh npusim process, each point starts from a collected
		// heap, so the collector's cycles fall alike in every sweep.
		runtime.GC()
		t0 := time.Now()
		res, out, err := oneShot(rec, in.Pool[pool])
		dt := time.Since(t0)
		if err != nil {
			failed++
			continue
		}
		ms = append(ms, float64(dt)/float64(time.Millisecond))
		pts = append(pts, coldPoint{pool: pool, prog: res.Program, cycles: out.Stats.TotalCycles})
	}
	return pts, ms, failed, append(marks, time.Now())
}

// checkCold holds every point to the reference engine and every repeat
// of a point to its first run.
func checkCold(c *checker, in *inputs, pts []coldPoint) (map[int]float64, error) {
	first := map[int]float64{}
	for _, p := range pts {
		name := string(in.Pool[p.pool].Body)
		if err := checkReference(c, name, p.prog, p.cycles); err != nil {
			return nil, err
		}
		if f, ok := first[p.pool]; !ok {
			first[p.pool] = p.cycles
		} else if f != p.cycles {
			c.fail("%s: %v cycles, earlier sweep %v", name, p.cycles, f)
		}
	}
	return first, nil
}

// untracedCold measures compile-cold: whole seeded sweeps of one-shot
// build+compile+simulate points on one goroutine, no server, no cache.
// Each point's time is its median over the sweeps, so one slow sweep
// does not move the figures; peak heap is the median sweep's peak.
func untracedCold(cfg config, gen func(uint64, map[string]float64) (*inputs, error), golden map[string]float64) (*result, error) {
	heap := startHeapSampler()
	var in *inputs
	var setups []float64
	for start := time.Now(); moreSetups(len(setups), time.Since(start)); {
		// Set-up is what a one-shot invocation prepares before compiling:
		// the inputs, and each point's graph built and validated.
		runtime.GC()
		t0 := time.Now()
		var err error
		if in, err = gen(cfg.seed, golden); err != nil {
			heap.stop()
			return nil, err
		}
		for _, req := range in.Pool {
			if err := models.ByNameMust(req.Run.Model).Validate(); err != nil {
				heap.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	pts, ms, failed, marks := sweepCold(nil, in, seconds(cfg.seconds), len(in.Order))
	heap.stop()

	c := &checker{log: cfg.log}
	first, err := checkCold(c, in, pts)
	if err != nil {
		return nil, err
	}
	perPoint := map[int][]float64{}
	for i, p := range pts {
		perPoint[p.pool] = append(perPoint[p.pool], ms[i])
	}
	var pointMS, modelled []float64
	for pool, xs := range perPoint {
		pointMS = append(pointMS, median(xs))
		modelled = append(modelled, pointLatencyUS(in.Pool[pool], first[pool]))
	}
	var peaks []float64
	for i := 0; i+1 < len(marks); i++ {
		peaks = append(peaks, heap.peakMB(marks[i], marks[i+1]))
	}
	sweep := sum(pointMS) / 1e3
	vals := map[string]float64{
		"throughput_rps":         float64(len(pointMS)) / sweep,
		"latency_p50_ms":         median(append([]float64(nil), pointMS...)),
		"latency_p99_ms":         quantile(append([]float64(nil), pointMS...), 0.99),
		"oneshot_geomean_ms":     geomean(pointMS),
		"oneshot_sum_s":          sweep,
		"sim_latency_us_geomean": geomean(modelled),
		"setup_s":                median(setups),
		"peak_heap_mb":           median(peaks),
	}
	fmt.Fprintf(cfg.log, "%d points in %d sweeps of %d; latency_p99_ms is the slowest point's median\n",
		len(ms), len(peaks), len(in.Pool))
	return newResult(endToEnd, vals, len(ms)+failed, failed, c)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
