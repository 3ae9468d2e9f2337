// Package loadgen is the fleet-scale load generator: it drives
// millions of simulated inference requests through pools of simulated
// devices, against either the in-process engine (replay mode) or a
// live npusim -serve endpoint (live mode), and reports throughput and
// tail-latency percentiles per offered load.
//
// Replay mode is the performance core. Simulation is deterministic, so
// each distinct (model, cores, config) point in the request mix is
// compiled and simulated exactly once — through the fingerprint-keyed
// compile cache — and every subsequent request replays the cached
// latency into a virtual-time device model: a million requests cost a
// handful of real sims plus a tight, allocation-free replay loop. The
// stream is sharded; each shard owns its slice of the device pool, an
// independent splitmix64 RNG, and per-shard metrics.Histogram
// instances that merge exactly at the end, so the hot path touches no
// cross-shard state at all.
//
// The device model: every simulated device runs inferences serially.
// A request is routed to the least-loaded device of its shard (or
// joins an open same-model batch, below), starts when the device
// frees, and completes one cached service time later; latency is
// completion minus arrival. With a batching window W > 0, requests for
// the same model arriving within W µs of a batch's first member
// coalesce: the batch issues once the window closes (or the batch
// fills), and each item beyond the first costs BatchDiscount × the
// solo service time — back-to-back same-model inference keeps weights
// resident in SPM, so the marginal item skips the weight reload.
//
// Arrival processes: "poisson" is an open loop — arrivals at the
// offered rate regardless of completions, the fleet-scale regime where
// queues actually grow — and "closed" is a fixed population of clients
// that each issue, wait, think, and reissue.
//
// Determinism: replay mode is a pure function of (mix, Options). The
// shard count is part of the RNG stream layout and defaults to a fixed
// 8 (not GOMAXPROCS), so the same seed produces byte-identical reports
// on any host, at any -j.
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// MixEntry is one weighted component of the request mix.
type MixEntry struct {
	// Model names a benchmark network (models.ByName).
	Model string
	// Weight is the entry's relative share of requests (normalized
	// over the mix; must be > 0).
	Weight float64
	// Cores selects the architecture (0 → 3, the Exynos-2100-like).
	Cores int
	// Config is the optimization configuration (empty → "stratum").
	Config string
}

// DefaultMix is the Table 2 fleet mix: the always-on interactive
// models (keyboard/camera classification, detection) dominate, the
// heavy segmentation networks trail — the concurrent-mobile-workload
// shape Puzzle motivates.
func DefaultMix() []MixEntry {
	return []MixEntry{
		{Model: "MobileNetV2", Weight: 0.30},
		{Model: "MobileNetV2-SSD", Weight: 0.20},
		{Model: "MobileDet-SSD", Weight: 0.20},
		{Model: "InceptionV3", Weight: 0.10},
		{Model: "DeepLabV3+", Weight: 0.10},
		{Model: "UNet", Weight: 0.10},
	}
}

// Options configures a load-generation run. The zero value picks the
// documented defaults.
type Options struct {
	// Requests is the exact number of requests per load point
	// (default 1e6 in replay mode; live callers should set it).
	Requests int64
	// Rates lists the offered loads (requests/second) to sweep. Empty
	// derives points from the mix's estimated capacity × Utilizations.
	Rates []float64
	// Utilizations are the capacity multiples used when Rates is empty
	// (default 0.3, 0.6, 0.9, 1.2, 2.0).
	Utilizations []float64
	// Devices is the simulated device-pool size (default 16), split
	// across shards.
	Devices int
	// Shards is the parallelism grain. It is part of the deterministic
	// RNG layout, so it defaults to a fixed 8 regardless of host size;
	// the actual goroutine count is still bounded by parallel.Workers.
	Shards int
	// Arrival is the arrival process: "poisson" (open loop, default)
	// or "closed".
	Arrival string
	// Clients is the closed-loop population (default 4 × Devices).
	Clients int
	// ThinkUS is the closed-loop mean think time between a completion
	// and the client's next request (exponential; 0 = reissue at once).
	ThinkUS float64
	// BatchWindowUS is the per-device batching window (0 = no
	// batching, open loop only).
	BatchWindowUS float64
	// BatchMax caps requests coalesced into one batch (default 16,
	// hard cap 64).
	BatchMax int
	// BatchDiscount is the marginal cost of each same-model item after
	// a batch's first, as a fraction of the solo service time
	// (default 0.85).
	BatchDiscount float64
	// MaxRetries bounds live-mode re-issues of a request the server
	// shed with 429 or 503: each retry backs off exponentially with
	// seeded jitter and honors the server's Retry-After as a floor.
	// 0 (default) disables retries — every shed counts as Failed.
	MaxRetries int
	// Seed seeds every arrival process and mix sampler. Two replay
	// runs with equal mix, Options, and Seed produce byte-identical
	// reports.
	Seed uint64
}

const batchCap = 64

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 1_000_000
	}
	if len(o.Utilizations) == 0 {
		o.Utilizations = []float64{0.3, 0.6, 0.9, 1.2, 2.0}
	}
	if o.Devices <= 0 {
		o.Devices = 16
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Shards > o.Devices {
		o.Shards = o.Devices
	}
	if int64(o.Shards) > o.Requests && o.Requests > 0 {
		o.Shards = int(o.Requests)
	}
	if o.Arrival == "" {
		o.Arrival = ArrivalPoisson
	}
	if o.Clients <= 0 {
		o.Clients = 4 * o.Devices
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 16
	}
	if o.BatchMax > batchCap {
		o.BatchMax = batchCap
	}
	if o.BatchDiscount <= 0 {
		o.BatchDiscount = 0.85
	}
	return o
}

// Arrival process names.
const (
	ArrivalPoisson = "poisson"
	ArrivalClosed  = "closed"
)

// resolved is one mix entry with its replay-cache line: the bit-exact
// service latency of one sim of that (model, cores, config) point.
type resolved struct {
	MixEntry
	prob      float64 // normalized weight
	cum       float64 // cumulative probability upper bound
	serviceUS float64 // cached sim latency, bit-exact
	cycles    float64 // cached sim total cycles
}

// Mix is a resolved request mix: the sim-result replay cache for a
// run. Build one with Resolve.
type Mix struct {
	entries []resolved
}

// Resolve compiles and simulates each distinct (model, cores, config)
// point of the mix exactly once (compiles dedupe further through the
// fingerprint-keyed compile cache) and normalizes the weights. This is
// the only place replay mode runs real sims.
func Resolve(mix []MixEntry) (*Mix, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	var totalW float64
	for i, e := range mix {
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return nil, fmt.Errorf("loadgen: mix entry %d (%s) has non-positive weight %v", i, e.Model, e.Weight)
		}
		totalW += e.Weight
	}

	entries, err := parallel.Map(len(mix), func(i int) (resolved, error) {
		e := mix[i]
		if e.Cores == 0 {
			e.Cores = 3
		}
		if e.Config == "" {
			e.Config = "stratum"
		}
		g, err := models.Shared(e.Model)
		if err != nil {
			return resolved{}, err
		}
		a, err := cliutil.Arch(e.Cores)
		if err != nil {
			return resolved{}, err
		}
		opt, err := cliutil.Config(e.Config)
		if err != nil {
			return resolved{}, err
		}
		res, err := core.CompileCached(g, a, opt)
		if err != nil {
			return resolved{}, fmt.Errorf("loadgen: compile %s/%s/%d: %w", e.Model, e.Config, e.Cores, err)
		}
		out, err := res.Simulate(sim.Config{})
		if err != nil {
			return resolved{}, fmt.Errorf("loadgen: sim %s/%s/%d: %w", e.Model, e.Config, e.Cores, err)
		}
		return resolved{
			MixEntry:  e,
			serviceUS: out.Stats.LatencyMicros(a.ClockMHz),
			cycles:    out.Stats.TotalCycles,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var cum float64
	for i := range entries {
		entries[i].prob = mix[i].Weight / totalW
		cum += entries[i].prob
		entries[i].cum = cum
	}
	entries[len(entries)-1].cum = 1 // guard float drift at the top end
	return &Mix{entries: entries}, nil
}

// CapacityRPS estimates the device pool's saturation throughput:
// devices divided by the mix's mean service time.
func (m *Mix) CapacityRPS(devices int) float64 {
	var meanUS float64
	for _, e := range m.entries {
		meanUS += e.prob * e.serviceUS
	}
	if meanUS <= 0 {
		return 0
	}
	return float64(devices) / (meanUS * 1e-6)
}

// ServiceUS returns the cached service latency of entry i — the value
// every replayed request of that entry reuses. Tests cross-check it
// bit-identical against a fresh compile+sim.
func (m *Mix) ServiceUS(i int) float64 { return m.entries[i].serviceUS }

// Entries returns the resolved mix entries (defaults filled in).
func (m *Mix) Entries() []MixEntry {
	out := make([]MixEntry, len(m.entries))
	for i, e := range m.entries {
		out[i] = e.MixEntry
	}
	return out
}

// RunReplay executes the full replay-mode sweep: resolve the mix once,
// then replay Requests requests per offered-load point. The returned
// report is a pure function of the arguments (see the package doc on
// determinism).
func RunReplay(mix []MixEntry, o Options) (*Report, error) {
	o = o.withDefaults()
	rm, err := Resolve(mix)
	if err != nil {
		return nil, err
	}
	return runResolved(rm, o)
}

// runResolved is RunReplay after mix resolution (benchmarks call it
// directly to keep compile/sim out of the timed region).
func runResolved(rm *Mix, o Options) (*Report, error) {
	o = o.withDefaults()
	rep := newReport("replay", rm, o)
	switch o.Arrival {
	case ArrivalPoisson:
		rates := o.Rates
		if len(rates) == 0 {
			capRPS := rm.CapacityRPS(o.Devices)
			for _, u := range o.Utilizations {
				rates = append(rates, capRPS*u)
			}
		}
		for _, rate := range rates {
			if rate <= 0 {
				return nil, fmt.Errorf("loadgen: non-positive offered rate %v", rate)
			}
			rep.Points = append(rep.Points, replayPoint(rm, o, rate))
		}
	case ArrivalClosed:
		rep.Points = append(rep.Points, replayPoint(rm, o, 0))
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival process %q (poisson, closed)", o.Arrival)
	}
	return rep, nil
}

// splitRange gives shard s of nShards its contiguous share of n items:
// sizes differ by at most one, low shards take the remainder.
func splitRange(n int64, s, nShards int) int64 {
	base := n / int64(nShards)
	if int64(s) < n%int64(nShards) {
		return base + 1
	}
	return base
}
