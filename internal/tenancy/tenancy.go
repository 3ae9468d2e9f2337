// Package tenancy implements a multi-tenant serving scheduler above
// the concurrent simulator: tenants are admitted as (model, priority,
// SLO) tuples, mapped onto disjoint core subsets of one platform, and
// each runs inferences back to back on its subset, a stream in one
// co-run per epoch against the max–min-fair bus model, so cross-tenant
// interference falls out of the same simulation that produces
// latencies. Arrivals and departures re-plan the placement; running
// tenants are preempted at stratum boundaries (sim.CutAtCycle on the
// co-run's per-layer finish cycles) and re-mapped bit-exactly onto
// their new subsets through recovery.Remap's suffix re-partitioner.
// Clean co-runs are memoized process-wide, keyed by the platform, each
// stream's compile keys and cores, and the epoch's length.
package tenancy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// Tenant is one admitted serving client: a model it runs back-to-back,
// a scheduling priority (higher wins cores), a per-inference latency
// SLO, and its lifetime on the platform.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Model is a models.ByName network name.
	Model string
	// Priority orders core allocation; higher priorities receive the
	// leftover cores first. Ties break by arrival time, then spec order.
	Priority int
	// SLOUS is the per-inference latency objective in microseconds;
	// 0 means no objective (every inference counts as a hit).
	SLOUS float64
	// ArriveUS is when the tenant requests admission.
	ArriveUS float64
	// DepartUS is when the tenant leaves; <= 0 means it stays for the
	// whole horizon.
	DepartUS float64
}

// Validate checks a tenant spec entry.
func (t *Tenant) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("tenancy: tenant with empty name")
	}
	if _, err := models.ByName(t.Model); err != nil {
		return fmt.Errorf("tenancy: tenant %s: %w", t.Name, err)
	}
	if t.SLOUS < 0 {
		return fmt.Errorf("tenancy: tenant %s: negative SLO %.1f", t.Name, t.SLOUS)
	}
	if t.ArriveUS < 0 {
		return fmt.Errorf("tenancy: tenant %s: negative arrival %.1f", t.Name, t.ArriveUS)
	}
	if t.DepartUS > 0 && t.DepartUS <= t.ArriveUS {
		return fmt.Errorf("tenancy: tenant %s departs at %.1f before arriving at %.1f",
			t.Name, t.DepartUS, t.ArriveUS)
	}
	return nil
}

// ParseSpec parses a comma-separated tenant list. Each tenant is
// colon-separated fields, the first being name=Model, the rest
// optional key=value pairs:
//
//	cam=MobileNetV2:prio=2:slo=4000,seg=DeepLabV3+:slo=40000:arrive=5000:depart=15000
//
// Keys: prio (int, default 1), slo (µs, default 0 = none), arrive
// (µs, default 0), depart (µs, default 0 = never).
func ParseSpec(spec string) ([]Tenant, error) {
	var out []Tenant
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ":")
		name, model, ok := strings.Cut(fields[0], "=")
		if !ok {
			return nil, fmt.Errorf("tenancy: %q: want name=Model first", entry)
		}
		t := Tenant{Name: strings.TrimSpace(name), Model: strings.TrimSpace(model), Priority: 1}
		floats := map[string]*float64{"slo": &t.SLOUS, "arrive": &t.ArriveUS, "depart": &t.DepartUS}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("tenancy: %q: field %q is not key=value", entry, f)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			var err error
			if x := floats[k]; x != nil {
				*x, err = strconv.ParseFloat(v, 64)
			} else if k == "prio" {
				t.Priority, err = strconv.Atoi(v)
			} else {
				return nil, fmt.Errorf("tenancy: %q: unknown key %q", entry, k)
			}
			if err != nil {
				return nil, fmt.Errorf("tenancy: %q: %s: %w", entry, k, err)
			}
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("tenancy: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenancy: empty tenant spec")
	}
	return out, nil
}

// Options configures a tenancy run.
type Options struct {
	// HorizonUS is the simulated serving window; 0 picks
	// DefaultHorizonUS.
	HorizonUS float64
	// Opt is the compiler configuration every tenant compiles with;
	// zero value means core.Stratum().
	Opt core.Options
	// OptSet marks Opt as explicitly provided (a zero core.Options is
	// a meaningful configuration, so presence needs its own bit).
	OptSet bool
	// Sim configures every co-simulation: cancellation via Ctx, fault
	// plans, the watchdog. Its Hook is replaced by the run's own
	// sim.LayerFinish, because preemption cuts need each co-run's
	// per-layer finish cycles. With no fault plan, co-runs are served
	// from the process-wide co-run memo when they have run before (see
	// MemoStats); a non-empty Faults, or a Ctx already done, bypasses it.
	Sim sim.Config
}

// DefaultHorizonUS is the serving window simulated when the caller
// does not pick one: 20 ms, a couple of camera frames.
const DefaultHorizonUS = 20000

func (o *Options) horizonUS() float64 {
	if o.HorizonUS > 0 {
		return o.HorizonUS
	}
	return DefaultHorizonUS
}

func (o *Options) opt() core.Options {
	if o.OptSet {
		return o.Opt
	}
	return core.Stratum()
}

// buildModel resolves a tenant's model name to its shared graph.
func buildModel(name string) (*graph.Graph, error) {
	g, err := models.Shared(name)
	if err != nil {
		return nil, fmt.Errorf("tenancy: %w", err)
	}
	return g, nil
}

// tenantState is the scheduler's mutable view of one tenant.
type tenantState struct {
	spec  *Tenant
	index int // spec order, final tie-break
	g     *graph.Graph

	active  bool
	firstUS float64 // first admission time

	cores []int // current subset; nil when not placed

	// In-flight inference checkpoint, original-graph coordinates, plus
	// the cycles already spent on it in earlier epochs.
	ckpt    recovery.Checkpoint
	carried float64

	// full is g compiled for cores; resume, when ckpt is not empty, is
	// the suffix past it, which the next epoch's stream runs first.
	// Each comes with its isolated latency (cycles).
	full, resume       *recovery.Remapped
	fullIso, resumeIso float64

	// Accounting, summed over completed inferences: latency (cycles),
	// isolated latency (cycles) and interference (%).
	infs, hits                         int64
	sumLatency, sumIsolated, sumInterf float64
	remaps, preempts                   int
}

// element returns the j-th program of ts's stream and its isolated
// latency: the resumed suffix first when there is one, then full.
func (ts *tenantState) element(j int) (*recovery.Remapped, float64) {
	if j == 0 && ts.resume != nil {
		return ts.resume, ts.resumeIso
	}
	return ts.full, ts.fullIso
}

// coreRank orders a's core indices fastest-first (DMA bandwidth, then
// MAC throughput, then index) — the order leftover cores are handed to
// high-priority tenants.
func coreRank(a *arch.Arch) []int {
	rank := make([]int, a.NumCores())
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(i, j int) bool {
		ci, cj := a.Cores[rank[i]], a.Cores[rank[j]]
		if ci.DMABytesPerCycle != cj.DMABytesPerCycle {
			return ci.DMABytesPerCycle > cj.DMABytesPerCycle
		}
		if ci.MACsPerCycle != cj.MACsPerCycle {
			return ci.MACsPerCycle > cj.MACsPerCycle
		}
		return rank[i] < rank[j]
	})
	return rank
}

// admitOrder sorts active tenants by scheduling precedence: priority
// desc, arrival asc, spec order.
func admitOrder(states []*tenantState) {
	sort.SliceStable(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if a.spec.Priority != b.spec.Priority {
			return a.spec.Priority > b.spec.Priority
		}
		if a.spec.ArriveUS != b.spec.ArriveUS {
			return a.spec.ArriveUS < b.spec.ArriveUS
		}
		return a.index < b.index
	})
}

// place assigns core subsets to the admitted tenants (already in
// precedence order). Every tenant gets at least one core; the leftover
// cores go to the front of the order, one each. Assignment is sticky:
// a tenant keeps the cores it already holds when its share allows,
// minimizing re-maps (subsets are compile keys on this heterogeneous
// platform — {0,1} and {1,2} are different programs). Cores in the
// dead set (lost to a failure or a detected hang) are never assigned.
func place(a *arch.Arch, admitted []*tenantState, dead map[int]bool) {
	rank := coreRank(a)
	if len(dead) > 0 {
		alive := rank[:0]
		for _, c := range rank {
			if !dead[c] {
				alive = append(alive, c)
			}
		}
		rank = alive
	}
	ncores := len(rank)
	k := len(admitted)
	if k == 0 {
		return
	}
	share := make([]int, k)
	for i := range share {
		share[i] = 1
	}
	for extra := ncores - k; extra > 0; extra-- {
		share[(ncores-k-extra)%k]++
	}
	free := make(map[int]bool, a.NumCores())
	for _, c := range rank {
		free[c] = true
	}
	for i, ts := range admitted {
		want := share[i]
		var got []int
		for _, c := range ts.cores { // sticky: previously-held first
			if len(got) < want && free[c] {
				got = append(got, c)
				free[c] = false
			}
		}
		for _, c := range rank { // then fastest available
			if len(got) >= want {
				break
			}
			if free[c] {
				got = append(got, c)
				free[c] = false
			}
		}
		sort.Ints(got)
		ts.cores = got
	}
}
