package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/arch"
	"repro/internal/metrics"
	"repro/internal/tenancy"
)

// TenantLoad couples one tenancy tenant with its offered request rate.
type TenantLoad struct {
	Tenant tenancy.Tenant
	// RPS is the tenant's open-loop (Poisson) arrival rate in
	// requests/second; 0 derives 80% of the tenant's shared-schedule
	// capacity (1/mean shared latency).
	RPS float64
}

// TenantsOptions configures a multi-tenant replay run.
type TenantsOptions struct {
	// HorizonUS is the serving window (default tenancy.DefaultHorizonUS).
	HorizonUS float64
	// Seed drives the per-tenant arrival processes; equal inputs and
	// seeds produce byte-identical reports.
	Seed uint64
	// Tenancy forwards compiler/simulator configuration to the
	// schedule simulation (HorizonUS is overridden by the field above).
	Tenancy tenancy.Options
}

// TenantPoint is one tenant's replay measurement.
type TenantPoint struct {
	Name     string
	Model    string
	Priority int
	SLOUS    float64 `json:",omitempty"`
	// OfferedRPS is the tenant's arrival intensity.
	OfferedRPS float64
	// ServiceUS is the per-inference latency the tenancy schedule
	// measured for this tenant under co-location — the replayed service
	// time. IsolatedUS and InterferencePct echo the schedule's
	// contention accounting.
	ServiceUS       float64
	IsolatedUS      float64
	InterferencePct float64
	Requests        int64
	SLOHits         int64
	SLOHitPct       float64
	Latency         LatencySummary
}

// TenantsReport is a full multi-tenant replay: the underlying tenancy
// schedule plus per-tenant queueing results. Pure function of the
// inputs — no wall-clock fields.
type TenantsReport struct {
	Seed      uint64
	HorizonUS float64
	// Schedule is the tenancy co-scheduling simulation the service
	// times came from.
	Schedule *tenancy.Report
	Tenants  []TenantPoint
}

// RunTenants simulates the tenancy schedule, then replays per-tenant
// Poisson request streams against each tenant's measured shared-
// schedule latency: every tenant owns a serial FIFO server (its core
// subset), so request latency is queueing wait plus the co-scheduled
// service time, and the SLO hit rate accounts for both contention (via
// the tenancy-measured service time) and bursts (via the queue).
func RunTenants(a *arch.Arch, loads []TenantLoad, o TenantsOptions) (*TenantsReport, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("loadgen: no tenant loads")
	}
	topts := o.Tenancy
	if o.HorizonUS > 0 {
		topts.HorizonUS = o.HorizonUS
	}
	horizon := topts.HorizonUS
	if horizon <= 0 {
		horizon = tenancy.DefaultHorizonUS
		topts.HorizonUS = horizon
	}
	tenants := make([]tenancy.Tenant, len(loads))
	for i, ld := range loads {
		tenants[i] = ld.Tenant
	}
	sched, err := tenancy.Run(a, tenants, topts)
	if err != nil {
		return nil, err
	}

	rep := &TenantsReport{Seed: o.Seed, HorizonUS: horizon, Schedule: sched}
	for i, ld := range loads {
		tr := sched.Tenants[i]
		rep.Tenants = append(rep.Tenants, replayTenant(&ld, &tr, horizon, o.Seed, i))
	}
	return rep, nil
}

// replayTenant runs one tenant's open-loop FIFO queue over its admitted
// window. Requests arriving while the tenant was never admitted (no
// measured service time) are all SLO misses with zero latency recorded.
func replayTenant(ld *TenantLoad, tr *tenancy.TenantReport, horizonUS float64, seed uint64, index int) TenantPoint {
	p := TenantPoint{
		Name:            tr.Name,
		Model:           tr.Model,
		Priority:        tr.Priority,
		SLOUS:           tr.SLOUS,
		ServiceUS:       round3(tr.MeanLatencyUS),
		IsolatedUS:      round3(tr.IsolatedUS),
		InterferencePct: round3(tr.InterferencePct),
	}
	svc := tr.MeanLatencyUS
	rate := ld.RPS
	if rate <= 0 && svc > 0 {
		rate = 0.8 * 1e6 / svc
	}
	p.OfferedRPS = round3(rate)

	start := tr.ArriveUS
	end := horizonUS
	if tr.DepartUS > 0 && tr.DepartUS < end {
		end = tr.DepartUS
	}
	if rate <= 0 || end <= start {
		return p
	}

	// Decorrelated per-tenant stream. Seeding at seed+(i+1)*gamma would
	// make stream i equal stream i+1 shifted by one draw (splitmix64
	// advances its state by gamma per output), so hash the offset seed
	// through the mix function first.
	base := prng(seed + uint64(index)*0x9e3779b97f4a7c15)
	rng := prng(base.next())
	meanGapUS := 1e6 / rate

	// The server opens when the scheduler first granted cores.
	busy := start
	if tr.AdmittedUS > start {
		busy = tr.AdmittedUS
	}
	var dist metrics.Dist
	var maxUS int64
	var noWait int64 // uncontended requests: latency == svc exactly
	served := svc > 0
	for t := start + rng.exp()*meanGapUS; t < end; t += rng.exp() * meanGapUS {
		p.Requests++
		if !served {
			continue // never admitted: dropped, counted as misses
		}
		st := t
		if busy > st {
			st = busy
		}
		fin := st + svc
		lat := fin - t
		busy = fin
		if st == t {
			noWait++ // bulk-book below via ObserveN
		} else {
			dist.Observe(int64(lat))
		}
		if int64(lat) > maxUS {
			maxUS = int64(lat)
		}
		if tr.SLOUS <= 0 || lat <= tr.SLOUS {
			p.SLOHits++
		}
	}
	dist.ObserveN(int64(svc), noWait)
	if p.Requests > 0 {
		p.SLOHitPct = round3(100 * float64(p.SLOHits) / float64(p.Requests))
	}
	p.Latency = summarize(dist, maxUS)
	return p
}

// WriteJSON writes the report as indented JSON, deterministically.
func (r *TenantsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the per-tenant summary with the SLO hit-rate and
// interference columns.
func (r *TenantsReport) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "tenant\tmodel\tprio\toffered_rps\trequests\tslo_us\tslo_hit_pct\tp50_us\tp99_us\tservice_us\tisolated_us\tinterference_pct\n")
	for _, t := range r.Tenants {
		slo := "-"
		if t.SLOUS > 0 {
			slo = fmt.Sprintf("%.0f", t.SLOUS)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.0f\t%d\t%s\t%.1f\t%d\t%d\t%.1f\t%.1f\t%.1f\n",
			t.Name, t.Model, t.Priority, t.OfferedRPS, t.Requests, slo, t.SLOHitPct,
			t.Latency.P50US, t.Latency.P99US, t.ServiceUS, t.IsolatedUS, t.InterferencePct)
	}
	return tw.Flush()
}
