package tenancy

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/arch"
)

// TenantReport is one tenant's serving statistics over the horizon.
type TenantReport struct {
	Name     string  `json:"name"`
	Model    string  `json:"model"`
	Priority int     `json:"priority"`
	SLOUS    float64 `json:"slo_us"`
	ArriveUS float64 `json:"arrive_us"`
	DepartUS float64 `json:"depart_us,omitempty"`
	// AdmittedUS is when the tenant first held cores (-1: never).
	AdmittedUS float64 `json:"admitted_us"`
	// Inferences counts completed inferences; an inference still in
	// flight at the horizon is not counted.
	Inferences int64 `json:"inferences"`
	SLOHits    int64 `json:"slo_hits"`
	// SLOHitPct is 100*SLOHits/Inferences (0 with no inferences).
	SLOHitPct float64 `json:"slo_hit_pct"`
	// MeanLatencyUS averages completed-inference latency, including
	// cycles carried across preemptions.
	MeanLatencyUS float64 `json:"mean_latency_us"`
	// IsolatedUS is the mean latency the tenant's completed inferences'
	// programs achieve alone on their subsets (fault-free baseline).
	IsolatedUS float64 `json:"isolated_us"`
	// InterferencePct is the mean co-run slowdown of completed
	// inferences over the isolated baseline:
	// (shared - isolated)/isolated * 100.
	//
	// These three are rounded to 3 decimals, hiding the float rounding a
	// start cycle adds to an inference's simulated duration.
	InterferencePct float64 `json:"interference_pct"`
	// Remaps counts re-targetings onto a different core subset after
	// admission; Preemptions counts stratum-boundary cuts.
	Remaps      int `json:"remaps"`
	Preemptions int `json:"preemptions"`
	// FinalCores is the subset held when the horizon closed (empty if
	// departed or queued).
	FinalCores []int `json:"final_cores,omitempty"`
}

// Report is a full tenancy run: per-tenant rows in spec order plus the
// run's shape. It contains no wall-clock fields — same inputs marshal
// byte-identically.
type Report struct {
	Arch      string  `json:"arch"`
	ClockMHz  int     `json:"clock_mhz"`
	Opt       string  `json:"opt"`
	HorizonUS float64 `json:"horizon_us"`
	Epochs    int     `json:"epochs"`
	// CoSims counts the co-run simulations executed. Isolated
	// baselines reuse each program's admission run and are not counted.
	CoSims int `json:"co_sims"`
	// DeadCores lists cores retired mid-horizon by detected hangs or
	// announced failures; Failures logs the typed errors survived, in
	// order. Both empty on a fault-free run.
	DeadCores []int          `json:"dead_cores,omitempty"`
	Failures  []string       `json:"failures,omitempty"`
	Tenants   []TenantReport `json:"tenants"`
}

func buildReport(a *arch.Arch, optName string, horizonUS float64, epochs, coSims int, states []*tenantState, deadCores []int, failures []string) *Report {
	r := &Report{
		Arch:      a.Name,
		ClockMHz:  a.ClockMHz,
		Opt:       optName,
		HorizonUS: horizonUS,
		Epochs:    epochs,
		CoSims:    coSims,
		DeadCores: deadCores,
		Failures:  failures,
	}
	clock := float64(a.ClockMHz)
	for _, ts := range states {
		tr := TenantReport{
			Name:        ts.spec.Name,
			Model:       ts.spec.Model,
			Priority:    ts.spec.Priority,
			SLOUS:       ts.spec.SLOUS,
			ArriveUS:    ts.spec.ArriveUS,
			DepartUS:    ts.spec.DepartUS,
			AdmittedUS:  ts.firstUS,
			Inferences:  ts.infs,
			SLOHits:     ts.hits,
			Remaps:      ts.remaps,
			Preemptions: ts.preempts,
		}
		if n := float64(ts.infs); n > 0 {
			tr.SLOHitPct = 100 * float64(ts.hits) / n
			tr.MeanLatencyUS = round3(ts.sumLatency / n / clock)
			tr.IsolatedUS = round3(ts.sumIsolated / n / clock)
			tr.InterferencePct = round3(ts.sumInterf / n)
		}
		if ts.active && ts.cores != nil {
			tr.FinalCores = ts.cores
		}
		r.Tenants = append(r.Tenants, tr)
	}
	return r
}

// WriteJSON marshals the report with stable field order and trailing
// newline; same report, same bytes.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Print renders the per-tenant table.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "multi-tenant serving on %s (%s, %.0f us horizon, %d epochs)\n",
		r.Arch, r.Opt, r.HorizonUS, r.Epochs)
	fmt.Fprintf(w, "%-10s %-16s %4s %9s %6s %8s %9s %9s %7s %6s %6s\n",
		"tenant", "model", "prio", "slo(us)", "infs", "hit%", "mean(us)", "isol(us)", "intf%", "remap", "cut")
	for _, t := range r.Tenants {
		slo := "-"
		if t.SLOUS > 0 {
			slo = fmt.Sprintf("%.0f", t.SLOUS)
		}
		fmt.Fprintf(w, "%-10s %-16s %4d %9s %6d %8.1f %9.1f %9.1f %7.1f %6d %6d\n",
			t.Name, t.Model, t.Priority, slo, t.Inferences, t.SLOHitPct,
			t.MeanLatencyUS, t.IsolatedUS, t.InterferencePct, t.Remaps, t.Preemptions)
	}
}

// round3 rounds to 3 decimals, and -0 to 0.
func round3(v float64) float64 {
	if r := math.Round(v*1000) / 1000; r != 0 {
		return r
	}
	return 0
}
