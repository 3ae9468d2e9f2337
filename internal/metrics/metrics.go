// Package metrics is the simulator's observability layer: it turns the
// event engine's hook samples (sim.Hook) and stats into a structured
// Report — per-core and per-layer utilization breakdowns, per-core SPM
// high-water marks, the bus demand-vs-granted contention series, and
// (when a compile result is attached) per-stratum halo-redundancy
// ratios and compile-pass timings.
//
// The paper's evaluation (Figures 10-13) explains where cycles go:
// halo redundancy, synchronization stalls, bus contention, SPM
// pressure. This package computes those explanations from a single
// observed run, and its cross-checks against the engine's own
// accounting (Collector.CrossCheck) are standing invariants that keep
// the two views consistent.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Collector is the report-building sim.Hook: a sim.Recorder whose
// Events (the run's trace) BuildReport attributes, plus the bus
// allocation series (it is a sim.BusHook). Both slices hold plain values, so a Collector can
// outlive the run that fed it. Zero value is ready to use; Reset
// reuses the backing arrays across runs.
type Collector struct {
	sim.Recorder
	Bus []sim.BusSample
}

// OnBus implements sim.BusHook.
func (c *Collector) OnBus(s sim.BusSample) { c.Bus = append(c.Bus, s) }

// Reset clears the collector for reuse, keeping capacity.
func (c *Collector) Reset() {
	c.Recorder.Reset()
	c.Bus = c.Bus[:0]
}

// Breakdown is a mutually exclusive attribution of one core's cycles.
// Overlapping engine activity is resolved by priority (compute > halo >
// load > store > stall), so the six fields sum to the run's total
// cycles: each instant is attributed to exactly one class.
type Breakdown struct {
	Compute float64 // MAC array running
	Halo    float64 // halo-exchange DMA (send or receive), nothing computing
	Load    float64 // input/kernel load DMA, nothing computing
	Store   float64 // output store DMA, nothing computing or loading
	Stall   float64 // waiting at a barrier with every engine quiet
	Idle    float64 // nothing in flight (pipeline drained or core finished)
}

// Busy returns the non-idle total.
func (b Breakdown) Busy() float64 {
	return b.Compute + b.Halo + b.Load + b.Store + b.Stall
}

// Fractions normalizes the breakdown by total. The fields of the
// result sum to 1 up to float rounding (the invariant tests hold this
// to 1e-9). A non-positive total returns the zero Breakdown.
func (b Breakdown) Fractions(total float64) Breakdown {
	if total <= 0 {
		return Breakdown{}
	}
	return Breakdown{
		Compute: b.Compute / total,
		Halo:    b.Halo / total,
		Load:    b.Load / total,
		Store:   b.Store / total,
		Stall:   b.Stall / total,
		Idle:    b.Idle / total,
	}
}

// EngineBusy is the raw per-engine occupancy of one core — overlapping
// engines counted independently, exactly the accumulation
// sim.CoreStats performs (ComputeBusy, LoadBusy incl. halo receives,
// StoreBusy incl. halo sends, SyncWait).
type EngineBusy struct {
	Compute float64
	Load    float64
	Store   float64
	Sync    float64
}

// CoreReport is one core's share of the run.
type CoreReport struct {
	Core        int
	TotalCycles float64
	// Exclusive is the priority-resolved attribution; its six fields sum
	// to TotalCycles.
	Exclusive Breakdown
	// Engines is the raw overlapping occupancy, bit-identical to the
	// engine's own sim.CoreStats accounting.
	Engines     EngineBusy
	BytesLoaded int64
	BytesStored int64
	MACs        int64
	Retries     int
	Finish      float64
}

// LayerReport aggregates one layer's activity across cores. The cycle
// fields are raw engine occupancy (layers overlap in the pipeline, so
// exclusive attribution is only defined per core, not per layer).
type LayerReport struct {
	Placement int
	Layer     int
	Name      string
	Compute   float64 // MAC-array cycles
	Load      float64 // input+kernel load cycles
	Store     float64 // output store cycles
	Halo      float64 // halo send+receive cycles
	Stall     float64 // barrier rendezvous cycles charged to this layer
	BytesIn   int64   // loaded (halo receives included)
	BytesOut  int64   // stored (halo sends included)
	MACs      int64
	Tiles     int // compute instructions executed
	Retries   int
}

// BusPoint is one step of the piecewise-constant bus allocation.
type BusPoint struct {
	At             float64
	Demand         float64
	Granted        float64
	Channels       int
	DirectGranted  float64
	DirectChannels int
}

// BusReport summarizes shared-bus behaviour over the run. The series
// is exact, not sampled: the engine emits a point at every
// water-filling rebuild and the allocation is constant in between.
type BusReport struct {
	// BusyCycles is time with at least one transfer on the shared bus.
	BusyCycles float64
	// ContendedCycles is time the bus ceiling actually bound someone
	// (granted < demand).
	ContendedCycles float64
	// AvgDemand and AvgGranted are time-averaged bytes/cycle over the
	// whole run (idle time included).
	AvgDemand  float64
	AvgGranted float64
	// DeficitByteCycles integrates demand-granted over time: the total
	// traffic delayed by contention, in byte-cycles.
	DeficitByteCycles float64
	PeakChannels      int
	PeakDemand        float64
	// CapacityBytesPerCycle is the bus ceiling, for normalizing.
	CapacityBytesPerCycle float64
	Series                []BusPoint
}

// SPMReport is one core's scratch-pad occupancy high-water mark.
type SPMReport struct {
	Placement     int
	Core          int // global core id
	PeakBytes     int64
	PeakAtCycle   float64
	CapacityBytes int64
	Buffers       int
	// Utilization is PeakBytes / CapacityBytes.
	Utilization float64
	// Fits reports PeakBytes <= CapacityBytes. The engine's admission
	// check fails any run whose live bytes exceed capacity, so Fits is
	// always true on a run that completed.
	Fits bool
}

// Report is the structured outcome of one observed run. It marshals
// directly to JSON (npusim -metrics-out, npubench -experiment metrics).
type Report struct {
	Model         string `json:",omitempty"`
	Config        string `json:",omitempty"`
	ClockMHz      int
	TotalCycles   float64
	LatencyMicros float64
	Barriers      int
	Cores         []CoreReport
	Layers        []LayerReport
	Bus           BusReport
	SPM           []SPMReport
	// Strata and Compile are attached by AttachCompile.
	Strata  []StratumReport `json:",omitempty"`
	Compile *CompileReport  `json:",omitempty"`
}

// instruction classes in exclusive-attribution priority order.
const (
	clsCompute = iota
	clsHalo
	clsLoad
	clsStore
	clsStall
	numClasses
)

func classOf(s *sim.Event) int {
	switch s.Op {
	case plan.Compute:
		return clsCompute
	case plan.LoadHalo, plan.StoreHalo:
		return clsHalo
	case plan.LoadInput, plan.LoadKernel:
		return clsLoad
	case plan.Store:
		return clsStore
	default:
		return clsStall
	}
}

// BuildReport assembles the structured report for one run from the
// architecture, the placements simulated, the engine's stats (partial
// stats from a CoreFailure work too), and the collector that observed
// the run.
func BuildReport(a *arch.Arch, placements []sim.Placement, stats *sim.Stats, col *Collector) *Report {
	r := &Report{
		ClockMHz:      a.ClockMHz,
		TotalCycles:   stats.TotalCycles,
		LatencyMicros: stats.LatencyMicros(a.ClockMHz),
		Barriers:      stats.Barriers,
	}
	r.Cores = coreReports(a, stats, col)
	r.Layers = layerReports(placements, col)
	r.Bus = busReport(a, stats.TotalCycles, col)
	r.SPM = spmReports(a, placements, stats)
	return r
}

// coreReports computes the exclusive attribution sweep and the raw
// engine sums for every core.
func coreReports(a *arch.Arch, stats *sim.Stats, col *Collector) []CoreReport {
	ncores := a.NumCores()
	total := stats.TotalCycles

	// Boundary events of every instruction interval, per core.
	type boundary struct {
		t     float64
		cls   int
		delta int
	}
	events := make([][]boundary, ncores)
	out := make([]CoreReport, ncores)
	for c := range out {
		out[c].Core = c
		out[c].TotalCycles = total
	}
	for i := range col.Events {
		s := &col.Events[i]
		c := s.Core
		st := &out[c]
		// Raw sums, accumulated in sample order — the engine retires
		// instructions in this same order, so these reproduce
		// sim.CoreStats bit-for-bit.
		dur := s.End - s.Start
		switch eng := s.Op.Engine(); eng {
		case plan.EngineCompute:
			st.Engines.Compute += dur
			st.MACs += s.MACs
		case plan.EngineLoad:
			st.Engines.Load += dur
			st.BytesLoaded += s.Bytes
		case plan.EngineStore:
			st.Engines.Store += dur
			st.BytesStored += s.Bytes
		default:
			st.Engines.Sync += dur
		}
		st.Retries += s.Retries
		if s.End > st.Finish {
			st.Finish = s.End
		}
		if s.End > s.Start {
			cls := classOf(s)
			events[c] = append(events[c], boundary{s.Start, cls, +1}, boundary{s.End, cls, -1})
		}
	}

	// Exclusive sweep per core: between consecutive boundary times the
	// active set is constant; the segment goes to the highest-priority
	// active class.
	for c := range out {
		evs := events[c]
		sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
		var active [numClasses]int
		var cls [numClasses]float64
		for i := 0; i < len(evs); {
			t := evs[i].t
			for i < len(evs) && evs[i].t == t {
				active[evs[i].cls] += evs[i].delta
				i++
			}
			if i >= len(evs) {
				break
			}
			width := evs[i].t - t
			for k := 0; k < numClasses; k++ {
				if active[k] > 0 {
					cls[k] += width
					break
				}
			}
		}
		b := Breakdown{Compute: cls[clsCompute], Halo: cls[clsHalo], Load: cls[clsLoad], Store: cls[clsStore], Stall: cls[clsStall]}
		// The sweep's busy sum can overshoot total by an ulp even though
		// no interval extends past the run; clamp the remainder so idle
		// never goes (meaninglessly) negative.
		if b.Idle = total - b.Busy(); b.Idle < 0 {
			b.Idle = 0
		}
		out[c].Exclusive = b
	}
	return out
}

// layerReports aggregates raw engine occupancy per (placement, layer).
func layerReports(placements []sim.Placement, col *Collector) []LayerReport {
	type key struct {
		placement int
		layer     int
	}
	agg := map[key]*LayerReport{}
	for i := range col.Events {
		s := &col.Events[i]
		k := key{s.Placement, int(s.Layer)}
		lr := agg[k]
		if lr == nil {
			lr = &LayerReport{Placement: s.Placement, Layer: int(s.Layer)}
			if k.placement < len(placements) {
				if g := placements[k.placement].Program.Graph; g != nil {
					lr.Name = g.Layer(s.Layer).Name
				}
			}
			agg[k] = lr
		}
		dur := s.End - s.Start
		switch s.Op {
		case plan.Compute:
			lr.Compute += dur
			lr.MACs += s.MACs
			lr.Tiles++
		case plan.LoadInput, plan.LoadKernel:
			lr.Load += dur
			lr.BytesIn += s.Bytes
		case plan.LoadHalo:
			lr.Halo += dur
			lr.BytesIn += s.Bytes
		case plan.Store:
			lr.Store += dur
			lr.BytesOut += s.Bytes
		case plan.StoreHalo:
			lr.Halo += dur
			lr.BytesOut += s.Bytes
		default:
			lr.Stall += dur
		}
		lr.Retries += s.Retries
	}
	out := make([]LayerReport, 0, len(agg))
	for _, lr := range agg {
		out = append(out, *lr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Placement != out[j].Placement {
			return out[i].Placement < out[j].Placement
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// busReport integrates the piecewise-constant allocation series. The
// last sample extends to totalCycles (a clean run closes the series
// with an empty sample at the end; a failed run's series ends at the
// failure, when the last allocation was still in flight).
func busReport(a *arch.Arch, totalCycles float64, col *Collector) BusReport {
	br := BusReport{CapacityBytesPerCycle: a.BusBytesPerCycle}
	br.Series = make([]BusPoint, len(col.Bus))
	for i, s := range col.Bus {
		br.Series[i] = BusPoint{At: s.At, Demand: s.Demand, Granted: s.Granted,
			Channels: s.Channels, DirectGranted: s.DirectGranted, DirectChannels: s.DirectChannels}
		if s.Channels > br.PeakChannels {
			br.PeakChannels = s.Channels
		}
		if s.Demand > br.PeakDemand {
			br.PeakDemand = s.Demand
		}
		end := totalCycles
		if i+1 < len(col.Bus) {
			end = col.Bus[i+1].At
		}
		width := end - s.At
		if width <= 0 {
			continue
		}
		if s.Channels > 0 {
			br.BusyCycles += width
		}
		if s.Demand-s.Granted > 1e-9 {
			br.ContendedCycles += width
			br.DeficitByteCycles += (s.Demand - s.Granted) * width
		}
		br.AvgDemand += s.Demand * width
		br.AvgGranted += s.Granted * width
	}
	if totalCycles > 0 {
		br.AvgDemand /= totalCycles
		br.AvgGranted /= totalCycles
	}
	return br
}

// spmReports maps each placed core's scratch-pad high-water mark, as
// the engine tracked it, onto a report row.
func spmReports(a *arch.Arch, placements []sim.Placement, stats *sim.Stats) []SPMReport {
	var out []SPMReport
	for pi, pl := range placements {
		for _, c := range pl.Cores {
			st, capacity := &stats.PerCore[c], a.Cores[c].SPMBytes
			rep := SPMReport{
				Placement: pi, Core: c,
				PeakBytes: st.SPMPeakBytes, PeakAtCycle: st.SPMPeakAtCycle,
				CapacityBytes: capacity, Buffers: st.SPMBuffers,
				Fits: st.SPMPeakBytes <= capacity,
			}
			if capacity > 0 {
				rep.Utilization = float64(st.SPMPeakBytes) / float64(capacity)
			}
			out = append(out, rep)
		}
	}
	return out
}

// CrossCheck verifies the report against the engine's own accounting
// and the architecture — the standing invariants future perf work must
// keep green:
//
//   - raw engine sums reproduce sim.CoreStats exactly (same values
//     accumulated in the same order);
//   - each core's exclusive fractions sum to 1 within 1e-9;
//   - the exclusive idle matches the engine's busy-interval idle
//     within tol cycles;
//   - SPM reports tell the truth about capacity: Fits must equal
//     PeakBytes <= the architecture's SPM size.
//
// It returns the first violation found, nil when everything holds.
func (r *Report) CrossCheck(a *arch.Arch, stats *sim.Stats, tol float64) error {
	if len(r.Cores) != len(stats.PerCore) {
		return fmt.Errorf("metrics: %d core reports for %d cores", len(r.Cores), len(stats.PerCore))
	}
	for c, cr := range r.Cores {
		st := stats.PerCore[c]
		if cr.Engines.Compute != st.ComputeBusy || cr.Engines.Load != st.LoadBusy ||
			cr.Engines.Store != st.StoreBusy || cr.Engines.Sync != st.SyncWait {
			return fmt.Errorf("metrics: core %d engine sums %+v != engine stats {%v %v %v %v}",
				c, cr.Engines, st.ComputeBusy, st.LoadBusy, st.StoreBusy, st.SyncWait)
		}
		if cr.BytesLoaded != st.BytesLoaded || cr.BytesStored != st.BytesStored ||
			cr.MACs != st.MACs || cr.Retries != st.Retries {
			return fmt.Errorf("metrics: core %d traffic/compute totals disagree with engine stats", c)
		}
		if cr.TotalCycles > 0 {
			f := cr.Exclusive.Fractions(cr.TotalCycles)
			sum := f.Compute + f.Halo + f.Load + f.Store + f.Stall + f.Idle
			if d := sum - 1; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("metrics: core %d fractions sum to %.12f", c, sum)
			}
		}
		if d := cr.Exclusive.Idle - st.Idle; d > tol || d < -tol {
			return fmt.Errorf("metrics: core %d exclusive idle %.6f vs engine idle %.6f (tol %g)",
				c, cr.Exclusive.Idle, st.Idle, tol)
		}
	}
	for _, sp := range r.SPM {
		if sp.Core < 0 || sp.Core >= a.NumCores() {
			return fmt.Errorf("metrics: SPM report for core %d of %d", sp.Core, a.NumCores())
		}
		spmCap := a.Cores[sp.Core].SPMBytes
		if sp.CapacityBytes != spmCap {
			return fmt.Errorf("metrics: core %d SPM capacity %d reported, arch says %d", sp.Core, sp.CapacityBytes, spmCap)
		}
		if sp.Fits != (sp.PeakBytes <= spmCap) {
			return fmt.Errorf("metrics: core %d SPM Fits=%v but peak %d vs capacity %d", sp.Core, sp.Fits, sp.PeakBytes, spmCap)
		}
	}
	return nil
}
