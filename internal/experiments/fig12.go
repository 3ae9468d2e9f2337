package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fig12Variant is one pipelining profile of Figure 12.
type Fig12Variant struct {
	Name string
	// Opt is the compiler configuration producing the profile.
	Opt core.Options
	// Trace holds the events of the first two convolution layers.
	Trace []sim.Event
	// ExposedIdleUS is the worst per-core compute-engine gap between
	// the first and second convolution layer — the idle the paper's
	// Figure 12(a) arrow marks.
	ExposedIdleUS float64
	// LatencyUS is the stem latency under the variant.
	LatencyUS float64
}

// Fig12 reproduces the pipelining profiles of Figure 12 on the first
// two convolution layers of InceptionV3:
//
//	(a) no halo-exchange: the layer boundary is a full store-sync-load
//	    round trip, exposing idle while cores wait for boundary data;
//	(b) halo-exchange with feature-map forwarding but without the
//	    halo-first policy — the halo is produced last, so the exchange
//	    is still exposed;
//	(c) halo-exchange with the halo-first policy — the halo transfer
//	    overlaps the remaining tiles' computation, and nothing but halo
//	    data is loaded from global memory.
func Fig12() ([]Fig12Variant, error) {
	g := models.InceptionV3Stem()
	a := arch.Exynos2100Like()

	noFirst := core.Halo()
	noFirst.HaloFirst = false
	variants := []Fig12Variant{
		{Name: "(a) store-sync-load (no halo-exchange)", Opt: core.Base()},
		{Name: "(b) halo-exchange, no halo-first", Opt: noFirst},
		{Name: "(c) halo-exchange + halo-first", Opt: core.Halo()},
	}

	// Identify the first two convolution layers.
	conv1, _ := g.LayerByName("stem_conv1")
	conv2, _ := g.LayerByName("stem_conv2")
	relu1, _ := g.LayerByName("stem_conv1_relu")
	keep := map[graph.LayerID]bool{conv1.ID: true, conv2.ID: true, relu1.ID: true}

	err := parallel.ForEach(len(variants), func(i int) error {
		res, err := core.CompileCached(g, a, variants[i].Opt)
		if err != nil {
			return fmt.Errorf("fig12 %s: %w", variants[i].Name, err)
		}
		rec := &sim.Recorder{}
		out, err := res.Simulate(sim.Config{Hook: rec})
		if err != nil {
			return fmt.Errorf("fig12 %s: %w", variants[i].Name, err)
		}
		variants[i].LatencyUS = out.Stats.LatencyMicros(a.ClockMHz)
		for _, ev := range rec.Events {
			if keep[ev.Layer] {
				variants[i].Trace = append(variants[i].Trace, ev)
			}
		}
		variants[i].ExposedIdleUS = exposedIdle(rec.Events, res.Program, conv2.ID, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return variants, nil
}

// exposedIdle returns the worst per-core gap between the end of the
// previous compute and the first compute of layer target.
func exposedIdle(events []sim.Event, p *plan.Program, target graph.LayerID, a *arch.Arch) float64 {
	worst := 0.0
	for c := range a.Cores {
		targetStart := -1.0
		for _, ev := range events {
			if ev.Core == c && ev.Op == plan.Compute && ev.Layer == target {
				if targetStart < 0 || ev.Start < targetStart {
					targetStart = ev.Start
				}
			}
		}
		if targetStart < 0 {
			continue
		}
		prevEnd := 0.0
		for _, ev := range events {
			if ev.Core == c && ev.Op == plan.Compute && ev.Layer != target &&
				ev.End <= targetStart && ev.End > prevEnd {
				prevEnd = ev.End
			}
		}
		if gap := targetStart - prevEnd; gap > worst {
			worst = gap
		}
	}
	return worst / float64(a.ClockMHz)
}

// PrintFig12 renders the three Gantt profiles and the idle comparison.
func PrintFig12(w io.Writer, variants []Fig12Variant, a *arch.Arch) error {
	fmt.Fprintln(w, "Figure 12: pipelining profile of the first two InceptionV3 convolutions")
	for _, v := range variants {
		fmt.Fprintf(w, "\n%s  (stem latency %.1f us, exposed idle before conv2: %.2f us)\n",
			v.Name, v.LatencyUS, v.ExposedIdleUS)
		if err := trace.Gantt(w, normalize(v.Trace), a, 100); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\npaper: (a) shows idle waiting for halo transfer; (b) proceeds immediately;")
	fmt.Fprintln(w, "(c) additionally loads nothing from global memory except halo data")
	return nil
}

// normalize shifts events so the excerpt starts at t=0.
func normalize(events []sim.Event) []sim.Event {
	if len(events) == 0 {
		return events
	}
	min := events[0].Start
	for _, ev := range events {
		if ev.Start < min {
			min = ev.Start
		}
	}
	out := make([]sim.Event, len(events))
	for i, ev := range events {
		ev.Start -= min
		ev.End -= min
		out[i] = ev
	}
	return out
}

// Fig12Summary returns a compact one-line-per-variant comparison.
func Fig12Summary(variants []Fig12Variant) string {
	var b strings.Builder
	for _, v := range variants {
		fmt.Fprintf(&b, "%-36s exposed idle %.2f us, stem %.1f us\n", v.Name, v.ExposedIdleUS, v.LatencyUS)
	}
	return b.String()
}
