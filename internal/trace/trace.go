// Package trace renders simulator event traces: a text Gantt chart in
// the style of the paper's Figure 12 (per-core load/compute/store
// lanes over time) and Chrome trace-event JSON for chrome://tracing or
// Perfetto.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/arch"
	"repro/internal/plan"
	"repro/internal/sim"
)

// laneOf maps an opcode to a display lane within its core.
func laneOf(op plan.OpCode) string {
	switch op.Engine() {
	case plan.EngineLoad:
		return "load"
	case plan.EngineCompute:
		return "compute"
	case plan.EngineStore:
		return "store"
	default:
		return "sync"
	}
}

// Gantt writes a fixed-width text timeline: one row per (core, lane),
// columns are time buckets. Cells show the dominant activity in the
// bucket: '#' compute, '<' load, '>' store, 'H' halo transfer, 'S'
// barrier, '.' idle.
func Gantt(w io.Writer, events []sim.Event, a *arch.Arch, columns int) error {
	if columns <= 0 {
		columns = 100
	}
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	end := 0.0
	for _, ev := range events {
		if ev.End > end {
			end = ev.End
		}
	}
	if end == 0 {
		end = 1
	}
	bucket := end / float64(columns)

	lanes := []string{"load", "compute", "store", "sync"}
	type key struct {
		core int
		lane string
	}
	rows := map[key][]byte{}
	for c := range a.Cores {
		for _, l := range lanes {
			row := make([]byte, columns)
			for i := range row {
				row[i] = '.'
			}
			rows[key{c, l}] = row
		}
	}
	glyph := func(op plan.OpCode) byte {
		switch op {
		case plan.Compute:
			return '#'
		case plan.LoadInput:
			return '<'
		case plan.LoadKernel:
			return 'k'
		case plan.Store:
			return '>'
		case plan.LoadHalo, plan.StoreHalo:
			return 'H'
		case plan.Barrier:
			return 'S'
		default:
			return '?'
		}
	}
	for _, ev := range events {
		row := rows[key{ev.Core, laneOf(ev.Op)}]
		if row == nil {
			continue
		}
		// Clamp both bucket indices: an event starting exactly at the
		// timeline end (or an instantaneous event there) maps to bucket
		// `columns`, one past the row. Clamping lo — not just hi — keeps
		// such events visible in the final column, and forcing hi >= lo
		// renders zero-duration events as a single cell.
		lo := int(ev.Start / bucket)
		hi := int(ev.End / bucket)
		if lo < 0 {
			lo = 0
		}
		if lo >= columns {
			lo = columns - 1
		}
		if hi >= columns {
			hi = columns - 1
		}
		if hi < lo {
			hi = lo
		}
		for i := lo; i <= hi; i++ {
			g := glyph(ev.Op)
			// Halo and barrier glyphs win over generic traffic so the
			// halo-first effect is visible.
			if row[i] == '.' || g == 'H' || g == 'S' {
				row[i] = g
			}
		}
	}

	us := end / float64(a.ClockMHz)
	if _, err := fmt.Fprintf(w, "timeline: %.1f us total, %.2f us per column\n", us, us/float64(columns)); err != nil {
		return err
	}
	for c := range a.Cores {
		for _, l := range lanes {
			if l == "sync" && onlyDots(rows[key{c, l}]) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%-3s %-7s |%s|\n", a.Cores[c].Name, l, rows[key{c, l}]); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "legend: # compute, < load, k kernel load, > store, H halo exchange, S sync, . idle")
	return err
}

func onlyDots(row []byte) bool {
	for _, b := range row {
		if b != '.' {
			return false
		}
	}
	return true
}

// chromeEvent is the Chrome trace-event format ("X" complete events).
type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  string  `json:"tid"`
}

// WriteChrome serializes events as a Chrome trace (microseconds),
// grouping by core (pid) and engine lane (tid). Events without a note
// fall back to the opcode mnemonic, so halo transfers and barriers stay
// distinguishable from plain loads/stores in the viewer. The output is
// deterministic for a given trace: ties on timestamp break by core,
// lane, duration, then name.
func WriteChrome(w io.Writer, events []sim.Event, a *arch.Arch) error {
	out := make([]chromeEvent, 0, len(events))
	toUS := func(cycles float64) float64 { return cycles / float64(a.ClockMHz) }
	for _, ev := range events {
		name := ev.Note
		if name == "" {
			name = ev.Op.String()
		}
		out = append(out, chromeEvent{
			Name: name,
			Ph:   "X",
			Ts:   toUS(ev.Start),
			Dur:  toUS(ev.End - ev.Start),
			PID:  ev.Core,
			TID:  laneOf(ev.Op),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Dur != b.Dur {
			return a.Dur < b.Dur
		}
		return a.Name < b.Name
	})
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}
