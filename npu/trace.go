package npu

import (
	"io"

	"repro/internal/trace"
)

// WriteGantt renders a report's trace as a fixed-width text timeline
// (one row per core and engine), columns wide.
func (r *Report) WriteGantt(w io.Writer, columns int) error {
	return trace.Gantt(w, r.Trace, r.Arch, columns)
}

// WriteChromeTrace serializes the report's trace in Chrome trace-event
// JSON, viewable in chrome://tracing or Perfetto.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChrome(w, r.Trace, r.Arch)
}
