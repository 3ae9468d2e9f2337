package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/sim"
)

func traceOf(t *testing.T) ([]sim.Event, *arch.Arch) {
	t.Helper()
	a := arch.Exynos2100Like()
	g := models.TinyCNN()
	res, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	rec := &sim.Recorder{}
	if _, err := res.Simulate(sim.Config{Hook: rec}); err != nil {
		t.Fatal(err)
	}
	return rec.Events, a
}

func TestGantt(t *testing.T) {
	events, a := traceOf(t)
	var buf bytes.Buffer
	if err := Gantt(&buf, events, a, 80); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "P0") || !strings.Contains(s, "compute") {
		t.Errorf("gantt missing lanes:\n%s", s)
	}
	if !strings.Contains(s, "#") {
		t.Error("gantt shows no compute activity")
	}
	if !strings.Contains(s, "legend") {
		t.Error("gantt missing legend")
	}
	// Every row must be the requested width.
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '|'); i >= 0 {
			row := line[i+1 : len(line)-1]
			if len(row) != 80 {
				t.Errorf("row width %d, want 80", len(row))
			}
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, nil, arch.SingleCore(), 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty trace not reported")
	}
}

func TestChromeExport(t *testing.T) {
	events, a := traceOf(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, a); err != nil {
		t.Fatal(err)
	}
	var doc map[string][]map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	evs := doc["traceEvents"]
	if len(evs) != len(events) {
		t.Errorf("exported %d events, want %d", len(evs), len(events))
	}
	for _, ev := range evs[:3] {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Errorf("bad event %v", ev)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

func TestGanttBucketEdges(t *testing.T) {
	a := arch.SingleCore()
	const columns = 10
	// end = 100 cycles, so each bucket spans 10 cycles.
	events := []sim.Event{
		{Core: 0, Op: plan.Compute, Start: 0, End: 50},    // buckets 0..5
		{Core: 0, Op: plan.LoadInput, Start: 35, End: 35}, // zero-duration, bucket 3
		{Core: 0, Op: plan.Store, Start: 100, End: 100},   // instantaneous at the end
	}
	var buf bytes.Buffer
	if err := Gantt(&buf, events, a, columns); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.IndexByte(line, '|')
		if i < 0 {
			continue
		}
		f := strings.Fields(line)
		rows[f[1]] = line[i+1 : len(line)-1]
	}
	for lane, row := range rows {
		if len(row) != columns {
			t.Errorf("%s row is %d columns, want %d: %q", lane, len(row), columns, row)
		}
	}
	if got := strings.Count(rows["compute"], "#"); got != 6 {
		t.Errorf("compute spans %d cells, want 6: %q", got, rows["compute"])
	}
	if rows["load"] != "...<......" {
		t.Errorf("zero-duration load not a single cell: %q", rows["load"])
	}
	// An instantaneous event at exactly the timeline end lands in the
	// final column instead of being dropped (its raw bucket index is one
	// past the row).
	if rows["store"] != ".........>" {
		t.Errorf("event at timeline end not clamped into final column: %q", rows["store"])
	}
}

func TestChromeNameFallback(t *testing.T) {
	a := arch.SingleCore()
	events := []sim.Event{
		{Core: 0, Op: plan.Compute, Start: 0, End: 10},
		{Core: 0, Op: plan.Barrier, Start: 10, End: 12},
		{Core: 0, Op: plan.LoadHalo, Start: 12, End: 15},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, a); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range doc.TraceEvents {
		names = append(names, ev.Name)
	}
	want := []string{"comp", "sync", "halo-recv"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("fallback names = %v, want %v", names, want)
	}
}

// TestChromeGolden pins the exact Chrome trace JSON for TinyCNN under
// the halo configuration: event order (including timestamp ties), the
// microsecond conversion, and the note-derived names that keep halo
// exchanges and barriers distinguishable from plain loads and stores.
// Regenerate with `go generate ./internal/sim` (or `go test
// ./internal/trace -run TestChromeGolden -update`) after an intentional
// simulator or exporter change.
func TestChromeGolden(t *testing.T) {
	events, a := traceOf(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, a); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/chrome_tinycnn.json"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace diverged from %s (run with -update if intentional)", golden)
	}
	s := buf.String()
	for _, name := range []string{`"halo-send`, `"halo-recv`, `"sync`, `"comp`} {
		if !strings.Contains(s, name) {
			t.Errorf("trace missing %s events", name)
		}
	}
}
