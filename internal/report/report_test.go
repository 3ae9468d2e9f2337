package report

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sim"
)

func compiled(t *testing.T) *core.Result {
	t.Helper()
	g := models.TinyCNN()
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLayersTable(t *testing.T) {
	g := models.TinyCNN()
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Layers(&buf, g, res); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"conv1", "direction", "MMACs", "spatial", "h1"} {
		if !strings.Contains(s, want) {
			t.Errorf("layers table missing %q:\n%s", want, s)
		}
	}
	// One row per non-input layer.
	rows := strings.Count(s, "\n") - 1
	if rows != g.Len()-1 {
		t.Errorf("rows = %d, want %d", rows, g.Len()-1)
	}
}

func TestDOT(t *testing.T) {
	g := models.ConvChain(4, 48, 48, 8)
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DOT(&buf, g, res); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "digraph") || !strings.HasSuffix(strings.TrimSpace(s), "}") {
		t.Error("not a digraph")
	}
	// Edges for every graph edge.
	edges := strings.Count(s, "->")
	want := 0
	for _, l := range g.Layers() {
		want += len(l.Inputs)
	}
	if edges != want {
		t.Errorf("edges = %d, want %d", edges, want)
	}
	// The chain forms a stratum cluster.
	if !strings.Contains(s, "cluster_stratum") {
		t.Error("no stratum cluster in DOT output")
	}
	if !strings.Contains(s, "lightblue") {
		t.Error("no direction coloring")
	}
}

// utilization simulates res with a metrics hook on all of its cores and
// renders the utilization table.
func utilization(t *testing.T, res *core.Result, model string) (string, *metrics.Report) {
	t.Helper()
	col := &metrics.Collector{}
	out, err := sim.Run(res.Program, sim.Config{Hook: col})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Program.Arch
	cores := make([]int, a.NumCores())
	for i := range cores {
		cores[i] = i
	}
	rep := metrics.BuildReport(a, []sim.Placement{{Program: res.Program, Cores: cores}}, &out.Stats, col)
	rep.AttachCompile(res)
	rep.Model = model
	rep.Config = "+Stratum"
	var w bytes.Buffer
	if err := Utilization(&w, rep); err != nil {
		t.Fatal(err)
	}
	return w.String(), rep
}

func TestUtilizationTable(t *testing.T) {
	res := compiled(t)
	s, _ := utilization(t, res, "TinyCNN")
	for _, want := range []string{"TinyCNN", "+Stratum", "compute", "P0", "SPM P0", "bus:", "compile:"} {
		if !strings.Contains(s, want) {
			t.Errorf("utilization table missing %q:\n%s", want, s)
		}
	}
	// One row per core plus one SPM line per core.
	if n := strings.Count(s, "SPM P"); n != res.Program.Arch.NumCores() {
		t.Errorf("%d SPM lines for %d cores", n, res.Program.Arch.NumCores())
	}
}

// TestUtilizationSPMLines checks each core's "SPM P<c>: peak <KB> of <KB>"
// line against the engine-reported peak on MobileNetV2 +Stratum.
func TestUtilizationSPMLines(t *testing.T) {
	res, err := core.Compile(models.MobileNetV2(), arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	s, rep := utilization(t, res, "MobileNetV2")
	if len(rep.SPM) != res.Program.Arch.NumCores() {
		t.Fatalf("%d SPM reports for %d cores", len(rep.SPM), res.Program.Arch.NumCores())
	}
	for _, sp := range rep.SPM {
		want := fmt.Sprintf("SPM P%d: peak %d KB of %d KB", sp.Core, sp.PeakBytes/1024, sp.CapacityBytes/1024)
		if sp.PeakBytes <= 0 || !strings.Contains(s, want) {
			t.Errorf("utilization table missing %q (peak %d B):\n%s", want, sp.PeakBytes, s)
		}
	}
}
