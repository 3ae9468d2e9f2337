package serialize

import (
	"bytes"
	"errors"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/randgraph"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestGraphRoundTrip(t *testing.T) {
	// Random graphs cover the whole operator set over enough seeds.
	for seed := int64(0); seed < 10; seed++ {
		g := randgraph.New(seed, randgraph.Params{})
		var buf bytes.Buffer
		if err := SaveGraph(&buf, g); err != nil {
			t.Fatalf("seed %d: save: %v", seed, err)
		}
		g2, err := LoadGraph(&buf)
		if err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		if g2.Len() != g.Len() || g2.Name != g.Name {
			t.Fatalf("seed %d: structure mismatch", seed)
		}
		for i := 0; i < g.Len(); i++ {
			a, b := g.Layers()[i], g2.Layers()[i]
			if a.Name != b.Name || a.OutShape != b.OutShape || a.DType != b.DType ||
				a.Op.String() != b.Op.String() {
				t.Fatalf("seed %d layer %d: %v != %v", seed, i, a, b)
			}
		}
		// The round-tripped graph computes identical values.
		ref1, err := exec.RunReference(g)
		if err != nil {
			t.Fatal(err)
		}
		ref2, err := exec.RunReference(g2)
		if err != nil {
			t.Fatal(err)
		}
		for id, tensor1 := range ref1 {
			if !tensor1.Equal(ref2[id]) {
				t.Fatalf("seed %d: layer %d values differ after round trip", seed, id)
			}
		}
	}
}

func TestGraphRoundTripBenchmarkModels(t *testing.T) {
	for _, m := range models.All() {
		g := m.Build()
		var buf bytes.Buffer
		if err := SaveGraph(&buf, g); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		g2, err := LoadGraph(&buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if g2.TotalMACs() != g.TotalMACs() || g2.TotalKernelBytes() != g.TotalKernelBytes() {
			t.Errorf("%s: cost totals changed after round trip", m.Name)
		}
	}
}

func TestProgramRoundTripSimulatesIdentically(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveProgram(&buf, res.Program); err != nil {
		t.Fatal(err)
	}
	p2, err := LoadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Loading packs each core's deps into one backing array, each
	// instruction's slice capped at its own length.
	for c, stream := range p2.Cores {
		var prev []plan.Ref
		for i, in := range stream {
			if len(in.Deps) == 0 {
				continue
			}
			if cap(in.Deps) != len(in.Deps) ||
				prev != nil && unsafe.Pointer(&in.Deps[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*int(unsafe.Sizeof(plan.Ref{}))) {
				t.Fatalf("core %d instr %d: deps not packed after load", c, i)
			}
			prev = in.Deps
		}
	}
	rec1, rec2 := &sim.Recorder{}, &sim.Recorder{}
	out1, err := sim.Run(res.Program, sim.Config{Hook: rec1})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := sim.Run(p2, sim.Config{Hook: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out1, out2) || !reflect.DeepEqual(rec1.Events, rec2.Events) {
		t.Errorf("simulation changed after round trip: %.0f vs %.0f cycles",
			out1.Stats.TotalCycles, out2.Stats.TotalCycles)
	}
}

// TestLoadRejectsBarrierDeadlock: core 0 runs Barrier 0 and then a
// compute gated on it; core 1 runs a compute gated on core 0's compute
// and then Barrier 0 gated on that. Both engines deadlock on it, so
// loading must reject it rather than leave the failure to simulation.
func TestLoadRejectsBarrierDeadlock(t *testing.T) {
	g := graph.New("deadlock", tensor.Int8)
	in := g.Input("input", tensor.NewShape(8, 8, 4))
	g.MustAdd("relu", ops.Activation{Func: ops.ReLU}, in)
	p := &plan.Program{
		Arch:  arch.Homogeneous(2),
		Graph: g,
		Cores: [][]plan.Instr{
			{
				{Op: plan.Barrier, Layer: 1, Tile: -1, BarrierID: 0},
				{Op: plan.Compute, Layer: 1, MACs: 100, Deps: []plan.Ref{{Core: 0, Index: 0}}, BarrierID: -1},
			},
			{
				{Op: plan.Compute, Layer: 1, MACs: 100, Deps: []plan.Ref{{Core: 0, Index: 1}}, BarrierID: -1},
				{Op: plan.Barrier, Layer: 1, Tile: -1, Deps: []plan.Ref{{Core: 1, Index: 0}}, BarrierID: 0},
			},
		},
		NumBarriers: 1,
	}
	for name, run := range map[string]func(*plan.Program, sim.Config) (*sim.Result, error){
		"event": sim.Run, "reference": sim.RunReference,
	} {
		if _, err := run(p, sim.Config{}); err == nil || !strings.Contains(err.Error(), "deadlock at t=0") {
			t.Errorf("%s engine: want a deadlock at t=0, got %v", name, err)
		}
	}
	var buf bytes.Buffer
	if err := SaveProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadProgram(&buf); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("deadlocking program loaded: %v", err)
	}
}

// A program artifact edited to declare barrier IDs it never uses is
// rejected with a typed error: both engines size barrier state by the
// declared count, so TinyCNN declaring 2,000,000 barriers took ~50x
// longer to simulate than the 6 ms the program needs.
func TestLoadRejectsUnusedBarriers(t *testing.T) {
	res, err := core.Compile(models.TinyCNN(), arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	used := res.Program.NumBarriers
	if used == 0 {
		t.Fatal("TinyCNN +Stratum has no barriers to inflate")
	}
	var buf bytes.Buffer
	if err := SaveProgram(&buf, res.Program); err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(`"num_barriers":\s*\d+`)
	if n := len(field.FindAll(buf.Bytes(), -1)); n != 1 {
		t.Fatalf("artifact has %d num_barriers fields, want 1", n)
	}
	edited := field.ReplaceAll(buf.Bytes(), []byte(`"num_barriers":2000000`))
	_, err = LoadProgram(bytes.NewReader(edited))
	var ub *plan.UnusedBarriersError
	if !errors.As(err, &ub) || ub.Declared != 2000000 || ub.Used != used {
		t.Errorf("inflated barrier count loaded: %v, want UnusedBarriersError{2000000, %d}", err, used)
	}
	if _, err := LoadProgram(&buf); err != nil {
		t.Errorf("unedited artifact rejected: %v", err)
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := LoadGraph(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadGraph(strings.NewReader(`{"name":"x","layers":[{"name":"a","op":{"kind":"Nope","attr":{}}}]}`)); err == nil {
		t.Error("unknown op kind accepted")
	}
	if _, err := LoadProgram(strings.NewReader(`{}`)); err == nil {
		t.Error("empty program accepted")
	}
}
