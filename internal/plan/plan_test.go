package plan

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func testGraph() *graph.Graph {
	g := graph.New("t", tensor.Int8)
	in := g.Input("input", tensor.NewShape(8, 8, 4))
	g.MustAdd("relu", ops.Activation{Func: ops.ReLU}, in)
	return g
}

// tinyProgram builds a hand-written two-core program:
// core0: load, compute, store, barrier; core1: barrier, load (dep
// barrier), compute.
func tinyProgram() *Program {
	a := arch.Homogeneous(2)
	g := testGraph()
	c0 := []Instr{
		{Op: LoadInput, Layer: 1, Tile: 0, Bytes: 64, BarrierID: -1},
		{Op: Compute, Layer: 1, Tile: 0, MACs: 100, Deps: []Ref{{0, 0}}, BarrierID: -1},
		{Op: Store, Layer: 1, Tile: 0, Bytes: 64, Deps: []Ref{{0, 1}}, BarrierID: -1},
		{Op: Barrier, Layer: 1, Tile: -1, Deps: []Ref{{0, 2}}, BarrierID: 0},
	}
	c1 := []Instr{
		{Op: Barrier, Layer: 1, Tile: -1, BarrierID: 0},
		{Op: LoadInput, Layer: 1, Tile: 0, Bytes: 32, Deps: []Ref{{1, 0}}, BarrierID: -1},
		{Op: Compute, Layer: 1, Tile: 0, MACs: 50, Deps: []Ref{{1, 1}}, BarrierID: -1},
	}
	return &Program{
		Arch:        a,
		Graph:       g,
		Cores:       [][]Instr{c0, c1},
		NumBarriers: 1,
		Directions:  make([]partition.Direction, g.Len()),
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := tinyProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAccounting(t *testing.T) {
	p := tinyProgram()
	if got := p.TotalBytes(0); got != 128 {
		t.Errorf("TotalBytes(0) = %d, want 128", got)
	}
	if got := p.TotalMACs(1); got != 50 {
		t.Errorf("TotalMACs(1) = %d, want 50", got)
	}
	if p.NumInstrs() != 7 {
		t.Errorf("NumInstrs = %d", p.NumInstrs())
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"dep out of range", func(p *Program) {
			p.Cores[0][1].Deps = []Ref{{0, 99}}
		}, "out of range"},
		{"dep bad core", func(p *Program) {
			p.Cores[0][1].Deps = []Ref{{5, 0}}
		}, "out of range"},
		{"barrier id out of range", func(p *Program) {
			p.Cores[0][3].BarrierID = 7
		}, "barrier id"},
		{"zero byte load", func(p *Program) {
			p.Cores[0][0].Bytes = 0
		}, "bytes"},
		{"zero mac compute", func(p *Program) {
			p.Cores[0][1].MACs = 0
		}, "MACs"},
		{"missing barrier on a core", func(p *Program) {
			p.Cores[1] = []Instr{
				{Op: LoadInput, Layer: 1, Tile: 0, Bytes: 32, BarrierID: -1},
				{Op: Compute, Layer: 1, Tile: 0, MACs: 50, Deps: []Ref{{1, 0}}, BarrierID: -1},
			}
		}, "barrier"},
		{"wrong core count", func(p *Program) {
			p.Cores = p.Cores[:1]
		}, "streams"},
	}
	for _, c := range cases {
		p := tinyProgram()
		c.mutate(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	p := tinyProgram()
	// compute depends on store which depends on compute.
	p.Cores[0][1].Deps = append(p.Cores[0][1].Deps, Ref{0, 2})
	err := p.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestEngineMapping(t *testing.T) {
	cases := []struct {
		op     OpCode
		engine Engine
	}{
		{LoadInput, EngineLoad},
		{LoadKernel, EngineLoad},
		{LoadHalo, EngineLoad},
		{Compute, EngineCompute},
		{Store, EngineStore},
		{StoreHalo, EngineStore},
		{Barrier, EngineSync},
	}
	for _, c := range cases {
		if c.op.Engine() != c.engine {
			t.Errorf("%v.Engine() = %v, want %v", c.op, c.op.Engine(), c.engine)
		}
		if c.op.String() == "" || c.engine.String() == "" {
			t.Error("empty mnemonic")
		}
	}
}

func TestBarrierDoubleRegistration(t *testing.T) {
	p := tinyProgram()
	// Same barrier twice on one core.
	p.Cores[0] = append(p.Cores[0], Instr{Op: Barrier, Layer: 1, Tile: -1, BarrierID: 0})
	if err := p.Validate(); err == nil {
		t.Error("double barrier accepted")
	}
}

// barrierDeadlock is a two-core program whose per-core dependency
// graphs are acyclic but whose barrier rendezvous closes a cycle:
// core 0 runs Barrier 0 and then a compute gated on it; core 1 runs a
// compute gated on core 0's compute, then Barrier 0 gated on that.
// Neither Barrier 0 can release, and both engines deadlock at t=0.
func barrierDeadlock() *Program {
	g := testGraph()
	return &Program{
		Arch:  arch.Homogeneous(2),
		Graph: g,
		Cores: [][]Instr{
			{
				{Op: Barrier, Layer: 1, Tile: -1, BarrierID: 0},
				{Op: Compute, Layer: 1, Tile: 0, MACs: 100, Deps: []Ref{{0, 0}}, BarrierID: -1},
			},
			{
				{Op: Compute, Layer: 1, Tile: 0, MACs: 100, Deps: []Ref{{0, 1}}, BarrierID: -1},
				{Op: Barrier, Layer: 1, Tile: -1, Deps: []Ref{{1, 0}}, BarrierID: 0},
			},
		},
		NumBarriers: 1,
		Directions:  make([]partition.Direction, g.Len()),
	}
}

func TestValidateRejectsBarrierDeadlock(t *testing.T) {
	err := barrierDeadlock().Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle among 4 of 4 instructions") {
		t.Errorf("barrier deadlock not detected: %v", err)
	}
	// The same dependencies without the rendezvous are fine: the
	// well-formed program's barrier gates core 1's work the same way.
	if err := tinyProgram().Validate(); err != nil {
		t.Errorf("well-formed barrier program rejected: %v", err)
	}
}

func TestPackDeps(t *testing.T) {
	p := tinyProgram()
	PackDeps(p.Cores)
	size := int(unsafe.Sizeof(Ref{}))
	for c, stream := range p.Cores {
		var prev []Ref
		for i, in := range stream {
			if len(in.Deps) == 0 {
				continue
			}
			if cap(in.Deps) != len(in.Deps) {
				t.Errorf("core %d instr %d: cap %d > len %d", c, i, cap(in.Deps), len(in.Deps))
			}
			if prev != nil && unsafe.Pointer(&in.Deps[0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*size) {
				t.Errorf("core %d instr %d: deps not contiguous with the previous instruction's", c, i)
			}
			prev = in.Deps
		}
	}
	// Appending to one instruction's deps must not overwrite its
	// neighbour's, which shares the backing array.
	want := p.Cores[0][2].Deps[0]
	p.Cores[0][1].Deps = append(p.Cores[0][1].Deps, Ref{0, 0})
	if got := p.Cores[0][2].Deps[0]; got != want {
		t.Errorf("append to instr 1 overwrote instr 2's dep: %+v, want %+v", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("packed program invalid: %v", err)
	}
}

func TestValidateRejectsUnusedBarriers(t *testing.T) {
	p := tinyProgram()
	p.NumBarriers = 3
	var ub *UnusedBarriersError
	if err := p.Validate(); !errors.As(err, &ub) || ub.Declared != 3 || ub.Used != 1 {
		t.Errorf("unused barrier IDs accepted: %v", err)
	}
}
