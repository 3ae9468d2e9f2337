package graph

import (
	"strings"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// chainGraph builds input -> conv -> relu -> pool.
func chainGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("chain", tensor.Int8)
	in := g.Input("input", tensor.NewShape(32, 32, 3))
	c := g.MustAdd("conv", ops.NewConv2D(3, 3, 1, 1, 16,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), in)
	r := g.MustAdd("relu", ops.Activation{Func: ops.ReLU}, c)
	g.MustAdd("pool", ops.MaxPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}, r)
	return g
}

func TestBuildChain(t *testing.T) {
	g := chainGraph(t)
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	pool, ok := g.LayerByName("pool")
	if !ok {
		t.Fatal("pool not found")
	}
	if pool.OutShape != tensor.NewShape(16, 16, 16) {
		t.Errorf("pool out = %v", pool.OutShape)
	}
	if !g.Layer(0).IsInput() || g.Layer(1).IsInput() {
		t.Error("IsInput classification wrong")
	}
}

func TestAddErrors(t *testing.T) {
	g := New("g", tensor.Int8)
	in := g.Input("input", tensor.NewShape(8, 8, 4))
	if _, err := g.Add("input", ops.Activation{}, in); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := g.Add("bad", ops.Activation{}, LayerID(42)); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := g.Add("badshape", ops.NewConv2D(9, 9, 1, 1, 4, ops.Padding{}), in); err == nil {
		t.Error("shape inference error not propagated")
	}
}

func TestMustAddPanics(t *testing.T) {
	g := New("g", tensor.Int8)
	g.Input("input", tensor.NewShape(8, 8, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.MustAdd("input", ops.Activation{})
}

func TestUsersAndOutputs(t *testing.T) {
	g := New("diamond", tensor.Int8)
	in := g.Input("input", tensor.NewShape(16, 16, 8))
	a := g.MustAdd("a", ops.Activation{Func: ops.ReLU}, in)
	b := g.MustAdd("b", ops.NewConv2D(1, 1, 1, 1, 8, ops.Padding{}), a)
	c := g.MustAdd("c", ops.NewConv2D(3, 3, 1, 1, 8,
		ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), a)
	d := g.MustAdd("d", ops.Add{Arity: 2}, b, c)

	users := g.Users(a)
	if len(users) != 2 || users[0] != b || users[1] != c {
		t.Errorf("Users(a) = %v", users)
	}
	if users := g.Users(d); users != nil {
		t.Errorf("Users(d) = %#v, want nil for a layer nothing reads", users)
	}
	outs := g.OutputLayers()
	if len(outs) != 1 || outs[0].ID != d {
		t.Errorf("OutputLayers = %v", outs)
	}
	ins := g.InputLayers()
	if len(ins) != 1 || ins[0].ID != in {
		t.Errorf("InputLayers = %v", ins)
	}
}

func TestInShapes(t *testing.T) {
	g := chainGraph(t)
	conv, _ := g.LayerByName("conv")
	shapes := g.InShapes(conv)
	if len(shapes) != 1 || shapes[0] != tensor.NewShape(32, 32, 3) {
		t.Errorf("InShapes = %v", shapes)
	}
}

func TestValidateEmpty(t *testing.T) {
	g := New("empty", tensor.Int8)
	if err := g.Validate(); err == nil {
		t.Error("empty graph validated")
	}
}

func TestValidateNoInput(t *testing.T) {
	// A graph whose first layer is not an Input cannot be built through
	// the public API (every op needs inputs), so only the empty and
	// valid paths are reachable; ensure a single-input graph passes.
	g := New("onlyinput", tensor.Int8)
	g.Input("input", tensor.NewShape(4, 4, 2))
	if err := g.Validate(); err != nil {
		t.Errorf("single input graph invalid: %v", err)
	}
}

func TestTotals(t *testing.T) {
	g := chainGraph(t)
	// conv: 32*32*16 * 3*3*3 MACs; relu: 32*32*16; pool: 16*16*16*4.
	wantMACs := int64(32*32*16*27 + 32*32*16 + 16*16*16*4)
	if got := g.TotalMACs(); got != wantMACs {
		t.Errorf("TotalMACs = %d, want %d", got, wantMACs)
	}
	// conv kernel: 16 * (3*3*3 + 4 bias bytes).
	wantK := int64(16 * (27 + 4))
	if got := g.TotalKernelBytes(); got != wantK {
		t.Errorf("TotalKernelBytes = %d, want %d", got, wantK)
	}
}

func TestSubgraph(t *testing.T) {
	g := chainGraph(t)
	sub, err := g.Subgraph("stem", 2)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 2 {
		t.Errorf("sub.Len = %d", sub.Len())
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("sub invalid: %v", err)
	}
	if _, err := g.Subgraph("bad", 0); err == nil {
		t.Error("zero-length prefix accepted")
	}
	if _, err := g.Subgraph("bad", 99); err == nil {
		t.Error("overlong prefix accepted")
	}
}

func TestLayerString(t *testing.T) {
	g := chainGraph(t)
	conv, _ := g.LayerByName("conv")
	s := conv.String()
	if !strings.Contains(s, "conv") || !strings.Contains(s, "Conv2D") {
		t.Errorf("String = %q", s)
	}
	if conv.OutBytes() != 32*32*16 {
		t.Errorf("OutBytes = %d", conv.OutBytes())
	}
}

func TestLayerPanicsOnBadID(t *testing.T) {
	g := chainGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Layer(LayerID(100))
}
