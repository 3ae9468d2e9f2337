package recovery

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// checkpointOf folds ids, layer IDs of g itself, into a checkpoint.
func checkpointOf(g *graph.Graph, ids []graph.LayerID) *Checkpoint {
	var c Checkpoint
	c.Fold(g, ids, nil)
	return &c
}

func TestCheckpointZeroIsEmpty(t *testing.T) {
	var nilC *Checkpoint
	var zero Checkpoint
	for name, c := range map[string]*Checkpoint{"nil": nilC, "zero": &zero} {
		if !c.Empty() || c.Layers() != nil {
			t.Errorf("%s checkpoint: Empty %v, Layers %v; want empty", name, c.Empty(), c.Layers())
		}
	}
}

// A checkpoint taken on a resumed suffix program folds through the
// suffix's origin map into original-graph IDs, on top of the layers the
// first checkpoint already held.
func TestCheckpointFoldsThroughSuffixOrigin(t *testing.T) {
	g := chain4(t)
	b, _ := g.LayerByName("b")
	c, _ := g.LayerByName("c")
	ckpt := checkpointOf(g, []graph.LayerID{b.ID})
	suffix, origin, err := ckpt.suffixGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := suffix.LayerByName("c")
	if sc.ID == c.ID {
		t.Fatal("suffix kept c's ID: the fold would not exercise the origin map")
	}
	ckpt.Fold(g, []graph.LayerID{sc.ID}, origin)
	if want := []graph.LayerID{b.ID, c.ID}; !reflect.DeepEqual(ckpt.Layers(), want) {
		t.Errorf("folded checkpoint = %v, want %v", ckpt.Layers(), want)
	}
	// The folded checkpoint resumes exactly where a fresh cut at {b, c}
	// would.
	got, gotOrigin, err := ckpt.suffixGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	want, wantOrigin, err := SuffixGraph(g, []graph.LayerID{b.ID, c.ID})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOrigin, wantOrigin) {
		t.Error("suffix of the folded checkpoint differs from SuffixGraph of its layers")
	}
}

func TestCheckpointRefoldIsIdempotent(t *testing.T) {
	g := chain4(t)
	b, _ := g.LayerByName("b")
	c, _ := g.LayerByName("c")
	ckpt := checkpointOf(g, []graph.LayerID{b.ID, c.ID})
	before := ckpt.Layers()
	ckpt.Fold(g, []graph.LayerID{c.ID, b.ID, c.ID}, nil)
	ckpt.Fold(g, nil, nil)
	if len(before) != 2 || !reflect.DeepEqual(ckpt.Layers(), before) {
		t.Errorf("re-fold changed the checkpoint: Layers %v, want %v (2 layers)", ckpt.Layers(), before)
	}
}

func TestCheckpointLayersInIDOrder(t *testing.T) {
	g := chain4(t)
	var ids []graph.LayerID
	for i := g.Len() - 1; i >= 0; i-- {
		ids = append(ids, graph.LayerID(i))
	}
	got := checkpointOf(g, ids).Layers()
	for i, id := range got {
		if id != graph.LayerID(i) {
			t.Fatalf("Layers() = %v, want layer-ID order", got)
		}
	}
	if len(got) != g.Len() {
		t.Errorf("Layers() has %d layers, want %d", len(got), g.Len())
	}
}
