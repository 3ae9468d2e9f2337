// Package graph provides the neural-network intermediate representation
// consumed by the multicore-NPU compiler: a DAG of layers, each wrapping
// an operator from package ops, with shape inference performed at
// construction time.
//
// Layers must be added in topological order (every input must already
// exist), which mirrors how the benchmark models are defined and makes
// the builder infallible at use sites via the Must* helpers.
package graph

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// LayerID identifies a layer within its graph.
type LayerID int

// Layer is one node of the network DAG.
type Layer struct {
	ID       LayerID
	Name     string
	Op       ops.Op
	Inputs   []LayerID    // producing layers, in operator input order
	OutShape tensor.Shape // inferred at Add time
	DType    tensor.DType
}

// IsInput reports whether the layer is a graph source.
func (l *Layer) IsInput() bool { return l.Op.Kind() == ops.KindInput }

// OutBytes returns the storage size of the layer's full output tensor.
func (l *Layer) OutBytes() int64 { return l.OutShape.Bytes(l.DType) }

// String formats the layer for diagnostics.
func (l *Layer) String() string {
	return fmt.Sprintf("%s#%d %v -> %s", l.Name, l.ID, l.Op, l.OutShape)
}

// Graph is a DAG of layers.
type Graph struct {
	Name   string
	DType  tensor.DType // default element type for new layers
	layers []*Layer
	byName map[string]LayerID
	users  [][]LayerID // by layer ID; nil for a layer nothing reads
}

// New returns an empty graph whose layers default to element type dt.
func New(name string, dt tensor.DType) *Graph {
	return &Graph{
		Name:   name,
		DType:  dt,
		byName: make(map[string]LayerID),
	}
}

// Add appends a layer computing op over the given input layers, infers
// its output shape, and returns its ID. Names must be unique within
// the graph.
func (g *Graph) Add(name string, op ops.Op, inputs ...LayerID) (LayerID, error) {
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("graph: duplicate layer name %q", name)
	}
	inShapes := make([]tensor.Shape, len(inputs))
	for i, id := range inputs {
		if int(id) < 0 || int(id) >= len(g.layers) {
			return 0, fmt.Errorf("graph: layer %q input #%d references unknown layer %d", name, i, id)
		}
		inShapes[i] = g.layers[id].OutShape
	}
	out, err := op.OutShape(inShapes)
	if err != nil {
		return 0, fmt.Errorf("graph: layer %q: %w", name, err)
	}
	id := LayerID(len(g.layers))
	l := &Layer{
		ID:       id,
		Name:     name,
		Op:       op,
		Inputs:   append([]LayerID(nil), inputs...),
		OutShape: out,
		DType:    g.DType,
	}
	g.layers = append(g.layers, l)
	g.byName[name] = id
	g.users = append(g.users, nil)
	for _, in := range inputs {
		g.users[in] = append(g.users[in], id)
	}
	return id, nil
}

// MustAdd is Add for statically known-valid model definitions; it
// panics on error.
func (g *Graph) MustAdd(name string, op ops.Op, inputs ...LayerID) LayerID {
	id, err := g.Add(name, op, inputs...)
	if err != nil {
		panic(err)
	}
	return id
}

// Input adds a source layer of the given shape.
func (g *Graph) Input(name string, s tensor.Shape) LayerID {
	return g.MustAdd(name, ops.Input{Shape: s})
}

// Len returns the number of layers.
func (g *Graph) Len() int { return len(g.layers) }

// Layer returns the layer with the given ID; it panics on an invalid ID.
func (g *Graph) Layer(id LayerID) *Layer {
	if int(id) < 0 || int(id) >= len(g.layers) {
		panic(fmt.Sprintf("graph: invalid layer id %d", id))
	}
	return g.layers[id]
}

// LayerByName returns the layer with the given name.
func (g *Graph) LayerByName(name string) (*Layer, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.layers[id], true
}

// Layers returns all layers in insertion (topological) order. The
// returned slice must not be modified.
func (g *Graph) Layers() []*Layer { return g.layers }

// Users returns the IDs of layers that consume id's output. The
// returned slice must not be modified.
func (g *Graph) Users(id LayerID) []LayerID { return g.users[id] }

// InShapes returns the input shapes of layer l in operator order.
func (g *Graph) InShapes(l *Layer) []tensor.Shape {
	shapes := make([]tensor.Shape, len(l.Inputs))
	for i, id := range l.Inputs {
		shapes[i] = g.Layer(id).OutShape
	}
	return shapes
}

// InputLayers returns the graph sources in order.
func (g *Graph) InputLayers() []*Layer {
	var ins []*Layer
	for _, l := range g.layers {
		if l.IsInput() {
			ins = append(ins, l)
		}
	}
	return ins
}

// OutputLayers returns the layers with no users (the network outputs).
func (g *Graph) OutputLayers() []*Layer {
	var outs []*Layer
	for _, l := range g.layers {
		if len(g.users[l.ID]) == 0 {
			outs = append(outs, l)
		}
	}
	return outs
}

// Validate checks structural invariants: at least one source, all edges
// in range, insertion order topological, no empty shapes.
func (g *Graph) Validate() error {
	if len(g.layers) == 0 {
		return fmt.Errorf("graph %q: empty", g.Name)
	}
	if len(g.InputLayers()) == 0 {
		return fmt.Errorf("graph %q: no input layer", g.Name)
	}
	for _, l := range g.layers {
		if l.OutShape.Empty() {
			return fmt.Errorf("graph %q: layer %s has empty output", g.Name, l)
		}
		for _, in := range l.Inputs {
			if in >= l.ID {
				return fmt.Errorf("graph %q: layer %s uses non-preceding input %d", g.Name, l, in)
			}
		}
	}
	return nil
}

// TotalMACs returns the multiply-accumulate count of one full inference.
func (g *Graph) TotalMACs() int64 {
	var total int64
	for _, l := range g.layers {
		total += l.Op.MACs(l.OutShape, g.InShapes(l))
	}
	return total
}

// TotalKernelBytes returns the total weight storage of the network.
func (g *Graph) TotalKernelBytes() int64 {
	var total int64
	for _, l := range g.layers {
		total += l.Op.KernelBytes(l.OutShape, g.InShapes(l), l.DType)
	}
	return total
}

// Subgraph returns a new graph containing the first n layers of g (a
// prefix in topological order). It is used to isolate regions such as
// the InceptionV3 stem for the Table 5 experiment. Prefix layers keep
// their names; users outside the prefix are dropped.
func (g *Graph) Subgraph(name string, n int) (*Graph, error) {
	if n <= 0 || n > len(g.layers) {
		return nil, fmt.Errorf("graph: prefix length %d out of range (1..%d)", n, len(g.layers))
	}
	sub := New(name, g.DType)
	for _, l := range g.layers[:n] {
		sub.DType = l.DType
		if _, err := sub.Add(l.Name, l.Op, l.Inputs...); err != nil {
			return nil, err
		}
	}
	sub.DType = g.DType
	return sub, nil
}
