// Package serialize persists graphs and compiled programs as JSON, so
// compilation artifacts can be inspected, diffed, and replayed
// (npuc -o writes them; npusim -in simulates them without recompiling).
package serialize

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// opEnvelope tags an operator with its kind for decoding.
type opEnvelope struct {
	Kind string          `json:"kind"`
	Attr json.RawMessage `json:"attr"`
}

// encodeOp wraps an operator in a tagged envelope.
func encodeOp(op ops.Op) (opEnvelope, error) {
	kind := op.Kind().String()
	raw, err := json.Marshal(op)
	if err != nil {
		return opEnvelope{}, err
	}
	return opEnvelope{Kind: kind, Attr: raw}, nil
}

// decodeOp reconstructs an operator from its envelope.
func decodeOp(env opEnvelope) (ops.Op, error) {
	unmarshal := func(v ops.Op) (ops.Op, error) {
		// v is a pointer to the zero value; fill and deref.
		if err := json.Unmarshal(env.Attr, v); err != nil {
			return nil, err
		}
		return v, nil
	}
	switch env.Kind {
	case "Input":
		o := &ops.Input{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Conv2D":
		o := &ops.Conv2D{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "DepthwiseConv2D":
		o := &ops.DepthwiseConv2D{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "TransposeConv2D":
		o := &ops.TransposeConv2D{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "MaxPool2D":
		o := &ops.MaxPool2D{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "AvgPool2D":
		o := &ops.AvgPool2D{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "GlobalAvgPool":
		return ops.GlobalAvgPool{}, nil
	case "FullyConnected":
		o := &ops.FullyConnected{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Add":
		o := &ops.Add{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Mul":
		return ops.Mul{}, nil
	case "Concat":
		o := &ops.Concat{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Activation":
		o := &ops.Activation{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Softmax":
		return ops.Softmax{}, nil
	case "Resize":
		o := &ops.Resize{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "Crop":
		o := &ops.Crop{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "ChannelSlice":
		o := &ops.ChannelSlice{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	case "ChannelShuffle":
		o := &ops.ChannelShuffle{}
		if _, err := unmarshal(o); err != nil {
			return nil, err
		}
		return *o, nil
	default:
		return nil, fmt.Errorf("serialize: unknown op kind %q", env.Kind)
	}
}

// layerJSON is the persisted form of a layer.
type layerJSON struct {
	Name   string          `json:"name"`
	Op     opEnvelope      `json:"op"`
	Inputs []graph.LayerID `json:"inputs"`
	DType  tensor.DType    `json:"dtype"`
}

// graphJSON is the persisted form of a graph.
type graphJSON struct {
	Name   string       `json:"name"`
	DType  tensor.DType `json:"dtype"`
	Layers []layerJSON  `json:"layers"`
}

// SaveGraph writes g as JSON.
func SaveGraph(w io.Writer, g *graph.Graph) error {
	doc := graphJSON{Name: g.Name, DType: g.DType}
	for _, l := range g.Layers() {
		env, err := encodeOp(l.Op)
		if err != nil {
			return fmt.Errorf("serialize: layer %s: %w", l.Name, err)
		}
		doc.Layers = append(doc.Layers, layerJSON{
			Name: l.Name, Op: env, Inputs: l.Inputs, DType: l.DType,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// LoadGraph reconstructs a graph from JSON, re-running shape inference
// and validation.
func LoadGraph(r io.Reader) (*graph.Graph, error) {
	var doc graphJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	g := graph.New(doc.Name, doc.DType)
	for _, l := range doc.Layers {
		op, err := decodeOp(l.Op)
		if err != nil {
			return nil, fmt.Errorf("serialize: layer %s: %w", l.Name, err)
		}
		g.DType = l.DType
		if _, err := g.Add(l.Name, op, l.Inputs...); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
	}
	g.DType = doc.DType
	return g, g.Validate()
}

// programJSON is the persisted form of a compiled program. The graph
// and architecture travel with it so a simulation needs nothing else.
type programJSON struct {
	Arch        *arch.Arch            `json:"arch"`
	Graph       graphJSON             `json:"graph"`
	Cores       [][]plan.Instr        `json:"cores"`
	NumBarriers int                   `json:"num_barriers"`
	Directions  []partition.Direction `json:"directions"`
	Strata      [][]graph.LayerID     `json:"strata"`
}

// SaveProgram writes a compiled program (with its graph and
// architecture) as JSON.
func SaveProgram(w io.Writer, p *plan.Program) error {
	gdoc := graphJSON{Name: p.Graph.Name, DType: p.Graph.DType}
	for _, l := range p.Graph.Layers() {
		env, err := encodeOp(l.Op)
		if err != nil {
			return fmt.Errorf("serialize: layer %s: %w", l.Name, err)
		}
		gdoc.Layers = append(gdoc.Layers, layerJSON{
			Name: l.Name, Op: env, Inputs: l.Inputs, DType: l.DType,
		})
	}
	doc := programJSON{
		Arch:        p.Arch,
		Graph:       gdoc,
		Cores:       p.Cores,
		NumBarriers: p.NumBarriers,
		Directions:  p.Directions,
		Strata:      p.Strata,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// LoadProgram reads a compiled program back and re-validates it.
func LoadProgram(r io.Reader) (*plan.Program, error) {
	var doc programJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	if doc.Arch == nil {
		return nil, fmt.Errorf("serialize: program has no architecture")
	}
	g := graph.New(doc.Graph.Name, doc.Graph.DType)
	for _, l := range doc.Graph.Layers {
		op, err := decodeOp(l.Op)
		if err != nil {
			return nil, err
		}
		g.DType = l.DType
		if _, err := g.Add(l.Name, op, l.Inputs...); err != nil {
			return nil, fmt.Errorf("serialize: %w", err)
		}
	}
	g.DType = doc.Graph.DType
	plan.PackDeps(doc.Cores)
	p := &plan.Program{
		Arch:        doc.Arch,
		Graph:       g,
		Cores:       doc.Cores,
		NumBarriers: doc.NumBarriers,
		Directions:  doc.Directions,
		Strata:      doc.Strata,
	}
	if err := doc.Arch.Validate(); err != nil {
		return nil, fmt.Errorf("serialize: %w", err)
	}
	return p, p.Validate()
}
