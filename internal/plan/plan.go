// Package plan defines the compiled execution program for a multicore
// NPU: per-core instruction streams over three in-order engines (DMA
// load, compute, DMA store) plus inter-core barriers and halo
// exchanges, with explicit dependency edges.
//
// The representation mirrors the paper's execution model: each tile of
// a sub-layer becomes load/compute/store instructions; double
// buffering appears as dependency edges between a tile's load and the
// compute two tiles earlier; feature-map forwarding removes
// loads/stores; halo-exchange appears as StoreHalo/LoadHalo pairs
// through global memory; stratum construction removes barriers.
package plan

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/partition"
)

// Engine identifies the functional unit that executes an instruction.
// Each engine processes its instructions in program order; different
// engines overlap (the software pipeline).
type Engine int

// Engines of one NPU core.
const (
	EngineLoad    Engine = iota // DMA global memory -> SPM
	EngineCompute               // the MAC array
	EngineStore                 // DMA SPM -> global memory
	EngineSync                  // barrier rendezvous

	numEngines = int(EngineSync) + 1
)

// String returns the engine name.
func (e Engine) String() string {
	switch e {
	case EngineLoad:
		return "load"
	case EngineCompute:
		return "compute"
	case EngineStore:
		return "store"
	case EngineSync:
		return "sync"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// OpCode is the instruction operation.
type OpCode int

// Instruction opcodes.
const (
	// LoadInput moves a tile's input region from global memory to SPM.
	LoadInput OpCode = iota
	// LoadKernel moves kernel weights from global memory to SPM.
	LoadKernel
	// LoadHalo receives halo data another core stored to global memory.
	LoadHalo
	// Compute runs the MAC array over a tile.
	Compute
	// Store moves a tile's output region from SPM to global memory.
	Store
	// StoreHalo pushes boundary data to global memory for neighbours.
	StoreHalo
	// Barrier synchronizes all cores (completes when every core's
	// matching Barrier has all dependencies satisfied).
	Barrier
)

// String returns the opcode mnemonic.
func (o OpCode) String() string {
	switch o {
	case LoadInput:
		return "ld"
	case LoadKernel:
		return "ld-kn"
	case LoadHalo:
		return "halo-recv"
	case Compute:
		return "comp"
	case Store:
		return "st"
	case StoreHalo:
		return "halo-send"
	case Barrier:
		return "sync"
	default:
		return fmt.Sprintf("OpCode(%d)", int(o))
	}
}

// Engine returns the functional unit the opcode executes on.
func (o OpCode) Engine() Engine {
	switch o {
	case LoadInput, LoadKernel, LoadHalo:
		return EngineLoad
	case Compute:
		return EngineCompute
	case Store, StoreHalo:
		return EngineStore
	case Barrier:
		return EngineSync
	default:
		panic(fmt.Sprintf("plan: unknown opcode %d", int(o)))
	}
}

// Ref addresses an instruction: core index and position in that core's
// stream.
type Ref struct {
	Core, Index int
}

// Instr is one instruction of a core's stream.
type Instr struct {
	// Op is the operation; it determines the engine.
	Op OpCode
	// Layer is the layer this instruction belongs to.
	Layer graph.LayerID
	// Tile is the tile index within the sub-layer, or -1 when the
	// instruction is not tile-scoped (barriers, halo transfers).
	Tile int
	// Bytes is the DMA transfer size (load/store opcodes).
	Bytes int64
	// MACs is the compute amount (Compute opcode).
	MACs int64
	// OutBytes is the SPM size of the tile output a Compute produces
	// (for memory profiling); 0 on other opcodes.
	OutBytes int64
	// Deps are instructions that must complete before this one starts,
	// possibly on other cores (halo receives, barrier release is
	// handled via BarrierID instead).
	Deps []Ref
	// BarrierID pairs Barrier instructions across cores; -1 otherwise.
	BarrierID int
	// Note annotates traces ("ld l1 t0").
	Note string
}

// Program is a compiled, simulatable schedule.
type Program struct {
	Arch  *arch.Arch
	Graph *graph.Graph
	// Cores holds one instruction stream per core.
	Cores [][]Instr
	// NumBarriers is the number of distinct barrier IDs.
	NumBarriers int
	// Directions records each layer's partitioning direction (by
	// LayerID) for reports.
	Directions []partition.Direction
	// Strata records the stratum composition (layer IDs per stratum in
	// execution order) for reports.
	Strata [][]graph.LayerID
}

// TotalBytes returns the global-memory traffic of one core (loads +
// stores, halo included).
func (p *Program) TotalBytes(core int) int64 {
	var b int64
	for _, in := range p.Cores[core] {
		switch in.Op {
		case LoadInput, LoadKernel, LoadHalo, Store, StoreHalo:
			b += in.Bytes
		}
	}
	return b
}

// TotalMACs returns the compute executed by one core, redundant halo
// computation included.
func (p *Program) TotalMACs(core int) int64 {
	var m int64
	for _, in := range p.Cores[core] {
		if in.Op == Compute {
			m += in.MACs
		}
	}
	return m
}

// NumInstrs returns the total instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, c := range p.Cores {
		n += len(c)
	}
	return n
}

// Validate checks structural invariants: refs in range, barriers
// paired on every core exactly once per ID, and the dependency graph
// (with per-engine program order added) acyclic.
func (p *Program) Validate() error {
	ncores := len(p.Cores)
	if ncores != p.Arch.NumCores() {
		return fmt.Errorf("plan: %d streams for %d cores", ncores, p.Arch.NumCores())
	}
	// rendezvous numbers the barrier IDs in first-seen order; arrivals
	// counts each one's copies per core, flat by rendezvous then core.
	rendezvous := make(map[int]int32)
	var arrivals []int32
	for c, stream := range p.Cores {
		for i, in := range stream {
			for _, d := range in.Deps {
				if d.Core < 0 || d.Core >= ncores || d.Index < 0 || d.Index >= len(p.Cores[d.Core]) {
					return fmt.Errorf("plan: core %d instr %d: dep %+v out of range", c, i, d)
				}
			}
			if in.Op == Barrier {
				if in.BarrierID < 0 || in.BarrierID >= p.NumBarriers {
					return fmt.Errorf("plan: core %d instr %d: barrier id %d out of range", c, i, in.BarrierID)
				}
				r, ok := rendezvous[in.BarrierID]
				if !ok {
					r = int32(len(rendezvous))
					rendezvous[in.BarrierID] = r
					arrivals = append(arrivals, make([]int32, ncores)...)
				}
				arrivals[int(r)*ncores+c]++
			} else if in.BarrierID != -1 && in.BarrierID != 0 {
				return fmt.Errorf("plan: core %d instr %d: non-barrier with barrier id %d", c, i, in.BarrierID)
			}
			switch in.Op {
			case LoadInput, LoadKernel, LoadHalo, Store, StoreHalo:
				if in.Bytes <= 0 {
					return fmt.Errorf("plan: core %d instr %d: %v with %d bytes", c, i, in.Op, in.Bytes)
				}
			case Compute:
				if in.MACs <= 0 {
					return fmt.Errorf("plan: core %d instr %d: compute with %d MACs", c, i, in.MACs)
				}
			}
		}
	}
	for id, r := range rendezvous {
		for c, n := range arrivals[int(r)*ncores : int(r+1)*ncores] {
			if n != 1 {
				return fmt.Errorf("plan: barrier %d appears %d times on core %d", id, n, c)
			}
		}
	}
	return p.checkAcyclic(rendezvous)
}

// checkAcyclic runs Kahn's algorithm over dependency edges plus
// per-engine program order. All Barrier instructions sharing an ID are
// one rendezvous node (rendezvous numbers them): none releases until
// every core's copy has arrived, so an edge into any copy gates them
// all and an edge out of any copy waits on all of them.
//
// The graph is built in two passes over the same edge walk into flat
// CSR arrays (compressed sparse row: out-edges of node v are
// edges[off[v]:off[v+1]]): the first pass counts out-degrees, the
// second fills the edges, so building it allocates a fixed handful of
// slices whatever the program's size.
func (p *Program) checkAcyclic(rendezvous map[int]int32) error {
	// Global node numbering: one node per instruction, then one per
	// rendezvous. nodeOf maps each instruction to its node, which for a
	// Barrier is its rendezvous; a Barrier's own node stays isolated.
	base := make([]int, len(p.Cores)+1)
	for c := range p.Cores {
		base[c+1] = base[c] + len(p.Cores[c])
	}
	n := base[len(p.Cores)]
	nodes := n + len(rendezvous)
	nodeOf := make([]int32, n)
	for c, stream := range p.Cores {
		for i := range stream {
			nodeOf[base[c]+i] = int32(base[c] + i)
			if stream[i].Op == Barrier {
				nodeOf[base[c]+i] = int32(n) + rendezvous[stream[i].BarrierID]
			}
		}
	}

	// walk calls edge for every per-engine program-order edge and every
	// dependency edge, in a fixed order.
	walk := func(edge func(from, to int32)) {
		for c, stream := range p.Cores {
			var last [numEngines]int32
			for i := range stream {
				in := &stream[i]
				e := in.Op.Engine()
				to := nodeOf[base[c]+i]
				if last[e] > 0 {
					edge(nodeOf[base[c]+int(last[e])-1], to)
				}
				last[e] = int32(i + 1)
				for _, d := range in.Deps {
					edge(nodeOf[base[d.Core]+d.Index], to)
				}
			}
		}
	}
	off := make([]int32, nodes+1)
	indeg := make([]int32, nodes)
	walk(func(from, to int32) {
		off[from+1]++
		indeg[to]++
	})
	for v := 0; v < nodes; v++ {
		off[v+1] += off[v]
	}
	edges := make([]int32, off[nodes])
	cur := append([]int32(nil), off[:nodes]...)
	walk(func(from, to int32) {
		edges[cur[from]] = to
		cur[from]++
	})

	queue := cur[:0] // cur is spent; reuse it as the Kahn stack
	for v := 0; v < nodes; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range edges[off[v]:off[v+1]] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	stuck := 0
	for _, v := range nodeOf {
		if indeg[v] > 0 {
			stuck++
		}
	}
	if stuck > 0 {
		return fmt.Errorf("plan: dependency cycle among %d of %d instructions", stuck, n)
	}
	return nil
}

// PackDeps moves each stream's dependency refs into one backing array
// per stream, so a consumer walks them contiguously instead of chasing
// one heap object per instruction. The array is sized before it is
// filled, so no instruction is left pointing into an abandoned copy,
// and each instruction's Deps is capped at its own length: appending
// to it reallocates rather than overwriting its neighbour's refs.
// Instructions without deps keep their Deps as they are.
func PackDeps(streams [][]Instr) {
	for _, s := range streams {
		n := 0
		for i := range s {
			n += len(s[i].Deps)
		}
		arena := make([]Ref, 0, n)
		for i := range s {
			if len(s[i].Deps) == 0 {
				continue
			}
			lo := len(arena)
			arena = append(arena, s[i].Deps...)
			s[i].Deps = arena[lo:len(arena):len(arena)]
		}
	}
}
