package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
)

// This file is the production event-driven engine. It replaces the
// reference engine's four per-step linear scans (in-flight transfers,
// pending DMA setups, busy compute engines, released barriers) with a
// single indexed min-heap of pending events, its full issueAll rescans
// with a ready list fed by dependency-count decrements, and its
// per-step sort-and-allocate bus arbitration with a water-filling set
// that is maintained incrementally and re-solved only when membership
// or core speeds change. All per-run scratch lives in a pooled machine
// struct, so steady-state simulation performs no heap allocations
// beyond the Result handed to the caller.
//
// Per-run state layout. Each instruction becomes a pointer-free enode
// holding only the scalars the step loop reads (engine, sizes, layer,
// barrier, dependency count, timing); the 96-byte plan.Instr is not
// copied, and Tile and Note are read from the program only when a
// hook or overflow report needs them. Two fused setup passes
// over the program build the node array, unit-speed compute cycles,
// SPM owner bytes, the engine queues and the dependent lists (both
// CSR: compressed sparse row offset/edge arrays), and the SPM read
// edges: for each node, the dependencies whose buffers it actually
// reads, so retiring it frees buffers without revisiting its Deps.
//
// Bus membership. Each core's load and store engines are two DMA
// slots (2c and 2c+1). A transfer joins the bus set (or the direct set
// for halo traffic on a dedicated interconnect) when its descriptor
// setup expires and leaves it when it finishes or is dropped, so a
// rebuild never rescans the cores' engines and their setup times.
// Water-filling is a pure function of the ordered membership, the
// members' capacities and the bus ceiling; membership order is slot
// order and capacities change only when a fault event rescales a
// core. On machines of at most busTableSlots slots a table with one
// row per membership mask therefore caches the sorted channels and
// their rates exactly: the sort-and-fill code fills a row on a miss,
// and every fault event that fires clears the table.
//
// The engine is required to be bit-identical to reference.go — same
// cycle counts, same floating-point stats accumulation, same hook
// event order, same fault behavior — which pins several design points:
//
//   - Transfer completion times are recomputed from remaining/rate
//     every step rather than cached across steps: draining subtracts
//     rate*dt, and (rem - r*dt)/r differs from rem/r - dt in floating
//     point, so a cached projection would drift off the reference.
//   - Due completions are processed in the reference's canonical order
//     (bus channels by capacity, then direct channels, then compute by
//     core, then barriers by placement), not heap-pop order, because
//     hook event order and stats accumulation order observe it.
//   - Bus channels are gathered in slot order (core, then load before
//     store), the reference's order, and sorted by capacity the way
//     the reference's sort.Slice sorts them: its pattern-defeating
//     quicksort runs a plain insertion sort up to pdqInsertionMax
//     elements, which the engine inlines, and above that (7 or more
//     cores) an unstable partitioning that slices.SortFunc repeats
//     step for step, so ties land in the same order either way.
//   - Every membership change (setup expiry, finish, drop) and every
//     fired fault event triggers a rebuild and a Hook bus sample, table
//     hit or not, so the bus series records each allocation change.
//   - Merged busy intervals exploit that completion times never
//     decrease: appending merges in place, and summing the disjoint
//     intervals left to right reproduces unionLength's accumulation
//     order exactly.
//   - The SPM capacity check runs only after a step allocated a
//     buffer: frees never raise a core's footprint, so a step that
//     allocated nothing cannot overflow.

// numEngines is the per-core engine count (load, compute, store, sync).
const numEngines = 4

// busTableSlots is the largest DMA slot count (4 cores) whose machine
// caches water-filling results, one table row per membership mask.
const busTableSlots = 8

// pdqInsertionMax is the length up to which the standard library's
// pattern-defeating quicksort (sort.Slice, slices.SortFunc) runs a
// plain insertion sort.
const pdqInsertionMax = 12

// Bus slot membership.
const (
	slotIdle   uint8 = iota // no transfer past setup
	slotBus                 // sharing the bus
	slotDirect              // on the dedicated halo interconnect
)

// enode is the event engine's per-instruction state.
type enode struct {
	start      float64 // first issue time
	finish     float64 // compute: scheduled completion (+Inf while hung)
	remaining  float64 // DMA: bytes left; compute: unit-speed cycles left
	setupUntil float64 // DMA: descriptor setup (or retry backoff) ends
	size       int64   // DMA: Bytes; compute: MACs
	layer      int32
	barrier    int32 // sync: BarrierID
	deps       int32 // unsatisfied dependency count
	attempt    int32 // DMA re-issues so far (fault injection)
	op         uint8 // plan.OpCode
	eng        uint8 // plan.Engine
	done       bool
	started    bool
	flipped    bool // delivered corrupted bytes (fault injection)
}

// echannel is one in-flight DMA transfer participating in bandwidth
// allocation.
type echannel struct {
	nid  int32
	slot int32
	cap  float64
}

// busFill is one cached water-filling result entry: the member in
// slot, its capacity and its allocated rate.
type busFill struct {
	slot      int32
	cap, rate float64
}

// ebarrier is the event engine's rendezvous state. Arrival times are
// folded into a running max (the reference's maxArr scan over
// arrivals); arrived nodes are recorded in barNodes[arrStart:] in
// placement-local core order, which completion preserves.
type ebarrier struct {
	arrStart int32
	nlocal   int32
	arrived  int32
	released bool
	maxArr   float64
	finish   float64
}

// machine is the pooled per-run state of the event engine. Every slice
// is sized by resize helpers that reuse capacity, so a warm machine
// runs a simulation without allocating; only the Result (and its
// PerCore/ProgramCycles slices, which are handed to the caller)
// is fresh per run.
type machine struct {
	a          *arch.Arch
	placements []Placement
	cfg        Config

	fs      *faultState // nil when the plan injects nothing
	fsStore faultState  // backing storage for fs, pooled
	flipOn  bool        // FlipRate > 0: stratum checksums armed

	total  int
	ncores int

	nodes []enode

	// Dependents in CSR form: the nodes unblocked by node n's
	// completion are depEdges[depOff[n]:depOff[n+1]].
	depOff   []int32
	depCur   []int32
	depEdges []int32

	// SPM read edges in CSR form: the owners whose buffers node n
	// reads are reads[readOff[n]:readOff[n+1]].
	readOff []int32
	reads   []int32

	coreOf  []int32 // node -> global core
	progOf  []int32 // node -> placement index
	indexOf []int32 // node -> position within its core-local stream

	// Global node numbering: placement pi's local core lc starts at
	// baseFlat[streamStart[pi]+lc], matching the reference's streamKey
	// map (and fault.Plan.Drops transfer identity).
	streamStart []int32
	baseFlat    []int32

	// Engine queues in CSR form, flat index ei = core*numEngines +
	// engine: queue is qBuf[qOff[ei]:qOff[ei+1]], next-to-issue cursor
	// qPos[ei], active node busyN[ei] (-1 idle).
	qOff  []int32
	qPos  []int32
	qBuf  []int32
	busyN []int32

	// Barriers flattened across placements: placement pi's barrier b is
	// bars[barOff[pi]+b].
	barOff   []int32
	bars     []ebarrier
	barNodes []int32

	owner      []int32 // global core -> last placement on it (-1 unassigned)
	localIndex []int32 // global core -> placement-local index

	// Streams: each placement's predecessor (see placementOwners), the
	// (tail, head) join edges gating it, and scratch.
	after, joins, ends []int32

	// Per-placement layer accounting for checkpoint recovery (fault
	// runs only), flattened: placement pi's layers occupy
	// [layerOff[pi]:layerOff[pi+1]].
	layerOff   []int32
	layerDone  []int
	layerTotal []int
	layerStore []bool
	pending    []int32 // per global core, instructions not yet finished

	stats Stats

	// Per-core busy intervals, kept merged (disjoint, sorted) as they
	// are appended.
	busyIv [][][2]float64

	// Bandwidth allocation: rates by node id, the bus water-filling set
	// (sorted by cap) and the dedicated-interconnect set, rebuilt only
	// when dirty (membership or speed change).
	rates  []float64
	chans  []echannel
	direct []echannel
	dirty  bool

	// Incremental membership: slot state per DMA slot, the bus set as a
	// slot bitmask (read only on table machines) and the direct-set
	// size. On machines of at most busTableSlots slots, busSolved[mask]
	// marks a cached allocation whose sorted members are
	// busFill[mask*nslots:]; elsewhere both are empty.
	member    []uint8
	busMask   uint64
	ndirect   int
	busSolved []bool
	busFill   []busFill

	// SPM admission check (spmcheck.go): bytes each live buffer owner
	// still holds (0 = none or freed), outstanding reader counts, and
	// per-core live totals. spmGrew marks a step that allocated.
	spmBuf     []int64
	spmReaders []int32
	spmLive    []int64
	spmGrew    bool

	heap eventHeap

	// Engines that may have an issuable queue head, deduplicated by
	// readyFlag.
	readyStack []int32
	readyFlag  []bool

	// Due-event staging, re-sorted into the reference's completion
	// order each step.
	dueCompute  []int32
	dueBarriers []int32

	// Watchdog: heartbeat interval (0 = off), next beat time, and the
	// scratch list of cores found stalled at the current beat.
	wdH        float64
	nextBeat   float64
	wdCulprits []int

	// Stratum-boundary checksum state (FlipRate > 0 only), flattened
	// like the layer accounting: placement pi's strata occupy
	// [strOff[pi]:strOff[pi+1]]. layerStr maps a flattened layer to
	// its local stratum index; strLeft counts unfinished instructions
	// per stratum; strFlips counts corrupted transfers per stratum.
	strOff   []int32
	layerStr []int32
	strLeft  []int32
	strFlips []int32
	corrupt  []Corruption // handed to the caller, fresh per run

	now       float64
	completed int
}

var machinePool = sync.Pool{New: func() any { return new(machine) }}

// RunConcurrent simulates several programs sharing one architecture's
// cores and bus, using the event-driven engine. Placements on disjoint
// cores run side by side; placements listing the same cores run back
// to back as a stream (see Placement), and Stats.ProgramCycles holds
// each one's completion cycle.
func RunConcurrent(a *arch.Arch, placements []Placement, cfg Config) (*Result, error) {
	m := machinePool.Get().(*machine)
	res, err := m.run(a, placements, cfg)
	m.release()
	machinePool.Put(m)
	return res, err
}

// release drops references to caller-owned data so the pooled machine
// retains only its reusable scratch capacity.
func (m *machine) release() {
	m.a = nil
	m.placements = nil
	m.cfg = Config{}
	m.fs = nil
	m.fsStore.plan = nil
	m.stats = Stats{}
	m.corrupt = nil
}

func (m *machine) speedOf(c int) float64 {
	if m.fs == nil {
		return 1
	}
	return m.fs.speed[c]
}

// instr returns node nid's instruction in its placement's program.
func (m *machine) instr(nid int) *plan.Instr {
	lc := m.localIndex[m.coreOf[nid]]
	return &m.placements[m.progOf[nid]].Program.Cores[lc][m.indexOf[nid]]
}

func (m *machine) run(a *arch.Arch, placements []Placement, cfg Config) (*Result, error) {
	m.a, m.placements, m.cfg = a, placements, cfg
	ncores := a.NumCores()
	m.ncores = ncores

	m.fs = nil
	active, err := m.fsStore.init(cfg.Faults, ncores)
	if err != nil {
		return nil, err
	}
	if active {
		m.fs = &m.fsStore
	}

	m.owner = resizeFill(m.owner, ncores, -1)
	if m.after, err = placementOwners(placements, m.owner, m.after); err != nil {
		return nil, err
	}

	// Global node numbering across placements and their cores.
	m.streamStart = m.streamStart[:0]
	m.baseFlat = m.baseFlat[:0]
	total := 0
	for _, pl := range placements {
		m.streamStart = append(m.streamStart, int32(len(m.baseFlat)))
		for lc := range pl.Program.Cores {
			m.baseFlat = append(m.baseFlat, int32(total))
			total += len(pl.Program.Cores[lc])
		}
	}
	m.total = total

	m.nodes = resize(m.nodes, total)
	m.coreOf = resize(m.coreOf, total)
	m.progOf = resize(m.progOf, total)
	m.indexOf = resize(m.indexOf, total)
	m.rates = resize(m.rates, total)
	m.spmBuf = resize(m.spmBuf, total)
	m.spmReaders = resize(m.spmReaders, total)
	m.spmLive = resize(m.spmLive, ncores)

	ne := ncores * numEngines
	m.qOff = resize(m.qOff, ne+1)
	m.qPos = resize(m.qPos, ne)
	m.busyN = resizeFill(m.busyN, ne, -1)
	m.depOff = resize(m.depOff, total+1)
	m.depCur = resize(m.depCur, total)
	m.readOff = resize(m.readOff, total+1)

	m.localIndex = resizeFill(m.localIndex, ncores, -1)
	for _, pl := range placements {
		for lc, c := range pl.Cores {
			m.localIndex[c] = int32(lc)
		}
	}

	// Pass 1: node scalars, unit-speed compute cycles, SPM owner
	// bytes, and counts for the queue and dependent CSRs.
	model := cost.Model{Arch: a}
	for pi, pl := range placements {
		base := m.baseFlat[m.streamStart[pi]:]
		g := pl.Program.Graph
		for lc, stream := range pl.Program.Cores {
			gcore := pl.Cores[lc]
			b := int(base[lc])
			for i := range stream {
				in := &stream[i]
				n := b + i
				eng := in.Op.Engine()
				nd := enode{
					layer: int32(in.Layer), barrier: int32(in.BarrierID), deps: int32(len(in.Deps)),
					op: uint8(in.Op), eng: uint8(eng),
				}
				switch eng {
				case plan.EngineCompute:
					nd.size = in.MACs
					nd.remaining = float64(model.ComputeCycles(gcore, in.MACs, g.Layer(in.Layer).DType))
				case plan.EngineLoad, plan.EngineStore:
					nd.size = in.Bytes
				}
				m.nodes[n] = nd
				m.coreOf[n] = int32(gcore)
				m.progOf[n] = int32(pi)
				m.indexOf[n] = int32(i)
				m.spmBuf[n] = spmOwnedBytes(in)
				m.qOff[gcore*numEngines+int(eng)+1]++
				for _, d := range in.Deps {
					m.depOff[int(base[d.Core])+d.Index+1]++
				}
			}
		}
	}
	m.linkStreams()
	for ei := 0; ei < ne; ei++ {
		m.qOff[ei+1] += m.qOff[ei]
	}
	for n := 0; n < total; n++ {
		m.depOff[n+1] += m.depOff[n]
	}
	m.qBuf = resize(m.qBuf, total)
	m.depEdges = resize(m.depEdges, int(m.depOff[total]))
	copy(m.qPos, m.qOff[:ne])
	copy(m.depCur, m.depOff[:total])

	// Pass 2: fill both CSRs in the reference's append order, and the
	// SPM read edges with each owner's reader count.
	m.reads = m.reads[:0]
	for pi, pl := range placements {
		base := m.baseFlat[m.streamStart[pi]:]
		for lc, stream := range pl.Program.Cores {
			gcore := pl.Cores[lc]
			b := int(base[lc])
			for i := range stream {
				in := &stream[i]
				n := b + i
				ei := gcore*numEngines + int(m.nodes[n].eng)
				m.qBuf[m.qPos[ei]] = int32(n)
				m.qPos[ei]++
				m.readOff[n] = int32(len(m.reads))
				for _, d := range in.Deps {
					dn := int(base[d.Core]) + d.Index
					m.depEdges[m.depCur[dn]] = int32(n)
					m.depCur[dn]++
					if m.spmBuf[dn] > 0 && spmReads(plan.OpCode(m.nodes[dn].op), in.Op) {
						m.spmReaders[dn]++
						m.reads = append(m.reads, int32(dn))
					}
				}
			}
		}
	}
	m.readOff[total] = int32(len(m.reads))
	for i := 0; i < len(m.joins); i += 2 {
		t := m.joins[i]
		m.depEdges[m.depCur[t]] = m.joins[i+1]
		m.depCur[t]++
	}
	copy(m.qPos, m.qOff[:ne]) // rewind issue cursors

	// Barriers, flattened.
	m.barOff = m.barOff[:0]
	m.bars = m.bars[:0]
	m.barNodes = m.barNodes[:0]
	for _, pl := range placements {
		m.barOff = append(m.barOff, int32(len(m.bars)))
		for i := 0; i < pl.Program.NumBarriers; i++ {
			m.bars = append(m.bars, ebarrier{arrStart: int32(len(m.barNodes)), nlocal: int32(len(pl.Cores))})
			for range pl.Cores {
				m.barNodes = append(m.barNodes, -1)
			}
		}
	}
	m.barOff = append(m.barOff, int32(len(m.bars)))
	totalBarriers := len(m.bars)

	// Per-placement layer accounting for checkpoint recovery.
	if m.fs != nil {
		m.layerOff = m.layerOff[:0]
		nl := 0
		for _, pl := range placements {
			m.layerOff = append(m.layerOff, int32(nl))
			nl += pl.Program.Graph.Len()
		}
		m.layerOff = append(m.layerOff, int32(nl))
		m.layerDone = resize(m.layerDone, nl)
		m.layerTotal = resize(m.layerTotal, nl)
		m.layerStore = resize(m.layerStore, nl)
		m.pending = resize(m.pending, ncores)
		for nid := 0; nid < total; nid++ {
			l := int(m.layerOff[m.progOf[nid]]) + int(m.nodes[nid].layer)
			m.layerTotal[l]++
			// Only plan.Store reaches global memory; halo stores land
			// in a peer's SPM and die with it.
			if plan.OpCode(m.nodes[nid].op) == plan.Store {
				m.layerStore[l] = true
			}
			m.pending[m.coreOf[nid]]++
		}
	}

	// Watchdog heartbeat: only meaningful when faults are injected (a
	// fault-free run cannot stall), which also keeps the fault-free
	// fast path untouched.
	m.wdH = 0
	if cfg.WatchdogCycles > 0 && m.fs != nil {
		m.wdH = cfg.WatchdogCycles
	}
	m.nextBeat = m.wdH
	m.wdCulprits = m.wdCulprits[:0]

	// Stratum-boundary checksum accounting for silent-corruption
	// detection. Programs without strata (base config) checksum at
	// every layer boundary instead.
	m.flipOn = m.fs != nil && m.fs.plan.FlipRate > 0
	m.corrupt = nil
	if m.flipOn {
		nl := int(m.layerOff[len(placements)])
		m.layerStr = resizeFill(m.layerStr, nl, -1)
		m.strOff = m.strOff[:0]
		ns := 0
		for pi, pl := range placements {
			m.strOff = append(m.strOff, int32(ns))
			off := int(m.layerOff[pi])
			if len(pl.Program.Strata) == 0 {
				for l := 0; l < pl.Program.Graph.Len(); l++ {
					m.layerStr[off+l] = int32(l)
				}
				ns += pl.Program.Graph.Len()
				continue
			}
			for si, s := range pl.Program.Strata {
				for _, id := range s {
					m.layerStr[off+int(id)] = int32(si)
				}
			}
			ns += len(pl.Program.Strata)
		}
		m.strOff = append(m.strOff, int32(ns))
		m.strLeft = resize(m.strLeft, ns)
		m.strFlips = resize(m.strFlips, ns)
		for nid := 0; nid < total; nid++ {
			pi := int(m.progOf[nid])
			if si := m.layerStr[int(m.layerOff[pi])+int(m.nodes[nid].layer)]; si >= 0 {
				m.strLeft[int(m.strOff[pi])+int(si)]++
			}
		}
	}

	m.stats = Stats{
		PerCore:       make([]CoreStats, ncores),
		Barriers:      totalBarriers,
		ProgramCycles: make([]float64, len(placements)),
	}

	for cap(m.busyIv) < ncores {
		m.busyIv = append(m.busyIv[:cap(m.busyIv)], nil)
	}
	m.busyIv = m.busyIv[:ncores]
	for c := range m.busyIv {
		m.busyIv[c] = m.busyIv[c][:0]
	}

	m.chans = m.chans[:0]
	m.direct = m.direct[:0]
	m.dirty = false
	nslots := 2 * ncores
	m.member = resize(m.member, nslots)
	m.busMask, m.ndirect = 0, 0
	m.busSolved, m.busFill = m.busSolved[:0], m.busFill[:0]
	if nslots <= busTableSlots {
		m.busSolved = resize(m.busSolved, 1<<nslots)
		m.busFill = resize(m.busFill, nslots<<nslots)
	}
	m.spmGrew = false
	m.heap.reset(total, totalBarriers)
	m.readyFlag = resize(m.readyFlag, ne)
	m.readyStack = m.readyStack[:0]
	for ei := 0; ei < ne; ei++ {
		m.pushReady(int32(ei))
	}
	m.now = 0
	m.completed = 0

	for step := 0; m.completed < total; step++ {
		if err := canceled(cfg.Ctx, step, m.now, m.completed, total); err != nil {
			return nil, err
		}
		// Fault events due now fire before new work issues: a throttle
		// or silent slowdown rescales the core's in-flight compute (and
		// its DMA capacity, via the dirty rebuild); a hang freezes the
		// core entirely; a death fails the run if the core still owes
		// instructions (and is inert otherwise).
		if m.fs != nil {
			for _, ev := range m.fs.fire(m.now) {
				switch ev.kind {
				case fault.KindDeath:
					if m.owner[ev.core] >= 0 && m.pending[ev.core] > 0 {
						return nil, m.failCore(FailCoreDeath, ev.core)
					}
					continue
				case fault.KindHang:
					// Freeze in-flight compute: bank the unit-speed work
					// left and park the node until the resume (if any).
					// In-flight DMA freezes through the rebuild (zero
					// capacity, zero water-filled rate), and nothing new
					// issues while the core is hung.
					if nid := m.busyN[ev.core*numEngines+int(plan.EngineCompute)]; nid >= 0 {
						n := &m.nodes[nid]
						if n.finish > m.now && ev.oldSpeed > 0 {
							n.remaining = (n.finish - m.now) * ev.oldSpeed
							n.finish = math.Inf(1)
							m.heap.remove(evCompute, nid)
						}
					}
				case fault.KindResume:
					if nid := m.busyN[ev.core*numEngines+int(plan.EngineCompute)]; nid >= 0 {
						n := &m.nodes[nid]
						if math.IsInf(n.finish, 1) && ev.newSpeed > 0 {
							n.finish = m.now + n.remaining/ev.newSpeed
							m.heap.update(evCompute, nid, n.finish)
						}
					}
					for e := 0; e < numEngines; e++ {
						m.pushReady(int32(ev.core*numEngines + e))
					}
				default: // announced throttle or silent slowdown
					if nid := m.busyN[ev.core*numEngines+int(plan.EngineCompute)]; nid >= 0 {
						n := &m.nodes[nid]
						if n.finish > m.now && ev.oldSpeed > 0 && ev.newSpeed > 0 {
							n.finish = m.now + (n.finish-m.now)*ev.oldSpeed/ev.newSpeed
							m.heap.update(evCompute, nid, n.finish)
						}
					}
				}
				// The core's DMA capacity changed: cached water-filling
				// results no longer hold.
				clear(m.busSolved)
				m.dirty = true
			}
			m.syncFaultEvent()
		}

		m.issueReady()

		if m.spmGrew {
			m.spmGrew = false
			if err := m.checkSPM(); err != nil {
				return nil, err
			}
		}

		// Watchdog beat: after issue (so "idle engine with an issuable
		// head" is genuine evidence of a stall, not a not-yet-processed
		// wake). A barren beat on a quiescent machine is a deadlock,
		// handled below.
		beatBarren := false
		if m.wdH > 0 && m.now >= m.nextBeat-eps {
			m.scanStalled()
			if len(m.wdCulprits) > 0 {
				return nil, m.hangDetected()
			}
			beatBarren = true
			for m.nextBeat <= m.now+eps {
				m.nextBeat += m.wdH
			}
		}

		if m.dirty {
			m.rebuildChannels()
			m.dirty = false
		}

		// Earliest next completion: in-flight transfer projections
		// (recomputed, see file comment) and the heap top, which covers
		// compute finishes, setup deadlines, released barriers, and the
		// next fault firing.
		next := math.Inf(1)
		for _, ch := range m.chans {
			if r := m.rates[ch.nid]; r > 0 {
				if t := m.now + m.nodes[ch.nid].remaining/r; t < next {
					next = t
				}
			}
		}
		for _, ch := range m.direct {
			if r := m.rates[ch.nid]; r > 0 {
				if t := m.now + m.nodes[ch.nid].remaining/r; t < next {
					next = t
				}
			}
		}
		if top, ok := m.heap.top(); ok && top.t < next {
			next = top.t
		}
		if math.IsInf(next, 1) {
			// Quiescent. With the watchdog on, give it one more beat to
			// name the culprits — unless the beat just ran and found
			// none, in which case this is a genuine deadlock.
			if m.wdH <= 0 || beatBarren {
				return nil, deadlockError(m.now, m.completed, total, m.hungPending())
			}
		}
		if m.wdH > 0 && m.nextBeat < next {
			next = m.nextBeat
		}
		if next < m.now {
			next = m.now
		}

		// Advance time, draining transfers.
		dt := next - m.now
		for _, ch := range m.chans {
			m.nodes[ch.nid].remaining -= m.rates[ch.nid] * dt
		}
		for _, ch := range m.direct {
			m.nodes[ch.nid].remaining -= m.rates[ch.nid] * dt
		}
		m.now = next

		// Pop everything due, staging completions; a due setup deadline
		// moves its transfer into the water-filling set, and a due fault
		// entry is consumed by fire() at the next loop top.
		m.dueCompute = m.dueCompute[:0]
		m.dueBarriers = m.dueBarriers[:0]
		for {
			top, ok := m.heap.top()
			if !ok || top.t > m.now+eps {
				break
			}
			m.heap.pop()
			switch top.kind {
			case evSetup:
				m.joinBus(top.id)
			case evCompute:
				m.dueCompute = append(m.dueCompute, top.id)
			case evBarrier:
				m.dueBarriers = append(m.dueBarriers, top.id)
			}
		}

		// Complete everything due, in the reference's order: transfers
		// (bus set then direct set), compute by core, barriers by
		// placement.
		if cf := m.completeDMA(); cf != nil {
			return nil, cf
		}
		insertionSortByKey(m.dueCompute, func(id int32) int32 { return m.coreOf[id] })
		for _, nid := range m.dueCompute {
			if !m.nodes[nid].done {
				m.finishNode(int(nid), m.now)
			}
		}
		insertionSortByKey(m.dueBarriers, func(id int32) int32 { return id })
		for _, fb := range m.dueBarriers {
			b := &m.bars[fb]
			for _, nid := range m.barNodes[b.arrStart : b.arrStart+b.nlocal] {
				if nid >= 0 && !m.nodes[nid].done {
					m.finishNode(int(nid), m.now)
				}
			}
		}
	}

	m.stats.TotalCycles = m.now
	for c := 0; c < ncores; c++ {
		m.stats.PerCore[c].Idle = m.stats.TotalCycles - mergedLength(m.busyIv[c])
	}
	if h := m.cfg.Hook; h != nil {
		// Close the bus series: the last rebuild's allocation ends here
		// (the final transfer's completion need not trigger a rebuild).
		h.OnBus(BusSample{At: m.now})
	}
	return &Result{Stats: m.stats, Corruptions: m.corrupt}, nil
}

func (m *machine) pushReady(ei int32) {
	if !m.readyFlag[ei] {
		m.readyFlag[ei] = true
		m.readyStack = append(m.readyStack, ei)
	}
}

// issueReady starts every instruction that can start at time now: the
// queue heads of engines flagged ready (freed, or head unblocked).
// Issuing never satisfies another node's dependencies, so one pass over
// the flagged engines reaches the reference's issueAll fixpoint.
func (m *machine) issueReady() {
	for len(m.readyStack) > 0 {
		ei := m.readyStack[len(m.readyStack)-1]
		m.readyStack = m.readyStack[:len(m.readyStack)-1]
		m.readyFlag[ei] = false
		if m.busyN[ei] >= 0 || m.qPos[ei] >= m.qOff[ei+1] {
			continue
		}
		if m.fs != nil && m.fs.hung[int(ei)/numEngines] {
			continue // silently stalled: nothing issues until the resume
		}
		nid := m.qBuf[m.qPos[ei]]
		n := &m.nodes[nid]
		if n.deps > 0 {
			continue
		}
		// Issue.
		m.qPos[ei]++
		n.started = true
		n.start = m.now
		c := int(ei) / numEngines
		if b := m.spmBuf[nid]; b > 0 {
			m.spmLive[c] += b
			m.spmGrew = true
			st := &m.stats.PerCore[c]
			st.SPMBuffers++
			if m.spmLive[c] > st.SPMPeakBytes {
				st.SPMPeakBytes, st.SPMPeakAtCycle = m.spmLive[c], m.now
			}
		}
		m.busyN[ei] = nid
		switch plan.Engine(n.eng) {
		case plan.EngineCompute:
			n.finish = m.now + n.remaining/m.speedOf(c)
			m.heap.update(evCompute, nid, n.finish)
		case plan.EngineLoad, plan.EngineStore:
			n.remaining = float64(n.size)
			n.setupUntil = m.now + float64(m.a.DMASetupCycles)
			if n.setupUntil > m.now+eps {
				m.heap.update(evSetup, nid, n.setupUntil)
			} else {
				m.joinBus(nid)
			}
		case plan.EngineSync:
			fb := m.barOff[m.progOf[nid]] + n.barrier
			b := &m.bars[fb]
			m.barNodes[b.arrStart+m.localIndex[c]] = nid
			if m.now > b.maxArr {
				b.maxArr = m.now
			}
			b.arrived++
			if b.arrived == b.nlocal {
				b.finish = b.maxArr + float64(m.a.SyncCost(int(b.nlocal))) +
					jitter(int(n.barrier), m.a.SyncJitterCycles)
				b.released = true
				m.heap.update(evBarrier, fb, b.finish)
			}
		}
	}
}

// dmaSlot returns the bus slot of a DMA node: 2c for core c's load
// engine, 2c+1 for its store engine.
func (m *machine) dmaSlot(nid int32) int {
	s := 2 * int(m.coreOf[nid])
	if plan.Engine(m.nodes[nid].eng) == plan.EngineStore {
		s++
	}
	return s
}

// slotNode returns the node in flight on slot s's engine.
func (m *machine) slotNode(s int) int32 {
	e := plan.EngineLoad
	if s%2 == 1 {
		e = plan.EngineStore
	}
	return m.busyN[s/2*numEngines+int(e)]
}

// slotChannel returns the transfer in slot s with its core's current
// DMA capacity.
func (m *machine) slotChannel(s int) echannel {
	c := s / 2
	return echannel{nid: m.slotNode(s), slot: int32(s), cap: m.a.Cores[c].DMABytesPerCycle * m.speedOf(c)}
}

// joinBus moves DMA node nid, its setup over, into the bus set (or the
// direct set, for halo traffic on a dedicated interconnect). A zero
// retry backoff rejoins a dropped transfer before its setup event
// pops, so joining twice is a no-op apart from the rebuild.
func (m *machine) joinBus(nid int32) {
	m.dirty = true
	s := m.dmaSlot(nid)
	if m.member[s] != slotIdle {
		return
	}
	op := plan.OpCode(m.nodes[nid].op)
	if m.a.DirectHaloInterconnect && (op == plan.StoreHalo || op == plan.LoadHalo) {
		m.member[s] = slotDirect
		m.ndirect++
		return
	}
	m.member[s] = slotBus
	m.busMask |= 1 << s
}

// leaveBus takes DMA node nid out of its set (finished or dropped) and
// zeroes its rate so a later membership never reuses it.
func (m *machine) leaveBus(nid int32) {
	m.dirty = true
	m.rates[nid] = 0
	s := m.dmaSlot(nid)
	if m.member[s] == slotDirect {
		m.ndirect--
	}
	m.member[s] = slotIdle
	m.busMask &^= 1 << s
}

// rebuildChannels regathers the in-flight DMA sets and their max-min
// fair rates. Called only when membership or core speeds changed;
// between calls the cached rates stay exact because water-filling is a
// pure function of (ordered membership, caps, bus ceiling).
func (m *machine) rebuildChannels() {
	m.direct = m.direct[:0]
	if m.ndirect > 0 {
		for s, k := range m.member {
			if k == slotDirect {
				m.direct = append(m.direct, m.slotChannel(s))
			}
		}
		// Dedicated link: full engine rate, no bus contention.
		for _, ch := range m.direct {
			m.rates[ch.nid] = ch.cap
		}
	}
	m.chans = m.chans[:0]
	nslots := len(m.member)
	if m.busMask < uint64(len(m.busSolved)) && m.busSolved[m.busMask] {
		row := int(m.busMask) * nslots
		for _, f := range m.busFill[row : row+bits.OnesCount64(m.busMask)] {
			nid := m.slotNode(int(f.slot))
			m.chans = append(m.chans, echannel{nid: nid, slot: f.slot, cap: f.cap})
			m.rates[nid] = f.rate
		}
		m.sampleBus()
		return
	}
	for s, k := range m.member {
		if k == slotBus {
			m.chans = append(m.chans, m.slotChannel(s))
		}
	}
	// Max-min fair water-filling under the bus ceiling, lowest-capacity
	// channels first (see file comment on tie order).
	if len(m.chans) <= pdqInsertionMax {
		for i := 1; i < len(m.chans); i++ {
			for j := i; j > 0 && m.chans[j].cap < m.chans[j-1].cap; j-- {
				m.chans[j], m.chans[j-1] = m.chans[j-1], m.chans[j]
			}
		}
	} else {
		slices.SortFunc(m.chans, func(x, y echannel) int { return cmp.Compare(x.cap, y.cap) })
	}
	remainingBW := m.a.BusBytesPerCycle
	for i, ch := range m.chans {
		share := remainingBW / float64(len(m.chans)-i)
		r := math.Min(ch.cap, share)
		m.rates[ch.nid] = r
		remainingBW -= r
	}
	if m.busMask < uint64(len(m.busSolved)) {
		m.busSolved[m.busMask] = true
		row := m.busFill[int(m.busMask)*nslots:]
		for i, ch := range m.chans {
			row[i] = busFill{slot: ch.slot, cap: ch.cap, rate: m.rates[ch.nid]}
		}
	}
	m.sampleBus()
}

// sampleBus reports the allocation just built to the hook, if any.
func (m *machine) sampleBus() {
	h := m.cfg.Hook
	if h == nil {
		return
	}
	s := BusSample{At: m.now, Channels: len(m.chans), DirectChannels: len(m.direct)}
	for _, ch := range m.chans {
		s.Demand += ch.cap
		s.Granted += m.rates[ch.nid]
	}
	for _, ch := range m.direct {
		s.DirectGranted += m.rates[ch.nid]
	}
	h.OnBus(s)
}

// completeDMA finishes (or drops) every in-flight transfer whose bytes
// ran out, walking the bus set then the direct set — the order the
// reference iterates its allocate() result in.
func (m *machine) completeDMA() *CoreFailure {
	nbus := len(m.chans)
	for i := 0; i < nbus+len(m.direct); i++ {
		var nid int32
		if i < nbus {
			nid = m.chans[i].nid
		} else {
			nid = m.direct[i-nbus].nid
		}
		n := &m.nodes[nid]
		if n.remaining > eps || n.done {
			continue
		}
		// An injected drop fails the transfer after it moved its bytes:
		// the bandwidth was spent, the data must be re-sent after an
		// exponential backoff.
		if m.fs != nil && m.fs.plan.Drops(int(nid), int(n.attempt)) {
			n.attempt++
			m.stats.PerCore[m.coreOf[nid]].Retries++
			if int(n.attempt) > m.fs.maxRetries {
				return m.failCore(FailDMAExhausted, int(m.coreOf[nid]))
			}
			n.remaining = float64(n.size)
			n.setupUntil = m.now + fault.BackoffCycles(m.a.DMASetupCycles, int(n.attempt))
			m.leaveBus(nid)
			m.heap.update(evSetup, nid, n.setupUntil)
			if n.setupUntil <= m.now+eps {
				m.joinBus(nid) // no backoff left to wait out
			}
			continue
		}
		// A silent bit-flip corrupts the delivered bytes without any
		// signal; the stratum-boundary checksum catches it later.
		if m.flipOn && m.fs.plan.Flips(int(nid), int(n.attempt)) {
			n.flipped = true
		}
		m.finishNode(int(nid), m.now)
	}
	return nil
}

// finishNode retires one instruction at time t: stats, hook, busy
// intervals, engine release, and dependency-count decrements that feed
// the ready list.
func (m *machine) finishNode(nid int, t float64) {
	n := &m.nodes[nid]
	n.done = true
	m.completed++
	c := int(m.coreOf[nid])
	pi := int(m.progOf[nid])
	st := &m.stats.PerCore[c]
	dur := t - n.start
	eng := plan.Engine(n.eng)
	switch eng {
	case plan.EngineCompute:
		st.ComputeBusy += dur
		st.MACs += n.size
	case plan.EngineLoad:
		st.LoadBusy += dur
		st.BytesLoaded += n.size
	case plan.EngineStore:
		st.StoreBusy += dur
		st.BytesStored += n.size
	case plan.EngineSync:
		st.SyncWait += dur
	}
	if t > st.Finish {
		st.Finish = t
	}
	if t > m.stats.ProgramCycles[pi] {
		m.stats.ProgramCycles[pi] = t
	}
	if m.fs != nil {
		m.layerDone[int(m.layerOff[pi])+int(n.layer)]++
		m.pending[c]--
	}
	if m.flipOn {
		if si := m.layerStr[int(m.layerOff[pi])+int(n.layer)]; si >= 0 {
			g := int(m.strOff[pi]) + int(si)
			if n.flipped {
				m.strFlips[g]++
			}
			m.strLeft[g]--
			// Stratum complete: verify its boundary checksum. Any
			// corrupted transfer inside it is detected here, bounding
			// the re-execution blast radius to this stratum.
			if m.strLeft[g] == 0 && m.strFlips[g] > 0 {
				m.corrupt = append(m.corrupt, Corruption{
					Placement: pi, Stratum: int(si),
					DetectedAtCycle: t, Transfers: int(m.strFlips[g]),
				})
			}
		}
	}
	m.appendBusy(c, n.start, t)
	if h := m.cfg.Hook; h != nil {
		in := m.instr(nid)
		h.OnInstr(Event{
			Placement: pi, Core: c, Index: int(m.indexOf[nid]),
			Op: in.Op, Layer: in.Layer, Tile: in.Tile, Start: n.start, End: t,
			Bytes: in.Bytes, MACs: in.MACs, Retries: int(n.attempt), Note: in.Note,
		})
	}
	// The node's own buffer dies now if no reader is outstanding; the
	// buffers it read die if this was their last reader and the owner
	// already finished.
	if m.spmBuf[nid] > 0 && m.spmReaders[nid] == 0 {
		m.spmLive[c] -= m.spmBuf[nid]
		m.spmBuf[nid] = 0
	}
	for _, dn := range m.reads[m.readOff[nid]:m.readOff[nid+1]] {
		m.spmReaders[dn]--
		if m.spmReaders[dn] == 0 && m.nodes[dn].done {
			m.spmLive[m.coreOf[dn]] -= m.spmBuf[dn]
			m.spmBuf[dn] = 0
		}
	}
	ei := c*numEngines + int(eng)
	if m.busyN[ei] == int32(nid) {
		m.busyN[ei] = -1
		if eng == plan.EngineLoad || eng == plan.EngineStore {
			m.leaveBus(int32(nid))
		}
		m.pushReady(int32(ei))
	}
	for _, d := range m.depEdges[m.depOff[nid]:m.depOff[nid+1]] {
		dn := &m.nodes[d]
		dn.deps--
		if dn.deps == 0 {
			dei := int(m.coreOf[d])*numEngines + int(dn.eng)
			// Wake the engine only if this node is its issuable head.
			if m.busyN[dei] < 0 && m.qPos[dei] < m.qOff[dei+1] && m.qBuf[m.qPos[dei]] == d {
				m.pushReady(int32(dei))
			}
		}
	}
}

// appendBusy records a finished instruction's interval, merging on
// append. Ends arrive in non-decreasing order, so overlap can only be
// with the tail of the merged list.
func (m *machine) appendBusy(c int, s, e float64) {
	iv := m.busyIv[c]
	for len(iv) > 0 && s <= iv[len(iv)-1][1] {
		last := iv[len(iv)-1]
		if last[0] < s {
			s = last[0]
		}
		if last[1] > e {
			e = last[1]
		}
		iv = iv[:len(iv)-1]
	}
	m.busyIv[c] = append(iv, [2]float64{s, e})
}

// mergedLength sums a merged interval list, left to right — the same
// accumulation order unionLength uses after sorting, so the result is
// bit-identical.
func mergedLength(iv [][2]float64) float64 {
	total := 0.0
	for _, x := range iv {
		total += x[1] - x[0]
	}
	return total
}

// syncFaultEvent re-keys the heap's fault entry to the next pending
// firing (or removes it when the plan is exhausted).
func (m *machine) syncFaultEvent() {
	t := m.fs.next()
	if math.IsInf(t, 1) {
		m.heap.remove(evFault, 0)
		return
	}
	m.heap.update(evFault, 0, t)
}

// partialStats snapshots the statistics accumulated so far, with idle
// time recomputed up to the current cycle.
func (m *machine) partialStats() Stats {
	partial := m.stats
	partial.PerCore = append([]CoreStats(nil), m.stats.PerCore...)
	partial.ProgramCycles = append([]float64(nil), m.stats.ProgramCycles...)
	partial.TotalCycles = m.now
	for c := 0; c < m.ncores; c++ {
		idle := m.now - mergedLength(m.busyIv[c])
		if idle < 0 {
			idle = 0
		}
		partial.PerCore[c].Idle = idle
	}
	return partial
}

// checkpointOf computes the recovery cut for placement pi (-1 or an
// unassigned core yields nil).
func (m *machine) checkpointOf(pi int) []graph.LayerID {
	if pi < 0 {
		return nil
	}
	lo, hi := m.layerOff[pi], m.layerOff[pi+1]
	return checkpoint(m.placements[pi].Program, m.layerDone[lo:hi], m.layerTotal[lo:hi], m.layerStore[lo:hi])
}

// inFlight returns the earliest element of placement pi's stream that
// has not retired every instruction (pi outside a stream). It reads the
// layer accounting, so it serves fault runs only.
func (m *machine) inFlight(pi int) int {
	for q := pi; q >= 0 && len(m.after) > 0; q = int(m.after[q]) {
		lo, hi := m.layerOff[q], m.layerOff[q+1]
		if !slices.Equal(m.layerDone[lo:hi], m.layerTotal[lo:hi]) {
			pi = q
		}
	}
	return pi
}

// linkStreams counts the join edges of every stream into depOff and the
// heads' dependency counts, and lists them in joins for pass 2 to fill.
// A placement's first node on each engine of each of its cores waits on
// its predecessor's last node on each: an engine retires its queue in
// order, so once those tails retire, the predecessor has retired
// everything.
func (m *machine) linkStreams() {
	m.joins = m.joins[:0]
	for pi, q := range m.after {
		if q < 0 {
			continue
		}
		m.ends = m.streamEnds(m.ends[:0], int(q), true)
		nt := len(m.ends)
		m.ends = m.streamEnds(m.ends, pi, false)
		for _, t := range m.ends[:nt] {
			for _, h := range m.ends[nt:] {
				m.joins = append(m.joins, t, h)
				m.depOff[t+1]++
				m.nodes[h].deps++
			}
		}
	}
}

// streamEnds appends placement pi's first node (last, with last set) on
// each engine of each of its cores.
func (m *machine) streamEnds(out []int32, pi int, last bool) []int32 {
	for lc, stream := range m.placements[pi].Program.Cores {
		b := m.baseFlat[int(m.streamStart[pi])+lc]
		var seen [numEngines]bool
		for i := range stream {
			if last {
				i = len(stream) - 1 - i
			}
			if e := stream[i].Op.Engine(); !seen[e] {
				seen[e] = true
				out = append(out, b+int32(i))
			}
		}
	}
	return out
}

// failCore snapshots the run state into a typed CoreFailure.
func (m *machine) failCore(kind FailureKind, core int) *CoreFailure {
	pi := m.inFlight(int(m.owner[core]))
	return &CoreFailure{
		Kind: kind, Core: core, Placement: pi, AtCycle: m.now,
		Completed: m.checkpointOf(pi), Partial: m.partialStats(),
	}
}

// scanStalled gathers, into m.wdCulprits, every core that owes
// instructions yet shows no sign of forward progress at this beat:
// a busy compute engine that will never finish, a post-setup DMA
// moving zero bytes, or an idle engine whose issuable queue head was
// skipped by issue. None of these states occur on a healthy core at
// beat time (issue has already run), so the scan cannot false-positive
// on cores that are merely waiting for dependencies or barriers.
func (m *machine) scanStalled() {
	m.wdCulprits = m.wdCulprits[:0]
	for c := 0; c < m.ncores; c++ {
		if m.pending[c] <= 0 {
			continue
		}
		if m.coreStalled(c) {
			m.wdCulprits = append(m.wdCulprits, c)
		}
	}
}

func (m *machine) coreStalled(c int) bool {
	for e := 0; e < numEngines; e++ {
		ei := c*numEngines + e
		if nid := m.busyN[ei]; nid >= 0 {
			n := &m.nodes[nid]
			switch plan.Engine(e) {
			case plan.EngineCompute:
				if math.IsInf(n.finish, 1) {
					return true
				}
			case plan.EngineLoad, plan.EngineStore:
				if n.setupUntil <= m.now+eps && m.speedOf(c) == 0 {
					return true
				}
			}
			continue
		}
		if m.qPos[ei] < m.qOff[ei+1] && m.nodes[m.qBuf[m.qPos[ei]]].deps == 0 {
			return true
		}
	}
	return false
}

// hangDetected snapshots the run state into a typed HangDetected for
// the culprits found by scanStalled.
func (m *machine) hangDetected() *HangDetected {
	pi := m.inFlight(int(m.owner[m.wdCulprits[0]]))
	return &HangDetected{
		Cores: append([]int(nil), m.wdCulprits...), Placement: pi, AtCycle: m.now,
		Completed: m.checkpointOf(pi), Partial: m.partialStats(),
	}
}

// hungPending lists cores that are hung while still owing
// instructions, for the deadlock diagnostic.
func (m *machine) hungPending() []int {
	if m.fs == nil {
		return nil
	}
	var out []int
	for c := 0; c < m.ncores; c++ {
		if m.fs.hung[c] && m.pending[c] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// insertionSortByKey sorts the few due events of one step into the
// reference's processing order without allocating.
func insertionSortByKey(s []int32, key func(int32) int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && key(s[j]) < key(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// resize returns a zeroed slice of length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeFill returns a slice of length n filled with v, reusing
// capacity.
func resizeFill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
