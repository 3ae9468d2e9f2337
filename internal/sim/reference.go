package sim

import (
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/plan"
)

// This file preserves the original step-scanning simulator verbatim as
// the reference implementation. The event-driven engine (engine.go)
// must reproduce it bit for bit — cycle counts, per-core stats, hook
// instruction events, and fault behavior — which the equivalence tests
// enforce by DeepEqual-ing both engines across every benchmark model
// and fault plan. Keep this code boring and unoptimized: it is the
// oracle.

// node is the runtime state of one instruction (reference engine).
type node struct {
	in         plan.Instr
	deps       int // unsatisfied dependency count
	done       bool
	started    bool
	start      float64
	remaining  float64 // bytes left (DMA) — unused for compute/barrier
	setupUntil float64 // DMA descriptor setup completes at this time
	finish     float64 // scheduled completion (compute/barrier)
	attempt    int     // DMA re-issues so far (fault injection)
}

type engineState struct {
	queue []int // global node ids in program order
	pos   int   // next to issue
	busy  int   // active node id, -1 if none
}

// barrier tracks a rendezvous (reference engine).
type barrier struct {
	arrived  int
	arrival  []float64 // per core arrival time, NaN until arrived
	released bool
	finish   float64
	nodes    []int // node ids, per core
}

// RunReference simulates p with the retained pre-event-engine
// implementation. Production callers should use Run; this entry point
// exists for golden equivalence tests and A/B benchmarking.
func RunReference(p *plan.Program, cfg Config) (*Result, error) {
	return RunConcurrentReference(p.Arch, Whole(p), cfg)
}

// RunConcurrentReference is the reference-engine counterpart of
// RunConcurrent. See RunReference.
func RunConcurrentReference(a *arch.Arch, placements []Placement, cfg Config) (*Result, error) {
	model := cost.New(a)
	ncores := a.NumCores()

	owner := make([]int32, ncores)
	for i := range owner {
		owner[i] = -1
	}
	after, err := placementOwners(placements, owner, nil)
	if err != nil {
		return nil, err
	}

	fs, err := newFaultState(cfg.Faults, owner)
	if err != nil {
		return nil, err
	}
	speedOf := func(c int) float64 {
		if fs == nil {
			return 1
		}
		return fs.speed[c]
	}

	// Global node numbering across placements and their cores.
	type streamKey struct{ pi, localCore int }
	base := map[streamKey]int{}
	total := 0
	for pi, pl := range placements {
		for lc := range pl.Program.Cores {
			base[streamKey{pi, lc}] = total
			total += len(pl.Program.Cores[lc])
		}
	}
	nodes := make([]node, total)
	left := make([]int, len(placements)) // instructions not yet retired
	dependents := make([][]int32, total)
	coreOf := make([]int, total)  // global core
	progOf := make([]int, total)  // placement index
	indexOf := make([]int, total) // position within the core-local stream

	engines := make([][]engineState, ncores)
	for c := 0; c < ncores; c++ {
		engines[c] = make([]engineState, 4)
		for e := range engines[c] {
			engines[c][e].busy = -1
		}
	}

	barriers := make([][]*barrier, len(placements))
	for pi, pl := range placements {
		nlocal := len(pl.Cores)
		id := func(r plan.Ref) int { return base[streamKey{pi, r.Core}] + r.Index }
		for lc, stream := range pl.Program.Cores {
			gcore := pl.Cores[lc]
			for i, in := range stream {
				n := base[streamKey{pi, lc}] + i
				nodes[n] = node{in: in, deps: len(in.Deps)}
				coreOf[n] = gcore
				progOf[n] = pi
				indexOf[n] = i
				left[pi]++
				for _, d := range in.Deps {
					dependents[id(d)] = append(dependents[id(d)], int32(n))
				}
				engines[gcore][in.Op.Engine()].queue = append(engines[gcore][in.Op.Engine()].queue, n)
			}
		}
		barriers[pi] = make([]*barrier, pl.Program.NumBarriers)
		for i := range barriers[pi] {
			barriers[pi][i] = &barrier{arrival: make([]float64, nlocal), nodes: make([]int, nlocal)}
			for c := range barriers[pi][i].arrival {
				barriers[pi][i].arrival[c] = math.NaN()
				barriers[pi][i].nodes[c] = -1
			}
		}
	}

	// Per-placement layer accounting for checkpoint recovery and the
	// checksum pass: how many instructions each layer owes vs. has
	// completed, whether any of them publishes the layer's output to
	// global memory, and when the layer retired its last instruction.
	var layerDone, layerTotal [][]int
	var layerStore [][]bool
	var layerEnd [][]float64
	pending := make([]int, ncores)
	if fs != nil {
		layerDone = make([][]int, len(placements))
		layerTotal = make([][]int, len(placements))
		layerStore = make([][]bool, len(placements))
		layerEnd = make([][]float64, len(placements))
		for pi, pl := range placements {
			nl := pl.Program.Graph.Len()
			layerDone[pi] = make([]int, nl)
			layerTotal[pi] = make([]int, nl)
			layerStore[pi] = make([]bool, nl)
			layerEnd[pi] = make([]float64, nl)
			for _, stream := range pl.Program.Cores {
				for _, in := range stream {
					layerTotal[pi][in.Layer]++
					// Only plan.Store reaches global memory; halo stores land
					// in a peer's SPM and die with it.
					if in.Op == plan.Store {
						layerStore[pi][in.Layer] = true
					}
				}
			}
		}
		for nid := 0; nid < total; nid++ {
			pending[coreOf[nid]]++
		}
	}

	// Watchdog heartbeat (see Config.WatchdogCycles): armed only when
	// the plan hangs an occupied core.
	wdH := 0.0
	if cfg.WatchdogCycles > 0 && fs != nil && fs.hangs {
		wdH = cfg.WatchdogCycles
	}
	nextBeat := wdH

	// SPM admission state, mirroring the event engine (spmcheck.go):
	// owner bytes per node, reader counts filtered to genuine data
	// reads, and per-core live totals.
	spmBuf := make([]int64, total)
	spmReaders := make([]int32, total)
	spmLive := make([]int64, ncores)
	for n := range nodes {
		spmBuf[n] = spmOwnedBytes(&nodes[n].in)
	}
	for d := range nodes {
		if spmBuf[d] <= 0 {
			continue
		}
		for _, n := range dependents[d] {
			if spmReads(nodes[d].in.Op, nodes[n].in.Op) {
				spmReaders[d]++
			}
		}
	}

	totalBarriers := 0
	for _, bs := range barriers {
		totalBarriers += len(bs)
	}
	stats := Stats{
		PerCore:       make([]CoreStats, ncores),
		Barriers:      totalBarriers,
		ProgramCycles: make([]float64, len(placements)),
	}
	busyIntervals := make([][][2]float64, ncores)

	// localIndex maps a global core back to its placement-local index.
	localIndex := make([]int, ncores)
	for i := range localIndex {
		localIndex[i] = -1
	}
	for _, pl := range placements {
		for lc, c := range pl.Cores {
			localIndex[c] = lc
		}
	}

	// A stream element issues nothing until the one before it has retired
	// every instruction; on a failure, the element in flight is the
	// earliest one that has not.
	gated := func(pi int) bool {
		return len(after) > 0 && after[pi] >= 0 && left[after[pi]] > 0
	}
	inFlight := func(pi int) int {
		for q := pi; len(after) > 0 && q >= 0; q = int(after[q]) {
			if left[q] > 0 {
				pi = q
			}
		}
		return pi
	}

	now := 0.0
	completed := 0

	finishNode := func(nid int, t float64) {
		n := &nodes[nid]
		n.done = true
		completed++
		left[progOf[nid]]--
		c := coreOf[nid]
		st := &stats.PerCore[c]
		dur := t - n.start
		switch n.in.Op.Engine() {
		case plan.EngineCompute:
			st.ComputeBusy += dur
			st.MACs += n.in.MACs
		case plan.EngineLoad:
			st.LoadBusy += dur
			st.BytesLoaded += n.in.Bytes
		case plan.EngineStore:
			st.StoreBusy += dur
			st.BytesStored += n.in.Bytes
		case plan.EngineSync:
			st.SyncWait += dur
		}
		if t > st.Finish {
			st.Finish = t
		}
		if t > stats.ProgramCycles[progOf[nid]] {
			stats.ProgramCycles[progOf[nid]] = t
		}
		if fs != nil {
			layerDone[progOf[nid]][n.in.Layer]++
			layerEnd[progOf[nid]][n.in.Layer] = t
			pending[c]--
		}
		busyIntervals[c] = append(busyIntervals[c], [2]float64{n.start, t})
		if cfg.Hook != nil {
			cfg.Hook.OnInstr(Event{
				Placement: progOf[nid], Core: c, Index: indexOf[nid],
				Op: n.in.Op, Layer: n.in.Layer, Tile: n.in.Tile, Start: n.start, End: t,
				Bytes: n.in.Bytes, MACs: n.in.MACs, Retries: n.attempt, Note: n.in.Note,
			})
		}
		// The node's own buffer dies now if no reader is outstanding;
		// its deps' buffers die if this was their last reader and the
		// owner already finished.
		if spmBuf[nid] > 0 && spmReaders[nid] == 0 {
			spmLive[c] -= spmBuf[nid]
			spmBuf[nid] = 0
		}
		for _, d := range n.in.Deps {
			dn := base[streamKey{progOf[nid], d.Core}] + d.Index
			if spmBuf[dn] > 0 && spmReads(nodes[dn].in.Op, n.in.Op) {
				spmReaders[dn]--
				if spmReaders[dn] == 0 && nodes[dn].done {
					spmLive[coreOf[dn]] -= spmBuf[dn]
					spmBuf[dn] = 0
				}
			}
		}
		es := &engines[c][n.in.Op.Engine()]
		if es.busy == nid {
			es.busy = -1
		}
		for _, d := range dependents[nid] {
			nodes[d].deps--
		}
	}

	// issueAll starts every instruction that can start at time now.
	issueAll := func() {
		progress := true
		for progress {
			progress = false
			for c := 0; c < ncores; c++ {
				if fs != nil && fs.hung[c] {
					continue // silently stalled: nothing issues until the resume
				}
				for e := range engines[c] {
					es := &engines[c][e]
					if es.busy >= 0 || es.pos >= len(es.queue) {
						continue
					}
					nid := es.queue[es.pos]
					n := &nodes[nid]
					if n.deps > 0 || gated(progOf[nid]) {
						continue
					}
					// Issue.
					es.pos++
					n.started = true
					n.start = now
					if b := spmBuf[nid]; b > 0 {
						spmLive[c] += b
						stats.PerCore[c].SPMBuffers++
					}
					pi := progOf[nid]
					switch n.in.Op.Engine() {
					case plan.EngineCompute:
						dt := placements[pi].Program.Graph.Layer(n.in.Layer).DType
						n.finish = now + float64(model.ComputeCycles(c, n.in.MACs, dt))/speedOf(c)
						es.busy = nid
					case plan.EngineLoad, plan.EngineStore:
						n.remaining = float64(n.in.Bytes)
						n.setupUntil = now + float64(a.DMASetupCycles)
						es.busy = nid
					case plan.EngineSync:
						b := barriers[pi][n.in.BarrierID]
						lc := localIndex[c]
						b.arrival[lc] = now
						b.nodes[lc] = nid
						b.arrived++
						es.busy = nid
						if b.arrived == len(placements[pi].Cores) {
							maxArr := 0.0
							for _, arr := range b.arrival {
								if arr > maxArr {
									maxArr = arr
								}
							}
							b.finish = maxArr + float64(a.SyncCost(len(placements[pi].Cores))) +
								jitter(n.in.BarrierID, a.SyncJitterCycles)
							b.released = true
						}
					}
					progress = true
				}
			}
		}
	}

	// activeTransfers gathers in-flight DMA channels for bandwidth
	// allocation.
	type channel struct {
		nid int
		cap float64
	}
	rates := make([]float64, total)

	var pendingSetup []int
	allocate := func() []channel {
		var chans []channel  // bus-sharing DMA channels
		var direct []channel // dedicated-interconnect halo channels
		pendingSetup = pendingSetup[:0]
		for c := 0; c < ncores; c++ {
			for _, e := range []plan.Engine{plan.EngineLoad, plan.EngineStore} {
				nid := engines[c][e].busy
				if nid < 0 {
					continue
				}
				if nodes[nid].setupUntil > now+eps {
					pendingSetup = append(pendingSetup, nid)
					continue
				}
				ch := channel{nid: nid, cap: a.Cores[c].DMABytesPerCycle * speedOf(c)}
				op := nodes[nid].in.Op
				if a.DirectHaloInterconnect && (op == plan.StoreHalo || op == plan.LoadHalo) {
					direct = append(direct, ch)
					continue
				}
				chans = append(chans, ch)
			}
		}
		// Dedicated link: full engine rate, no bus contention.
		for _, ch := range direct {
			rates[ch.nid] = ch.cap
		}
		// Max-min fair water-filling under the bus ceiling.
		sort.Slice(chans, func(i, j int) bool { return chans[i].cap < chans[j].cap })
		remainingBW := a.BusBytesPerCycle
		for i, ch := range chans {
			share := remainingBW / float64(len(chans)-i)
			r := math.Min(ch.cap, share)
			rates[ch.nid] = r
			remainingBW -= r
		}
		return append(chans, direct...)
	}

	// partialStats snapshots the statistics accumulated so far, with
	// idle time recomputed up to the current cycle.
	partialStats := func() Stats {
		partial := stats
		partial.PerCore = append([]CoreStats(nil), stats.PerCore...)
		partial.ProgramCycles = append([]float64(nil), stats.ProgramCycles...)
		partial.TotalCycles = now
		for c := 0; c < ncores; c++ {
			idle := now - unionLength(busyIntervals[c])
			if idle < 0 {
				idle = 0
			}
			partial.PerCore[c].Idle = idle
		}
		return partial
	}

	checkpointOf := func(pi int) []graph.LayerID {
		if pi < 0 {
			return nil
		}
		return checkpoint(placements[pi].Program, layerDone[pi], layerTotal[pi], layerStore[pi])
	}

	// failCore snapshots the run state into a typed CoreFailure.
	failCore := func(kind FailureKind, core int) *CoreFailure {
		pi := inFlight(int(owner[core]))
		return &CoreFailure{
			Kind: kind, Core: core, Placement: pi, AtCycle: now,
			Completed: checkpointOf(pi), Partial: partialStats(),
		}
	}

	// coreStalled mirrors the event engine's watchdog evidence scan:
	// a busy compute engine that will never finish, a post-setup DMA
	// moving zero bytes, or an idle engine whose issuable queue head
	// was skipped by issue. None of these occur on a healthy core
	// after issueAll has run.
	coreStalled := func(c int) bool {
		for e := range engines[c] {
			es := &engines[c][e]
			if nid := es.busy; nid >= 0 {
				n := &nodes[nid]
				switch plan.Engine(e) {
				case plan.EngineCompute:
					if math.IsInf(n.finish, 1) {
						return true
					}
				case plan.EngineLoad, plan.EngineStore:
					if n.setupUntil <= now+eps && speedOf(c) == 0 {
						return true
					}
				}
				continue
			}
			if es.pos < len(es.queue) && nodes[es.queue[es.pos]].deps == 0 && !gated(progOf[es.queue[es.pos]]) {
				return true
			}
		}
		return false
	}

	scanStalled := func() []int {
		var culprits []int
		for c := 0; c < ncores; c++ {
			if pending[c] <= 0 {
				continue
			}
			if coreStalled(c) {
				culprits = append(culprits, c)
			}
		}
		return culprits
	}

	hungPendingList := func() []int {
		if fs == nil {
			return nil
		}
		var out []int
		for c := 0; c < ncores; c++ {
			if fs.hung[c] && pending[c] > 0 {
				out = append(out, c)
			}
		}
		return out
	}

	for step := 0; completed < total; step++ {
		if err := canceled(cfg.Ctx, step, now, completed, total); err != nil {
			return nil, err
		}
		// Fault events due now fire before new work issues: a throttle
		// or silent slowdown rescales the core's in-flight compute; a
		// hang freezes the core entirely; a death fails the run if the
		// core still owes instructions (and is inert otherwise).
		if fs != nil {
			for _, ev := range fs.fire(now) {
				switch ev.kind {
				case fault.KindDeath:
					if owner[ev.core] >= 0 && pending[ev.core] > 0 {
						return nil, failCore(FailCoreDeath, ev.core)
					}
				case fault.KindHang:
					// Freeze in-flight compute: bank the unit-speed work
					// left and park the node until the resume (if any).
					// In-flight DMA freezes through allocate() (zero
					// capacity, zero water-filled rate), and issueAll
					// skips the core while it is hung.
					if nid := engines[ev.core][plan.EngineCompute].busy; nid >= 0 {
						n := &nodes[nid]
						if n.finish > now && ev.oldSpeed > 0 {
							n.remaining = (n.finish - now) * ev.oldSpeed
							n.finish = math.Inf(1)
						}
					}
				case fault.KindResume:
					if nid := engines[ev.core][plan.EngineCompute].busy; nid >= 0 {
						n := &nodes[nid]
						if math.IsInf(n.finish, 1) && ev.newSpeed > 0 {
							n.finish = now + n.remaining/ev.newSpeed
						}
					}
				default: // announced throttle or silent slowdown
					if nid := engines[ev.core][plan.EngineCompute].busy; nid >= 0 {
						n := &nodes[nid]
						if n.finish > now && ev.oldSpeed > 0 && ev.newSpeed > 0 {
							n.finish = now + (n.finish-now)*ev.oldSpeed/ev.newSpeed
						}
					}
				}
			}
		}

		issueAll()

		for c := 0; c < ncores; c++ {
			if st := &stats.PerCore[c]; spmLive[c] > st.SPMPeakBytes {
				st.SPMPeakBytes, st.SPMPeakAtCycle = spmLive[c], now
			}
			if spmLive[c] <= a.Cores[c].SPMBytes {
				continue
			}
			serr := &SPMOverflowError{
				Core: c, Cycle: now,
				LiveBytes: spmLive[c], CapacityBytes: a.Cores[c].SPMBytes,
			}
			for n := 0; n < total; n++ {
				if coreOf[n] != c || spmBuf[n] <= 0 || !nodes[n].started {
					continue
				}
				serr.Buffers = append(serr.Buffers, SPMBuffer{
					Core: c, Index: indexOf[n],
					Op: nodes[n].in.Op, Bytes: spmBuf[n], Note: nodes[n].in.Note,
				})
			}
			return nil, serr
		}

		// Watchdog beat: after issue (so an idle engine with an
		// issuable head is genuine stall evidence).
		beatBarren := false
		if wdH > 0 && now >= nextBeat-eps {
			if culprits := scanStalled(); len(culprits) > 0 {
				pi := inFlight(int(owner[culprits[0]]))
				return nil, &HangDetected{
					Cores: culprits, Placement: pi, AtCycle: now,
					Completed: checkpointOf(pi), Partial: partialStats(),
				}
			}
			beatBarren = true
			for nextBeat <= now+eps {
				nextBeat += wdH
			}
		}

		chans := allocate()

		// Earliest next completion.
		next := math.Inf(1)
		for _, ch := range chans {
			if r := rates[ch.nid]; r > 0 {
				if t := now + nodes[ch.nid].remaining/r; t < next {
					next = t
				}
			}
		}
		for _, nid := range pendingSetup {
			if t := nodes[nid].setupUntil; t < next {
				next = t
			}
		}
		for c := 0; c < ncores; c++ {
			if nid := engines[c][plan.EngineCompute].busy; nid >= 0 {
				if nodes[nid].finish < next {
					next = nodes[nid].finish
				}
			}
		}
		for _, bs := range barriers {
			for _, b := range bs {
				if b.released && !nodes[b.nodes[0]].done && b.finish < next {
					next = b.finish
				}
			}
		}
		if fs != nil {
			if t := fs.next(); t > now && t < next {
				next = t
			}
		}
		if math.IsInf(next, 1) {
			// Quiescent. With the watchdog on, give it one more beat to
			// name the culprits — unless the beat just ran and found
			// none, in which case this is a genuine deadlock.
			if wdH <= 0 || beatBarren {
				return nil, deadlockError(now, completed, total, hungPendingList())
			}
		}
		if wdH > 0 && nextBeat < next {
			next = nextBeat
		}
		if next < now {
			next = now
		}

		// Advance time, draining transfers.
		dt := next - now
		for _, ch := range chans {
			nodes[ch.nid].remaining -= rates[ch.nid] * dt
		}
		now = next

		// Complete everything due.
		for _, ch := range chans {
			n := &nodes[ch.nid]
			if n.remaining > eps || n.done {
				continue
			}
			// An injected drop fails the transfer after it moved its
			// bytes: the bandwidth was spent, the data must be re-sent
			// after an exponential backoff.
			if fs != nil && fs.plan.Drops(ch.nid, n.attempt) {
				n.attempt++
				stats.PerCore[coreOf[ch.nid]].Retries++
				if n.attempt > fs.maxRetries {
					return nil, failCore(FailDMAExhausted, coreOf[ch.nid])
				}
				n.remaining = float64(n.in.Bytes)
				n.setupUntil = now + fault.BackoffCycles(a.DMASetupCycles, n.attempt)
				continue
			}
			finishNode(ch.nid, now)
		}
		for c := 0; c < ncores; c++ {
			if nid := engines[c][plan.EngineCompute].busy; nid >= 0 {
				if nodes[nid].finish <= now+eps && !nodes[nid].done {
					finishNode(nid, now)
				}
			}
		}
		for _, bs := range barriers {
			for _, b := range bs {
				if b.released && b.finish <= now+eps {
					for _, nid := range b.nodes {
						if nid >= 0 && !nodes[nid].done {
							finishNode(nid, now)
						}
					}
				}
			}
		}
	}

	stats.TotalCycles = now
	for c := 0; c < ncores; c++ {
		stats.PerCore[c].Idle = stats.TotalCycles - unionLength(busyIntervals[c])
	}
	var corrupts []Corruption
	if fs != nil {
		corrupts = Checksums(fs.plan, placements, layerEnd, func(n int) int { return nodes[n].attempt })
	}
	return &Result{Stats: stats, Corruptions: corrupts}, nil
}
