package core

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/stratum"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// edgeCat classifies how a consumer obtains one of its inputs.
type edgeCat int

const (
	// catInput: the producer is a graph input; load from global
	// memory with no synchronization (the user supplied it).
	catInput edgeCat = iota
	// catStratum: producer and consumer are adjacent inside one
	// stratum; the data is forwarded in SPM with no instructions.
	catStratum
	// catForward: feature-map forwarding across a layer boundary; the
	// local portion stays in SPM, the remote portion arrives by
	// halo-exchange. No store/load round trip, no barrier.
	catForward
	// catGlobal: the store -> barrier -> load round trip. Loads of
	// data the same core produced prefetch against its own stores; only
	// remote data waits for the barrier.
	catGlobal
)

// tileRef remembers where an instruction covering a region landed.
type tileRef struct {
	reg tensor.Region
	ref plan.Ref
}

type emitter struct {
	g     *graph.Graph
	a     *arch.Arch
	model *cost.Model
	opt   Options
	plans []partition.Plan
	exec  []graph.LayerID
	strat []stratum.Stratum
	tiler *tiling.Tiler

	streams     [][]plan.Instr
	nextBarrier int
	// budgetScale shrinks every core's SPM budget handed to the tiler;
	// the compile driver's fallback chain lowers it after an admission
	// failure. Zero means full capacity.
	budgetScale float64
	// ctx, when non-nil, is polled once per emitted layer so a canceled
	// compile abandons lowering promptly.
	ctx context.Context

	// Analysis, by LayerID.
	stratumOf   map[graph.LayerID]int
	posOf       map[graph.LayerID]int
	prevExec    map[graph.LayerID]graph.LayerID
	cats        map[graph.LayerID][]edgeCat
	needStore   map[graph.LayerID]bool
	needBarrier map[graph.LayerID]bool
	expanded    map[graph.LayerID][]tensor.Region
	// pendingRecv[id][core] is what core receives in the halo exchange
	// completing id's forwarded input — computed when the producer is
	// emitted, consumed when id itself is.
	pendingRecv map[graph.LayerID][]int64

	// Emission records, by LayerID.
	computeRefs  map[graph.LayerID][][]tileRef // [core][tile]
	storeRefs    map[graph.LayerID][][]tileRef
	barrierRefs  map[graph.LayerID][]plan.Ref
	haloSendRefs map[graph.LayerID][]tileRef    // [core] halo store + sent region
	haloRecvRefs map[graph.LayerID][][]plan.Ref // consumer layer -> [core] -> recv instrs
}

func newEmitter(g *graph.Graph, a *arch.Arch, opt Options, plans []partition.Plan,
	order []graph.LayerID, strat []stratum.Stratum) *emitter {

	e := &emitter{
		g: g, a: a, model: cost.New(a), opt: opt, plans: plans, strat: strat,
		tiler:        tiling.New(a),
		streams:      make([][]plan.Instr, a.NumCores()),
		stratumOf:    map[graph.LayerID]int{},
		posOf:        map[graph.LayerID]int{},
		prevExec:     map[graph.LayerID]graph.LayerID{},
		cats:         map[graph.LayerID][]edgeCat{},
		needStore:    map[graph.LayerID]bool{},
		needBarrier:  map[graph.LayerID]bool{},
		expanded:     map[graph.LayerID][]tensor.Region{},
		pendingRecv:  map[graph.LayerID][]int64{},
		computeRefs:  map[graph.LayerID][][]tileRef{},
		storeRefs:    map[graph.LayerID][][]tileRef{},
		barrierRefs:  map[graph.LayerID][]plan.Ref{},
		haloSendRefs: map[graph.LayerID][]tileRef{},
		haloRecvRefs: map[graph.LayerID][][]plan.Ref{},
	}
	for _, id := range order {
		if !g.Layer(id).IsInput() {
			e.exec = append(e.exec, id)
		}
	}
	for i, id := range e.exec {
		if i > 0 {
			e.prevExec[id] = e.exec[i-1]
		} else {
			e.prevExec[id] = graph.LayerID(-1)
		}
	}
	for si, s := range strat {
		for pi, id := range s.Layers {
			e.stratumOf[id] = si
			e.posOf[id] = pi
			e.expanded[id] = s.Expanded[id]
		}
	}
	e.classifyEdges()
	return e
}

// classifyEdges fixes the category of every consumer edge, then
// derives store/barrier needs per producer.
func (e *emitter) classifyEdges() {
	for _, id := range e.exec {
		l := e.g.Layer(id)
		cats := make([]edgeCat, len(l.Inputs))
		for j, pid := range l.Inputs {
			cats[j] = e.classify(l, j, pid)
		}
		e.cats[id] = cats
	}
	e.demoteOverfullForwards()
	for _, id := range e.exec {
		l := e.g.Layer(id)
		users := e.g.Users(id)
		store := len(users) == 0 // graph outputs persist
		barrier := false
		for _, uid := range users {
			u := e.g.Layer(uid)
			for j, pid := range u.Inputs {
				if pid != id {
					continue
				}
				if e.cats[uid][j] == catGlobal {
					store = true
					barrier = true
				}
			}
		}
		_ = l
		e.needStore[id] = store
		e.needBarrier[id] = barrier && e.a.NumCores() > 1
	}
}

// demoteOverfullForwards drops forwarding on edges whose residency can
// never fit: a layer that both receives a forwarded input and holds
// its own output for a forwarded consumer keeps both full feature maps
// in SPM at once, and when their sum exceeds a core's capacity no
// amount of re-tiling helps (neither buffer shrinks with tile size).
// Such an edge goes back through store-sync-load while the rest of the
// boundary keeps its forwarding. The walk is in reverse execution
// order so a demotion downstream (which releases the middle layer's
// held output) is visible before the upstream edge is judged.
func (e *emitter) demoteOverfullForwards() {
	for i := len(e.exec) - 1; i >= 0; i-- {
		id := e.exec[i]
		l := e.g.Layer(id)
		holdOut := false
		for _, uid := range e.g.Users(id) {
			for j, pid := range e.g.Layer(uid).Inputs {
				if pid == id && (e.cats[uid][j] == catStratum || e.cats[uid][j] == catForward) {
					holdOut = true
				}
			}
		}
		anyForward := false
		var recv []int64
		for j, pid := range l.Inputs {
			if e.cats[id][j] != catForward {
				continue
			}
			anyForward = true
			// Halo-receive staging rides along with the forward and is
			// resident for the whole layer too.
			if _, rb, cons := e.haloPlanFor(pid); cons == id {
				if recv == nil {
					recv = rb
				} else {
					for c := range rb {
						recv[c] += rb[c]
					}
				}
			}
		}
		if !anyForward {
			continue
		}
		demote := false
		for core := range e.a.Cores {
			var resident int64
			for j2, pid2 := range l.Inputs {
				if e.cats[id][j2] == catStratum || e.cats[id][j2] == catForward {
					resident += e.expanded[pid2][core].Bytes(e.g.Layer(pid2).DType)
				}
			}
			if recv != nil {
				resident += recv[core]
			}
			if holdOut {
				resident += e.expanded[id][core].Bytes(l.DType)
			}
			if resident > e.a.Cores[core].SPMBytes {
				demote = true
				break
			}
		}
		if demote {
			for j := range l.Inputs {
				if e.cats[id][j] == catForward {
					e.cats[id][j] = catGlobal
				}
			}
		}
	}
}

func (e *emitter) classify(l *graph.Layer, j int, pid graph.LayerID) edgeCat {
	p := e.g.Layer(pid)
	if p.IsInput() {
		return catInput
	}
	if e.posOf[l.ID] > 0 && e.stratumOf[l.ID] == e.stratumOf[pid] && e.posOf[pid] == e.posOf[l.ID]-1 {
		return catStratum
	}
	if e.opt.HaloExchange && e.opt.Forwarding && e.prevExec[l.ID] == pid &&
		e.compatible(pid, l.ID) && e.forwardFits(pid, l) {
		return catForward
	}
	return catGlobal
}

// forwardFits reports whether feature-map forwarding from pid into l
// is feasible: the forwarded region must stay resident in SPM beside
// the consumer's working set, so refuse when it would claim more than
// ~60% of any core's SPM (the rest is needed for kernel slices and
// double-buffered output tiles).
func (e *emitter) forwardFits(pid graph.LayerID, l *graph.Layer) bool {
	inShapes := e.g.InShapes(l)
	dt := e.g.Layer(pid).DType
	for core := range e.a.Cores {
		reg := e.expanded[l.ID][core]
		if reg.Empty() {
			continue
		}
		var need int64
		for j, p := range l.Inputs {
			if p != pid {
				continue
			}
			need += l.Op.InputRegion(reg, j, inShapes).Bytes(dt)
		}
		if need > e.a.Cores[core].SPMBytes*3/5 {
			return false
		}
	}
	return true
}

// compatible reports whether producer and consumer share a
// partitioning direction, so per-core ownership lines up and the
// boundary data is a genuine halo.
func (e *emitter) compatible(p, l graph.LayerID) bool {
	dp := e.plans[p].Direction
	dl := e.plans[l].Direction
	return dp != partition.DirNone && dp == dl
}

// emit lowers every layer and returns the program.
func (e *emitter) emit() (*plan.Program, error) {
	for _, id := range e.exec {
		if err := ctxErr(e.ctx); err != nil {
			return nil, err
		}
		if err := e.emitLayer(id); err != nil {
			return nil, err
		}
	}
	dirs := make([]partition.Direction, e.g.Len())
	for i := range e.plans {
		dirs[i] = e.plans[i].Direction
	}
	var strata [][]graph.LayerID
	for _, s := range e.strat {
		strata = append(strata, append([]graph.LayerID(nil), s.Layers...))
	}
	plan.PackDeps(e.streams)
	prog := &plan.Program{
		Arch:        e.a,
		Graph:       e.g,
		Cores:       e.streams,
		NumBarriers: e.nextBarrier,
		Directions:  dirs,
		Strata:      strata,
	}
	return prog, prog.Validate()
}

// push appends an instruction to a core's stream and returns its ref.
func (e *emitter) push(core int, in plan.Instr) plan.Ref {
	if in.Op != plan.Barrier {
		in.BarrierID = -1
	}
	e.streams[core] = append(e.streams[core], in)
	return plan.Ref{Core: core, Index: len(e.streams[core]) - 1}
}

// subForRegion builds a SubLayer covering region r of layer l.
func (e *emitter) subForRegion(l *graph.Layer, core int, r tensor.Region) partition.SubLayer {
	s := partition.SubLayer{Core: core, Out: r}
	if r.Empty() {
		return s
	}
	in := e.g.InShapes(l)
	s.In = make([]tensor.Region, len(in))
	for i := range in {
		s.In[i] = l.Op.InputRegion(r, i, in)
	}
	s.MACs = l.Op.MACs(r.Ext, in)
	s.KernelBytes = l.Op.KernelBytes(r.Ext, in, l.DType)
	return s
}

// haloPlanFor computes the halo traffic layer id must send to the next
// executable layer, per producing core: the regions of id's planned
// output that other cores will consume.
//
// sendRegs[k] lists, for producing core k, the pieces of k's output
// that remote consumers need; recvBytes[c] totals what consumer core c
// receives; consumer is the layer whose halo receive this exchange
// completes (-1 when id forwards to no one). The receives belong to the
// consumer's own emission — emitLayer stashes them in pendingRecv
// rather than attaching them to id.
func (e *emitter) haloPlanFor(id graph.LayerID) (sendRegs [][]tensor.Region, recvBytes []int64, consumer graph.LayerID) {
	n := e.a.NumCores()
	sendRegs = make([][]tensor.Region, n)
	recvBytes = make([]int64, n)
	consumer = graph.LayerID(-1)

	nextID := graph.LayerID(-1)
	for i, x := range e.exec {
		if x == id && i+1 < len(e.exec) {
			nextID = e.exec[i+1]
		}
	}
	if nextID < 0 {
		return sendRegs, recvBytes, consumer
	}
	next := e.g.Layer(nextID)
	jMatch := -1
	for j, pid := range next.Inputs {
		if pid == id && e.cats[nextID][j] == catForward {
			jMatch = j
		}
	}
	if jMatch < 0 {
		return sendRegs, recvBytes, consumer
	}
	inShapes := e.g.InShapes(next)
	prodPlan := &e.plans[id]
	dt := e.g.Layer(id).DType
	for c := 0; c < n; c++ {
		consReg := e.expanded[nextID][c]
		if consReg.Empty() {
			continue
		}
		need := next.Op.InputRegion(consReg, jMatch, inShapes)
		for k := 0; k < n; k++ {
			if k == c || prodPlan.Subs == nil {
				continue
			}
			ov := need.Intersect(prodPlan.Subs[k].Out)
			if ov.Empty() {
				continue
			}
			sendRegs[k] = append(sendRegs[k], ov)
			recvBytes[c] += ov.Bytes(dt)
		}
	}
	return sendRegs, recvBytes, nextID
}

// haloEdges derives the tiler's halo flags for core's own region from
// the regions it must send.
func haloEdges(own tensor.Region, axis tensor.Axis, sends []tensor.Region) (lo, hi bool, width int) {
	for _, r := range sends {
		if r.Off.Dim(axis) == own.Off.Dim(axis) {
			lo = true
		}
		if r.End(axis) == own.End(axis) {
			hi = true
		}
		if w := r.Ext.Dim(axis); w > width {
			width = w
		}
	}
	return lo, hi, width
}

// emitLayer lowers one layer on every core, then its barrier if
// needed.
func (e *emitter) emitLayer(id graph.LayerID) error {
	l := e.g.Layer(id)
	inShapes := e.g.InShapes(l)
	cats := e.cats[id]
	dir := e.plans[id].Direction
	n := e.a.NumCores()

	fwd := make([]bool, len(cats))
	for j, c := range cats {
		fwd[j] = c == catStratum || c == catForward
	}

	// sendRegs is what this layer's cores send onward; nextRecv sizes
	// the halo receives of the *consumer* layer, so it is stashed for
	// the consumer's own emission. This layer's receives were stashed
	// when its producer was emitted.
	sendRegs, nextRecv, consumer := e.haloPlanFor(id)
	if consumer >= 0 {
		e.pendingRecv[consumer] = nextRecv
	}
	myRecv := e.pendingRecv[id]

	// Outputs held in SPM for a forwarded or in-stratum consumer never
	// stream out through double-buffered stores: every tile's output is
	// still resident when the last tile computes.
	holdOut := false
	for _, uid := range e.g.Users(id) {
		for j, pid := range e.g.Layer(uid).Inputs {
			if pid == id && (e.cats[uid][j] == catStratum || e.cats[uid][j] == catForward) {
				holdOut = true
			}
		}
	}

	e.computeRefs[id] = make([][]tileRef, n)
	e.storeRefs[id] = make([][]tileRef, n)
	e.haloSendRefs[id] = make([]tileRef, n)
	for c := range e.haloSendRefs[id] {
		e.haloSendRefs[id][c] = tileRef{ref: plan.Ref{Core: -1}}
	}
	e.haloRecvRefs[id] = make([][]plan.Ref, n)

	for core := 0; core < n; core++ {
		reg := e.expanded[id][core]
		if reg.Empty() {
			continue
		}
		sub := e.subForRegion(l, core, reg)
		loHalo, hiHalo, width := false, false, 0
		if len(sendRegs[core]) > 0 && dir.Spatial() {
			loHalo, hiHalo, width = haloEdges(sub.Out, dir.Axis(), sendRegs[core])
		}
		recvHere := int64(0)
		if myRecv != nil {
			recvHere = myRecv[core]
		}
		// Residents the tiler does not plan but must budget around: the
		// halo-receive staging buffer and each forwarding producer's
		// held output, live for the sub-layer's whole execution.
		extra := recvHere
		for j, pid := range l.Inputs {
			if cats[j] == catStratum || cats[j] == catForward {
				extra += e.expanded[pid][core].Bytes(e.g.Layer(pid).DType)
			}
		}
		// The shrink scale exists to leave headroom for cross-layer
		// pipeline overlap (the next layer's bounded prefetch against
		// this layer's draining tail). Held and forwarded buffers do not
		// pipeline — their boundaries have no store/load traffic to
		// overlap with — so they are charged at face value and only the
		// streaming remainder is scaled.
		budget := int64(0)
		if e.budgetScale > 0 && e.budgetScale < 1 {
			spm := e.a.Cores[core].SPMBytes
			resident := extra
			if holdOut {
				resident += sub.Out.Bytes(l.DType)
			}
			if resident < spm {
				budget = resident + int64(e.budgetScale*float64(spm-resident))
			} else {
				budget = int64(e.budgetScale * float64(spm))
			}
		}
		tp, err := e.tiler.PlanSubLayer(l, inShapes, sub, core, tiling.Options{
			Direction:          dir,
			HaloLo:             loHalo,
			HaloHi:             hiHalo,
			HaloWidth:          width,
			HaloFirst:          e.opt.HaloFirst,
			ForwardedInput:     fwd,
			HoldOutput:         holdOut,
			ExtraResidentBytes: extra,
			Budget:             budget,
		})
		if err != nil {
			return fmt.Errorf("core: layer %s: %w", l.Name, err)
		}
		if err := tiling.Validate(&tp, sub); err != nil {
			return fmt.Errorf("core: layer %s: %v", l.Name, err)
		}
		e.emitSubLayer(l, core, sub, &tp, sendRegs[core], recvHere)
	}

	// A halo-exchange to the next layer still implies a rendezvous:
	// the receivers must know every sender's DMA finished (the
	// "implicit synchronization" of halo-exchange the paper contrasts
	// with stratum execution). The same barrier also publishes stores
	// for any catGlobal consumers. Only strata run barrier-free.
	haloSync := false
	for _, b := range nextRecv {
		if b > 0 {
			haloSync = true
		}
	}
	if e.needBarrier[id] || (haloSync && n > 1) {
		bid := e.nextBarrier
		e.nextBarrier++
		refs := make([]plan.Ref, n)
		for core := 0; core < n; core++ {
			// The rendezvous publishes the halo sends; stores are added
			// only when catGlobal consumers will read them through the
			// barrier — coupling the halo release to unrelated stores
			// would defeat the halo-first policy.
			var deps []plan.Ref
			if e.needBarrier[id] {
				for _, sr := range e.storeRefs[id][core] {
					deps = append(deps, sr.ref)
				}
			}
			if hs := e.haloSendRefs[id][core]; hs.ref.Core >= 0 {
				deps = append(deps, hs.ref)
			}
			refs[core] = e.push(core, plan.Instr{
				Op: plan.Barrier, Layer: id, Tile: -1, Deps: deps,
				BarrierID: bid, Note: fmt.Sprintf("sync %s", l.Name),
			})
		}
		e.barrierRefs[id] = refs
	}
	return nil
}

// emitSubLayer lowers one core's tiles.
func (e *emitter) emitSubLayer(l *graph.Layer, core int, sub partition.SubLayer,
	tp *tiling.Plan, sendRegs []tensor.Region, recvBytes int64) {

	id := l.ID
	cats := e.cats[id]

	// Halo receive: one transfer covering all remote input data,
	// issued before the tile pipeline so it is in flight early.
	var haloRecv []plan.Ref
	if recvBytes > 0 {
		var deps []plan.Ref
		for j, pid := range l.Inputs {
			if cats[j] != catForward {
				continue
			}
			// The rendezvous barrier after the producer publishes every
			// sender's halo store; depend on it plus the sends directly.
			if refs, ok := e.barrierRefs[pid]; ok {
				deps = append(deps, refs[core])
			}
			for k := range e.haloSendRefs[pid] {
				if k == core {
					continue
				}
				if sr := e.haloSendRefs[pid][k]; sr.ref.Core >= 0 {
					deps = append(deps, sr.ref)
				}
			}
		}
		r := e.push(core, plan.Instr{
			Op: plan.LoadHalo, Layer: id, Tile: -1, Bytes: recvBytes,
			Deps: deps, Note: fmt.Sprintf("halo-recv %s", l.Name),
		})
		haloRecv = append(haloRecv, r)
	}
	e.haloRecvRefs[id][core] = haloRecv

	// Kernel slices are loaded once per CGroup, when the group's first
	// tile is reached.
	kernelRefByGroup := map[int]plan.Ref{}

	// Identical input regions across tiles (input-stationary channel
	// streaming) are loaded once and reused. Under ReloadInputs the
	// cache is scoped to the current kernel group — the tiler budgeted
	// only one group's regions as concurrently resident.
	type inKey struct {
		j int
		r tensor.Region
	}
	loadedInputs := map[inKey]plan.Ref{}

	// chainGate bounds cross-layer kernel prefetch. A forwarded layer's
	// early kernel loads would otherwise have no dependencies at all,
	// and the in-order load engine would fetch every chain layer's
	// kernels before the first layer finished computing; gating them on
	// the grandparent chain layer's last compute keeps at most one
	// layer's kernels prefetched ahead of the compute front.
	var chainGate []plan.Ref
	if p1 := e.chainInput(id); p1 >= 0 {
		if p2 := e.chainInput(p1); p2 >= 0 {
			if refs := e.computeRefs[p2][core]; len(refs) > 0 {
				chainGate = []plan.Ref{refs[len(refs)-1].ref}
			}
		}
	}

	// Which tiles still owe halo data? Send as soon as the last
	// contributor finishes computing.
	sendBytes := int64(0)
	for _, r := range sendRegs {
		sendBytes += r.Bytes(l.DType)
	}
	lastHaloTile := -1
	if sendBytes > 0 {
		for i, t := range tp.Tiles {
			for _, r := range sendRegs {
				if t.Out.Overlaps(r) {
					lastHaloTile = i
				}
			}
		}
	}

	prodRemote := make([][]tensor.Region, len(l.Inputs)) // producer regions on other cores
	for j, pid := range l.Inputs {
		if pp := &e.plans[pid]; pp.Subs != nil {
			for k, s := range pp.Subs {
				if k != core && !s.Empty() {
					prodRemote[j] = append(prodRemote[j], s.Out)
				}
			}
		}
	}

	var computes []plan.Ref
	var stores []plan.Ref
	haloContrib := make([]bool, len(tp.Tiles))
	prevGroup := -1
	for ti, t := range tp.Tiles {
		var tileLoads []plan.Ref

		if tp.ReloadInputs && ti > 0 && t.CGroup != prevGroup {
			loadedInputs = map[inKey]plan.Ref{}
		}
		prevGroup = t.CGroup

		// Double-buffer: this tile's loads reuse the input slot of
		// tile ti-2; its compute reuses the output slot of tile ti-2.
		// Without double buffering there is a single slot, so the
		// previous tile must fully finish first.
		slotLag := 2
		if e.opt.NoDoubleBuffer {
			slotLag = 1
		}
		var slotDep []plan.Ref
		if ti >= slotLag {
			slotDep = append(slotDep, computes[ti-slotLag])
		}

		for j := range l.Inputs {
			if cats[j] == catStratum || cats[j] == catForward {
				continue // resident via forwarding
			}
			region := t.In[j]
			b := region.Bytes(e.g.Layer(l.Inputs[j]).DType)
			if b <= 0 {
				continue
			}
			key := inKey{j, region}
			if ref, ok := loadedInputs[key]; ok {
				tileLoads = append(tileLoads, ref) // input-stationary reuse
				continue
			}
			var deps []plan.Ref
			if cats[j] == catGlobal {
				deps = append(e.globalReadDeps(l.Inputs[j], core, region), slotDep...)
			} else { // catInput: the user-supplied tensor is ready
				deps = slotDep
			}
			ref := e.push(core, plan.Instr{
				Op: plan.LoadInput, Layer: id, Tile: t.Index, Bytes: b,
				Deps: deps,
				Note: fmt.Sprintf("ld %s t%d", l.Name, t.Index),
			})
			loadedInputs[key] = ref
			tileLoads = append(tileLoads, ref)
		}
		if t.KernelBytes > 0 {
			if _, ok := kernelRefByGroup[t.CGroup]; !ok {
				// The kernel shares the tile's load slot: its prefetch is
				// bounded by the same double-buffer lag as the input loads,
				// so the tiler's [first-1, last] residency window holds.
				kdeps := slotDep
				if ti < slotLag {
					kdeps = chainGate
				}
				kernelRefByGroup[t.CGroup] = e.push(core, plan.Instr{
					Op: plan.LoadKernel, Layer: id, Tile: t.Index, Bytes: t.KernelBytes,
					Deps: kdeps,
					Note: fmt.Sprintf("ld-kn %s g%d", l.Name, t.CGroup),
				})
			}
		}

		// Compute dependencies: own loads, the group kernel, forwarded
		// producer computes, halo receive, output slot.
		deps := append([]plan.Ref{}, tileLoads...)
		if kref, ok := kernelRefByGroup[t.CGroup]; ok {
			deps = append(deps, kref)
		}
		for j, pid := range l.Inputs {
			if cats[j] != catStratum && cats[j] != catForward {
				continue
			}
			deps = append(deps, e.overlappingRefs(e.computeRefs[pid][core], t.In[j])...)
			if cats[j] == catForward && len(haloRecv) > 0 {
				for _, rr := range prodRemote[j] {
					if t.In[j].Overlaps(rr) {
						deps = append(deps, haloRecv...)
						break
					}
				}
			}
		}
		if ti >= slotLag && len(stores) > ti-slotLag && stores[ti-slotLag].Core >= 0 {
			deps = append(deps, stores[ti-slotLag])
		}
		comp := e.push(core, plan.Instr{
			Op: plan.Compute, Layer: id, Tile: t.Index, MACs: t.MACs,
			OutBytes: t.Out.Bytes(l.DType),
			Deps:     deps,
			Note:     fmt.Sprintf("comp %s t%d", l.Name, t.Index),
		})
		computes = append(computes, comp)
		e.computeRefs[id][core] = append(e.computeRefs[id][core], tileRef{reg: t.Out, ref: comp})

		// Store the planned (non-redundant) portion.
		storeRef := plan.Ref{Core: -1}
		if e.needStore[id] {
			planned := t.Out
			if subs := e.plans[id].Subs; subs != nil {
				planned = t.Out.Intersect(subs[core].Out)
			}
			if b := planned.Bytes(l.DType); b > 0 {
				storeRef = e.push(core, plan.Instr{
					Op: plan.Store, Layer: id, Tile: t.Index, Bytes: b,
					Deps: []plan.Ref{comp},
					Note: fmt.Sprintf("st %s t%d", l.Name, t.Index),
				})
				e.storeRefs[id][core] = append(e.storeRefs[id][core], tileRef{reg: planned, ref: storeRef})
			}
		}
		stores = append(stores, storeRef)

		// Emit the halo send as soon as its last contributor computed.
		if ti == lastHaloTile && sendBytes > 0 {
			var hdeps []plan.Ref
			for hi, ht := range tp.Tiles[:ti+1] {
				if haloContrib[hi] || overlapsAny(ht.Out, sendRegs) {
					hdeps = append(hdeps, computes[hi])
				}
			}
			sendReg := boundingAll(sendRegs)
			ref := e.push(core, plan.Instr{
				Op: plan.StoreHalo, Layer: id, Tile: -1, Bytes: sendBytes,
				Deps: hdeps,
				Note: fmt.Sprintf("halo-send %s", l.Name),
			})
			e.haloSendRefs[id][core] = tileRef{reg: sendReg, ref: ref}
		}
		if overlapsAny(t.Out, sendRegs) {
			haloContrib[ti] = true
		}
	}
}

// chainInput returns the layer whose output stays resident in SPM as
// one of id's inputs (a stratum or forwarding producer), or -1.
func (e *emitter) chainInput(id graph.LayerID) graph.LayerID {
	for j, pid := range e.g.Layer(id).Inputs {
		if c := e.cats[id][j]; c == catStratum || c == catForward {
			return pid
		}
	}
	return graph.LayerID(-1)
}

// overlappingRefs returns the refs whose recorded regions overlap r.
func (e *emitter) overlappingRefs(refs []tileRef, r tensor.Region) []plan.Ref {
	var out []plan.Ref
	for _, tr := range refs {
		if tr.reg.Overlaps(r) {
			out = append(out, tr.ref)
		}
	}
	return out
}

// globalReadDeps returns what a global-memory read of producer pid's
// data must wait for. Data the same core produced and stored is
// trackable through the core's own DMA-completion status, so it can be
// prefetched before the barrier; anything touching remote cores' data
// waits for the barrier after pid.
func (e *emitter) globalReadDeps(pid graph.LayerID, core int, r tensor.Region) []plan.Ref {
	if subs := e.plans[pid].Subs; subs != nil && !subs[core].Out.Empty() && subs[core].Out.Contains(r) {
		if deps := e.overlappingRefs(e.storeRefs[pid][core], r); len(deps) > 0 {
			return deps
		}
	}
	if refs, ok := e.barrierRefs[pid]; ok {
		return []plan.Ref{refs[core]}
	}
	// No barrier: single-core program order, or a store the same core
	// performed earlier.
	var deps []plan.Ref
	if srs, ok := e.storeRefs[pid]; ok {
		for c := range srs {
			if c == core {
				deps = append(deps, e.overlappingRefs(srs[c], r)...)
			}
		}
		// Cross-core reads without a barrier only happen on
		// single-core archs or for inputs; depend on every store
		// covering the region to stay conservative.
		if e.a.NumCores() > 1 {
			for c := range srs {
				if c != core {
					deps = append(deps, e.overlappingRefs(srs[c], r)...)
				}
			}
		}
	}
	return deps
}

func overlapsAny(r tensor.Region, regs []tensor.Region) bool {
	for _, q := range regs {
		if r.Overlaps(q) {
			return true
		}
	}
	return false
}

func boundingAll(regs []tensor.Region) tensor.Region {
	var out tensor.Region
	for i, r := range regs {
		if i == 0 {
			out = r
			continue
		}
		for _, ax := range []tensor.Axis{tensor.AxisH, tensor.AxisW, tensor.AxisC} {
			lo := out.Off.Dim(ax)
			if v := r.Off.Dim(ax); v < lo {
				lo = v
			}
			hi := out.End(ax)
			if v := r.End(ax); v > hi {
				hi = v
			}
			out.Off = out.Off.WithDim(ax, lo)
			out.Ext = out.Ext.WithDim(ax, hi-lo)
		}
	}
	return out
}
