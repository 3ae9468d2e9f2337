package sim

// eventKind classifies entries of the engine's indexed min-heap event
// queue. Each kind keys its entries by a small integer id, letting the
// heap support O(log n) update/remove by (kind, id) — the "indexed"
// part — without any per-entry allocation.
type eventKind uint8

const (
	// evCompute: a scheduled compute finish; id is the node id.
	evCompute eventKind = iota
	// evSetup: a DMA descriptor-setup (or retry-backoff) deadline after
	// which the transfer joins the bus water-filling set; id is the
	// node id.
	evSetup
	// evBarrier: a released barrier's rendezvous completion; id is the
	// flat barrier index (placement offset + barrier id).
	evBarrier
	// evFault: the next pending fault-plan firing; id is always 0.
	evFault
)

// heapEntry is one pending event.
type heapEntry struct {
	t    float64
	id   int32
	kind eventKind
}

// eventHeap is an indexed binary min-heap over simulation events,
// ordered by time (ties broken by kind then id for determinism). The
// position tables map (kind, id) to heap slot + 1 (0 = absent) so
// entries can be updated or removed when a throttle rescales a compute
// finish, a transfer drops, or a barrier completes. All storage is
// reused across runs via the engine scratch pool.
type eventHeap struct {
	items []heapEntry
	// pos* map id -> slot+1 per kind; evFault has a scalar because
	// there is only ever one fault entry.
	posCompute []int32
	posSetup   []int32
	posBarrier []int32
	posFault   int32
}

// reset prepares the heap for a run with nNodes nodes and nBarriers
// flat barriers, reusing prior capacity.
func (h *eventHeap) reset(nNodes, nBarriers int) {
	h.items = h.items[:0]
	h.posCompute = resize(h.posCompute, nNodes)
	h.posSetup = resize(h.posSetup, nNodes)
	h.posBarrier = resize(h.posBarrier, nBarriers)
	h.posFault = 0
}

func (h *eventHeap) slot(kind eventKind, id int32) *int32 {
	switch kind {
	case evCompute:
		return &h.posCompute[id]
	case evSetup:
		return &h.posSetup[id]
	case evBarrier:
		return &h.posBarrier[id]
	default:
		return &h.posFault
	}
}

func (h *eventHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.id < b.id
}

func (h *eventHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	*h.slot(h.items[i].kind, h.items[i].id) = int32(i + 1)
	*h.slot(h.items[j].kind, h.items[j].id) = int32(j + 1)
}

func (h *eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// update inserts the (kind, id) event at time t, or re-keys it if
// already present.
func (h *eventHeap) update(kind eventKind, id int32, t float64) {
	p := h.slot(kind, id)
	if *p == 0 {
		h.items = append(h.items, heapEntry{t: t, id: id, kind: kind})
		*p = int32(len(h.items))
		h.siftUp(len(h.items) - 1)
		return
	}
	i := int(*p) - 1
	old := h.items[i].t
	h.items[i].t = t
	if t < old {
		h.siftUp(i)
	} else if t > old {
		h.siftDown(i)
	}
}

// remove deletes the (kind, id) event if present.
func (h *eventHeap) remove(kind eventKind, id int32) {
	p := h.slot(kind, id)
	if *p == 0 {
		return
	}
	i := int(*p) - 1
	*p = 0
	last := len(h.items) - 1
	if i != last {
		h.items[i] = h.items[last]
		*h.slot(h.items[i].kind, h.items[i].id) = int32(i + 1)
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.siftUp(i)
		h.siftDown(i)
	}
}

// top returns the earliest pending event without removing it.
func (h *eventHeap) top() (heapEntry, bool) {
	if len(h.items) == 0 {
		return heapEntry{}, false
	}
	return h.items[0], true
}

// pop removes and returns the earliest pending event.
func (h *eventHeap) pop() heapEntry {
	e := h.items[0]
	h.remove(e.kind, e.id)
	return e
}
