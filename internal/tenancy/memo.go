package tenancy

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/core"
)

// memoEntries bounds the co-run memo. An entry holds one float per
// layer of each placement's graph (at most 220 for a Table 2 model), so
// a full memo of 3-tenant co-runs holds under 6 MB.
const memoEntries = 1024

// coRun is what runEpoch reads of one clean co-run: each placement's
// completion cycle (Stats.ProgramCycles) and its per-layer finish
// cycles (sim.LayerFinish.Finish, sim.CutAtCycle's input). Memoized
// values are shared by every hit and must be treated as read-only.
type coRun struct {
	cycles []float64
	finish [][]float64
}

// coRunMemo maps a clean co-run's structural key to its coRun,
// process-wide. A clean co-run is a pure function of the platform and
// of each placement's program and global cores, and every tenancy
// program comes from the compile cache, whose CacheKey names it. The
// memo holds at most limit entries and evicts the oldest first; limit
// 0 stores nothing.
type coRunMemo struct {
	limit int

	mu   sync.Mutex
	runs map[string]*coRun
	fifo []string // keys in insertion order, a ring once full; the oldest is at next
	next int

	hits, misses atomic.Int64
}

var memo = newCoRunMemo(memoEntries)

func newCoRunMemo(limit int) *coRunMemo {
	return &coRunMemo{limit: limit, runs: make(map[string]*coRun)}
}

func (m *coRunMemo) get(key string) (*coRun, bool) {
	m.mu.Lock()
	r, ok := m.runs[key]
	m.mu.Unlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return r, ok
}

func (m *coRunMemo) put(key string, r *coRun) {
	if m.limit <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.runs[key]; ok {
		return // a concurrent miss stored the identical run first
	}
	if len(m.fifo) < m.limit {
		m.fifo = append(m.fifo, key)
	} else {
		delete(m.runs, m.fifo[m.next])
		m.fifo[m.next] = key
		m.next = (m.next + 1) % m.limit
	}
	m.runs[key] = r
}

// MemoStats reports cumulative co-run memo hits and misses. Co-runs
// that bypass the memo (a fault plan, a program compiled outside the
// cache, a context already done) count as neither.
func MemoStats() (hits, misses int64) {
	return memo.hits.Load(), memo.misses.Load()
}

// ResetMemo drops every memoized co-run and zeroes the counters
// (benchmarks use it to measure first-seen schedules).
func ResetMemo() {
	memo.mu.Lock()
	clear(memo.runs)
	memo.fifo, memo.next = memo.fifo[:0], 0
	memo.mu.Unlock()
	memo.hits.Store(0)
	memo.misses.Store(0)
}

// coRunKey is the memo key of co-running the admitted tenants' current
// programs on a: the arch hash core.Fingerprint uses, then per
// placement its program's CacheKey and global cores, length-prefixed.
// ok is false when a program has no CacheKey (it did not come through
// the compile cache), which bypasses the memo.
func coRunKey(a *arch.Arch, admitted []*tenantState) (key string, ok bool) {
	b := make([]byte, 0, 8*(1+len(admitted)*6))
	b = binary.LittleEndian.AppendUint64(b, core.ArchKey(a))
	for _, ts := range admitted {
		k := ts.run.Compiled.Key
		if k == (core.CacheKey{}) {
			return "", false
		}
		b = binary.LittleEndian.AppendUint64(b, k.Graph)
		b = binary.LittleEndian.AppendUint64(b, k.Arch)
		b = binary.LittleEndian.AppendUint64(b, k.Opt)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(ts.cores)))
		for _, c := range ts.cores {
			b = binary.LittleEndian.AppendUint64(b, uint64(c))
		}
	}
	return string(b), true
}
