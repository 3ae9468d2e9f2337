// Package bounded is the process-wide memo behind the co-run memo
// (package tenancy) and the remap memo (package recovery): a map
// capped at a fixed number of entries that evicts the oldest first,
// with cumulative hit and miss counters. Each user states its worst-
// case bytes at its bound, next to where it sets the bound.
package bounded

import (
	"sync"
	"sync/atomic"
)

// Memo maps K to V, holding at most its limit of entries; limit 0
// stores nothing. Values are shared by every hit, so they must be
// read-only once stored. It is safe for concurrent use.
type Memo[K comparable, V any] struct {
	limit int

	mu   sync.Mutex
	vals map[K]V
	fifo []K // keys in insertion order, a ring once full; the oldest is at next
	next int

	hits, misses atomic.Int64
}

// New returns an empty memo of at most limit entries.
func New[K comparable, V any](limit int) *Memo[K, V] {
	return &Memo[K, V]{limit: limit, vals: make(map[K]V)}
}

// Get returns the value stored under k and counts a hit or a miss.
func (m *Memo[K, V]) Get(k K) (V, bool) { return m.GetIf(k, nil) }

// GetIf is Get for values that can go stale: a value held under k that
// live (when non-nil) rejects is not returned and counts as a miss; the
// next Put under k replaces it.
func (m *Memo[K, V]) GetIf(k K, live func(V) bool) (V, bool) {
	m.mu.Lock()
	v, ok := m.vals[k]
	m.mu.Unlock()
	if ok && live != nil && !live(v) {
		var zero V
		v, ok = zero, false
	}
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Put stores v under k, evicting the oldest entry when the memo is
// full. A key already held takes v in place and keeps its age.
func (m *Memo[K, V]) Put(k K, v V) {
	if m.limit <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[k]; ok {
		m.vals[k] = v
		return
	}
	if len(m.fifo) < m.limit {
		m.fifo = append(m.fifo, k)
	} else {
		delete(m.vals, m.fifo[m.next])
		m.fifo[m.next] = k
		m.next = (m.next + 1) % m.limit
	}
	m.vals[k] = v
}

// Len returns the number of entries held.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}

// Stats reports cumulative hits and misses.
func (m *Memo[K, V]) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Reset drops every entry and zeroes the counters.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	clear(m.vals)
	clear(m.fifo) // release evicted keys' memory
	m.fifo, m.next = m.fifo[:0], 0
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
}
