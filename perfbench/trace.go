package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer of the program.
type span struct {
	Name    string             `json:"name"`
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // -1 for a request's root
	Req     int                `json:"req"`    // 0 is set-up, then 1.. per replayed request
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Allocs  uint64             `json:"allocs"` // heap objects allocated inside the span
	Bytes   uint64             `json:"bytes"`  // heap bytes allocated inside the span
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory. Every call runs on one goroutine, so
// deltas of the runtime's cumulative allocation counters attribute
// allocations to the span. They are read through runtime/metrics, the
// same counters runtime.MemStats reports, without stopping the world.
// A nil *recorder records nothing and costs one nil check per call.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
	req   int
	mem   []metrics.Sample
}

// allocMetrics are the runtime's cumulative heap allocation counters:
// objects (small, large and tiny-block allocations) and bytes.
var allocMetrics = []string{"/gc/heap/allocs:objects", "/gc/heap/tiny/allocs:objects", "/gc/heap/allocs:bytes"}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	for _, name := range allocMetrics {
		r.mem = append(r.mem, metrics.Sample{Name: name})
	}
	return r
}

// allocs reads the cumulative allocated objects and bytes.
func (r *recorder) allocs() (objects, bytes uint64) {
	metrics.Read(r.mem)
	return r.mem[0].Value.Uint64() + r.mem[1].Value.Uint64(), r.mem[2].Value.Uint64()
}

// begin opens a span as a child of the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	objects, bytes := r.allocs()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, Req: r.req,
		Allocs: objects, Bytes: bytes,
	})
	r.open = append(r.open, id)
	r.spans[id].StartNS = int64(time.Since(r.epoch))
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.EndNS = int64(time.Since(r.epoch))
	objects, bytes := r.allocs()
	s.Allocs = objects - s.Allocs
	s.Bytes = bytes - s.Bytes
	r.open = r.open[:len(r.open)-1]
}

// attr attaches a number to span id.
func (r *recorder) attr(id int, key string, v float64) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// selfNS returns each span's duration minus the part of its interval
// that its children cover.
func selfNS(spans []span) []int64 {
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		iv := make([][2]int64, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			iv = append(iv, [2]int64{max(spans[k].StartNS, s.StartNS), min(spans[k].EndNS, s.EndNS)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.StartNS
		for _, x := range iv {
			if x[1] <= reach {
				continue
			}
			if x[0] > reach {
				reach = x[0]
			}
			covered += x[1] - reach
			reach = x[1]
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans as JSON lines under dir.
func writeSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
