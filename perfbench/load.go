package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// served is one completed exchange, kept for the output check.
type served struct {
	Pool int // index into inputs.Pool
	Body []byte
}

// loadResult is what a closed loop measured.
type loadResult struct {
	LatMS       []float64       // per completed 200, client-measured
	DoneAt      []time.Duration // when each of them completed, from the start
	Served      []served
	Attempted   int
	Failed      int // non-200 replies and transport errors
	Status      map[int]int
	Start       time.Time
	Elapsed     time.Duration
	MaxInFlight int64
}

// closedLoop runs clients that each send their next request only after
// the previous reply has been read, walking in.Order from the start (a
// shared cursor, so the clients together send the list in order), until
// d has passed and at least minDone requests completed with 200.
// Requests in flight at the deadline finish and count.
func closedLoop(ctx context.Context, baseURL string, in *inputs, clients int, d time.Duration, minDone int) *loadResult {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer hc.CloseIdleConnections()
	var next, done, inflight, maxInFlight atomic.Int64
	parts := make([]loadResult, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lr *loadResult) {
			defer wg.Done()
			lr.Status = map[int]int{}
			for (time.Now().Before(deadline) || done.Load() < int64(minDone)) && ctx.Err() == nil {
				pool := in.Order[int(next.Add(1)-1)%len(in.Order)]
				req := in.Pool[pool]
				n := inflight.Add(1)
				for {
					m := maxInFlight.Load()
					if n <= m || maxInFlight.CompareAndSwap(m, n) {
						break
					}
				}
				t0 := time.Now()
				status, body, err := post(ctx, hc, baseURL+req.Path, req.Body)
				lat := time.Since(t0)
				inflight.Add(-1)
				lr.Attempted++
				if err != nil || status != http.StatusOK {
					lr.Failed++
					lr.Status[status]++
					continue
				}
				lr.Status[status]++
				done.Add(1)
				lr.LatMS = append(lr.LatMS, float64(lat)/float64(time.Millisecond))
				lr.DoneAt = append(lr.DoneAt, time.Since(start))
				lr.Served = append(lr.Served, served{Pool: pool, Body: body})
			}
		}(&parts[c])
	}
	wg.Wait()
	out := &loadResult{Status: map[int]int{}, Start: start, Elapsed: time.Since(start), MaxInFlight: maxInFlight.Load()}
	for _, p := range parts {
		out.LatMS = append(out.LatMS, p.LatMS...)
		out.DoneAt = append(out.DoneAt, p.DoneAt...)
		out.Served = append(out.Served, p.Served...)
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		for k, v := range p.Status {
			out.Status[k] += v
		}
	}
	return out
}

// post sends one JSON body and reads the whole reply; status is 0 on a
// transport error.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// server is a serve.Server with default Options behind a loopback
// httptest listener.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startServer() *server {
	srv := serve.New(serve.Options{})
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler())}
}

func (s *server) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // nothing left to drain: ts.Close waited for every handler
}

// setupServer is one set-up of a run workload: drop the compile cache,
// start a server, and send each warm request once. It returns the
// server and each warm request's client latency in ms (one cold
// compile each).
func setupServer(ctx context.Context, in *inputs) (*server, []float64, error) {
	core.ResetCache()
	s := startServer()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var oneshot []float64
	for _, req := range in.Warm {
		t0 := time.Now()
		status, body, err := post(ctx, hc, s.ts.URL+req.Path, req.Body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("warm %s: %w", req.Body, err)
		}
		oneshot = append(oneshot, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return s, oneshot, nil
}

// heapSampler reads the live heap every millisecond until stop.
type heapSampler struct {
	start time.Time
	at    []time.Duration
	bytes []uint64
	done  chan struct{}
	wg    sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{start: time.Now(), done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.at = append(h.at, time.Since(h.start))
			h.bytes = append(h.bytes, sample[0].Value.Uint64())
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling; the readings are safe to use once it returns.
func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}

// peakMB returns the highest reading in [from, to), in MB.
func (h *heapSampler) peakMB(from, to time.Time) float64 {
	var peak uint64
	lo, hi := from.Sub(h.start), to.Sub(h.start)
	for i, at := range h.at {
		if at >= lo && at < hi && h.bytes[i] > peak {
			peak = h.bytes[i]
		}
	}
	return float64(peak) / (1 << 20)
}
