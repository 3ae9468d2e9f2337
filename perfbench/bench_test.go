package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tenancy"
)

func TestTailRule(t *testing.T) {
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(999, 0.99); got >= minBeyond {
		t.Errorf("beyond(999, 0.99) = %d, want fewer than %d", got, minBeyond)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1, 4, 16) = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSeedGivesInputs(t *testing.T) {
	golden, err := readGolden("..")
	if err != nil {
		t.Fatal(err)
	}
	for name, gen := range workloads {
		a, err := gen(7, golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, _ := gen(7, golden)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different request lists", name)
		}
		c, _ := gen(8, golden)
		if reflect.DeepEqual(a.Order, c.Order) {
			t.Errorf("%s: seeds 7 and 8 gave the same request order", name)
		}
		// Every stretch of one pool's worth of /run requests holds each
		// distinct request once, so the mix does not drift with the seed.
		if name != "run-degraded" {
			seen := map[int]bool{}
			for _, p := range a.Order[:len(a.Pool)] {
				seen[p] = true
			}
			if len(seen) != len(a.Pool) {
				t.Errorf("%s: first block covers %d of %d requests", name, len(seen), len(a.Pool))
			}
		}
	}
	a, _ := runDegradedInputs(7, golden)
	c, _ := runDegradedInputs(8, golden)
	if reflect.DeepEqual(a.Pool, c.Pool) {
		t.Error("run-degraded: seeds 7 and 8 gave the same fault and tenant specs")
	}
	for i, p := range a.Order[:100] {
		if isTenants := a.Pool[p].Tenants != nil; isTenants != (i%5 == 4) {
			t.Fatalf("run-degraded: request %d is /tenants=%v, want every 5th", i, isTenants)
		}
	}
}

// fakeInputs is a request list over bodies a fake server answers with
// the status the body names.
func fakeInputs(statuses ...int) *inputs {
	in := &inputs{}
	for i, st := range statuses {
		in.Pool = append(in.Pool, request{Path: "/run", Body: []byte(strconv.Itoa(st))})
		in.Order = append(in.Order, i)
	}
	return in
}

func statusServer(t *testing.T, inflight, maxSeen *atomic.Int64) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for m := maxSeen.Load(); n > m && !maxSeen.CompareAndSwap(m, n); m = maxSeen.Load() {
		}
		var code int
		if err := json.NewDecoder(r.Body).Decode(&code); err != nil {
			code = http.StatusBadRequest
		}
		time.Sleep(200 * time.Microsecond)
		w.WriteHeader(code)
		w.Write([]byte("{}"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestInFlightNeverExceedsCPUs(t *testing.T) {
	var inflight, maxSeen atomic.Int64
	ts := statusServer(t, &inflight, &maxSeen)
	clients := min(2, runtime.NumCPU())
	lr := closedLoop(context.Background(), ts.URL, fakeInputs(200), clients, 100*time.Millisecond, 50)
	if lr.Attempted < 50 {
		t.Fatalf("attempted %d, want at least 50", lr.Attempted)
	}
	if lr.MaxInFlight > int64(clients) || maxSeen.Load() > int64(clients) || clients > runtime.NumCPU() {
		t.Errorf("in flight: client saw %d, server saw %d; clients %d, CPUs %d",
			lr.MaxInFlight, maxSeen.Load(), clients, runtime.NumCPU())
	}
}

func TestRefusalsCountAsFailures(t *testing.T) {
	var inflight, maxSeen atomic.Int64
	ts := statusServer(t, &inflight, &maxSeen)
	lr := closedLoop(context.Background(), ts.URL, fakeInputs(200, 429, 503, 422), 1, 0, 40)
	failed := lr.Status[429] + lr.Status[503] + lr.Status[422]
	if lr.Failed != failed || failed == 0 {
		t.Errorf("failed %d, refusals %d (statuses %v)", lr.Failed, failed, lr.Status)
	}
	if lr.Attempted != lr.Failed+len(lr.LatMS) || len(lr.LatMS) != lr.Status[200] {
		t.Errorf("attempted %d = failed %d + completed %d does not hold", lr.Attempted, lr.Failed, len(lr.LatMS))
	}
	// The list is walked in order, and the loop stops right after the
	// 40th success: three refusals between successive successes.
	if failed != 3*(lr.Status[200]-1) {
		t.Errorf("statuses %v, want three refusals per success", lr.Status)
	}
}

func TestMismatchCaught(t *testing.T) {
	want := &serve.RunResponse{Model: "M", Config: "+Stratum", Cores: 3, TotalCycles: 1234.5, Instrs: 9, CacheHit: true}
	rep := &tenancy.Report{Arch: "a", Epochs: 2}
	repBody, _ := json.Marshal(rep)
	exp := []expectation{{v: want}, {body: repBody, v: rep}}

	good := *want
	good.ElapsedMS = 3.2 // wall-clock fields may differ
	goodBody, _ := json.Marshal(good)
	c := &checker{log: &strings.Builder{}}
	checkServed(c, exp, []served{{Pool: 0, Body: goodBody}, {Pool: 1, Body: append(repBody, '\n')}}, true)
	if c.mismatches != 0 {
		t.Fatalf("matching replies counted %d mismatches", c.mismatches)
	}

	bad := good
	bad.TotalCycles++
	badBody, _ := json.Marshal(bad)
	badRep := *rep
	badRep.Epochs++
	badRepBody, _ := json.Marshal(badRep)
	miss := good
	miss.CacheHit = false
	missBody, _ := json.Marshal(miss)
	checkServed(c, exp, []served{{Pool: 0, Body: badBody}, {Pool: 1, Body: badRepBody}, {Pool: 0, Body: missBody}}, true)
	if c.mismatches != 3 {
		t.Errorf("injected 3 mismatches, caught %d", c.mismatches)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 30},
		{ID: 2, Parent: 0, StartNS: 50, EndNS: 90},
		{ID: 3, Parent: 2, StartNS: 60, EndNS: 70},
	}
	if got, want := selfNS(spans), []int64{40, 20, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

var sink []byte

func TestRecorderNests(t *testing.T) {
	rec := newRecorder()
	rec.req = 3
	root := rec.begin("request")
	child := rec.begin("models.Build")
	sink = make([]byte, 1<<20)
	rec.end(child)
	rec.end(root)
	if s := rec.spans[child]; s.Parent != root || s.Req != 3 || s.EndNS < s.StartNS || s.Bytes < 1<<20 {
		t.Errorf("child span %+v", s)
	}
	var none *recorder
	if id := none.begin("x"); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(-1)
	none.attr(-1, "k", 1)
}

// TestBenchmarkJSON holds BENCHMARK.json to the metric registry and the
// workload table, so the two never drift.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []map[string]any `json:"end_to_end"`
		PerLayer  []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown, or why is empty or too long", w.Name)
		}
	}
	check := func(kind string, got []map[string]any, want []metric, bound bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g["name"] != m.Name || g["unit"] != m.Unit || g["better"] != m.Better {
				t.Errorf("%s[%d] = %v, registry has %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
			if bound && g["bound"] != m.Bound {
				t.Errorf("%s: bound %v, registry %v", m.Name, g["bound"], m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
