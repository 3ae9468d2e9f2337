package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/serialize"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/tiling"
)

// postRun sends one /run request and decodes the reply.
func postRun(t *testing.T, ts *httptest.Server, req RunRequest) (int, *RunResponse, *ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var rr RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &rr, nil
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &er
}

func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestHealthReadyStats(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getStatus(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d", code)
	}
	if code := getStatus(t, ts, "/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Concurrency <= 0 || st.QueueLimit <= 0 {
		t.Errorf("stats missing limits: %+v", st)
	}
}

// TestRunModelBitIdentical: a served benchmark-model run reports the
// same cycle-exact numbers as a direct library run.
func TestRunModelBitIdentical(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g := buildModel(t, "MobileNetV2")
	a := arch.Exynos2100Like()
	res, err := core.CompileCached(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}

	code, rr, er := postRun(t, ts, RunRequest{Model: "MobileNetV2"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, er)
	}
	if rr.TotalCycles != want.Stats.TotalCycles || rr.Barriers != want.Stats.Barriers ||
		rr.Instrs != res.Program.NumInstrs() {
		t.Errorf("served %+v disagrees with direct run (cycles %v, barriers %d, instrs %d)",
			rr, want.Stats.TotalCycles, want.Stats.Barriers, res.Program.NumInstrs())
	}
	if !rr.CacheHit {
		t.Error("second compile of MobileNetV2 should have hit the cache")
	}
}

// TestRunCustomGraph: the serialized-graph path works end to end.
func TestRunCustomGraph(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	if err := serialize.SaveGraph(&buf, tinyGraph()); err != nil {
		t.Fatal(err)
	}
	code, rr, er := postRun(t, ts, RunRequest{Graph: json.RawMessage(buf.Bytes())})
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, er)
	}
	if rr.TotalCycles <= 0 || rr.Instrs <= 0 {
		t.Errorf("empty result: %+v", rr)
	}
}

// TestRunDeadline is the acceptance bound: a 1ms-deadline ResNet-50
// request returns a typed deadline error within 50ms of expiry and
// leaves the compile cache uncorrupted — the identical follow-up
// request succeeds, and the one after that hits the cache.
func TestRunDeadline(t *testing.T) {
	core.ResetCache()
	s := New(Options{})
	// Hold the request until its 1ms deadline has expired, so the
	// compile deterministically starts against a dead context and must
	// abort at its first checkpoint (a fast machine could otherwise
	// serve ResNet50 inside the deadline).
	s.beforeExecute = func(req *RunRequest) {
		if req.TimeoutMS > 0 {
			time.Sleep(time.Duration(req.TimeoutMS) * 3 * time.Millisecond)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := RunRequest{Model: "ResNet50", TimeoutMS: 1}
	start := time.Now()
	code, _, er := postRun(t, ts, req)
	late := time.Since(start) - time.Millisecond
	if code != http.StatusGatewayTimeout || er.Kind != "deadline" {
		t.Fatalf("status %d kind %q, want 504 deadline", code, er.Kind)
	}
	if late > 50*time.Millisecond {
		t.Errorf("deadline reply arrived %v after expiry (bound 50ms)", late)
	}

	req.TimeoutMS = 0
	code, rr, er2 := postRun(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("follow-up request failed: %d %+v", code, er2)
	}
	if rr.CacheHit {
		t.Error("canceled compile left a cache entry")
	}
	code, rr, _ = postRun(t, ts, req)
	if code != http.StatusOK || !rr.CacheHit {
		t.Errorf("third request: status %d, CacheHit %v, want 200 hit", code, rr.CacheHit)
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed", `{not json`, http.StatusBadRequest},
		{"empty", `{}`, http.StatusBadRequest},
		{"both", `{"Model":"MobileNetV2","Graph":{"x":1}}`, http.StatusBadRequest},
		{"unknown model", `{"Model":"NoSuchNet"}`, http.StatusBadRequest},
		{"unknown field", `{"Model":"MobileNetV2","Bogus":1}`, http.StatusBadRequest},
		{"bad config", `{"Model":"MobileNetV2","Config":"warp"}`, http.StatusBadRequest},
		{"bad cores", `{"Model":"MobileNetV2","Cores":-2}`, http.StatusBadRequest},
		{"bad faults", `{"Model":"MobileNetV2","Faults":"explode=1"}`, http.StatusBadRequest},
		{"bad graph", `{"Graph":{"layers":"no"}}`, http.StatusBadRequest},
		{"negative timeout", `{"Model":"MobileNetV2","TimeoutMS":-5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := ts.Client().Post(ts.URL+"/run", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.code)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", resp.StatusCode)
	}
}

// TestQueueFull: with one slot and one queue seat, a third concurrent
// request is shed with 429 + Retry-After.
func TestQueueFull(t *testing.T) {
	s := New(Options{Concurrency: 1, Queue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.beforeExecute = func(*RunRequest) {
		started <- struct{}{}
		<-release
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postRun(t, ts, RunRequest{Model: "MobileNetV2"})
			done <- code
		}()
	}
	// Wait until one request is executing and the other is queued.
	<-started
	waitFor(t, time.Second, func() bool { return s.queued.Load() == 2 })

	resp, err := ts.Client().Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"Model":"MobileNetV2"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	release <- struct{}{}
	release <- struct{}{}
	<-started
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("blocked request finished with %d", code)
		}
	}
}

// TestPanicRecovery: a panic inside one request returns 500 and the
// server keeps serving.
func TestPanicRecovery(t *testing.T) {
	s := New(Options{})
	s.beforeExecute = func(req *RunRequest) {
		if req.FaultSeed == 666 {
			panic("injected test panic")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, er := postRun(t, ts, RunRequest{Model: "MobileNetV2", FaultSeed: 666})
	if code != http.StatusInternalServerError || er.Kind != "panic" {
		t.Fatalf("status %d kind %q, want 500 panic", code, er.Kind)
	}
	code, _, _ = postRun(t, ts, RunRequest{Model: "MobileNetV2"})
	if code != http.StatusOK {
		t.Fatalf("server did not survive the panic: next request %d", code)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

// TestFaultInjection: a request with a kill fault gets the typed
// core-failure 422, and the same model without faults still serves.
func TestFaultInjection(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, er := postRun(t, ts, RunRequest{Model: "MobileNetV2", Faults: "kill=1@1000"})
	if code != http.StatusUnprocessableEntity || er.Kind != "core_failure" {
		t.Fatalf("status %d kind %q, want 422 core_failure", code, er.Kind)
	}
	if code, _, _ := postRun(t, ts, RunRequest{Model: "MobileNetV2"}); code != http.StatusOK {
		t.Fatalf("fault-free request after fault run: %d", code)
	}
}

// TestDrain: Shutdown stops admissions, releases queued waiters with
// 503, waits for the in-flight request, and flips /readyz.
func TestDrain(t *testing.T) {
	s := New(Options{Concurrency: 1, Queue: 4})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.beforeExecute = func(*RunRequest) {
		select {
		case started <- struct{}{}:
			<-release
		default:
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	inflightDone := make(chan int, 1)
	go func() {
		code, _, _ := postRun(t, ts, RunRequest{Model: "MobileNetV2"})
		inflightDone <- code
	}()
	<-started

	// A waiter queued behind the in-flight request must be released by
	// the drain, not left hanging.
	queuedDone := make(chan int, 1)
	go func() {
		code, _, _ := postRun(t, ts, RunRequest{Model: "MobileNetV2"})
		queuedDone <- code
	}()
	waitFor(t, time.Second, func() bool { return s.queued.Load() == 2 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, time.Second, func() bool { return s.Draining() })

	if code := <-queuedDone; code != http.StatusServiceUnavailable {
		t.Errorf("queued request drained with %d, want 503", code)
	}
	if code := getStatus(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", code)
	}
	if code := getStatus(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", code)
	}
	code, _, _ := postRun(t, ts, RunRequest{Model: "MobileNetV2"})
	if code != http.StatusServiceUnavailable {
		t.Errorf("new request while draining = %d, want 503", code)
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned before the in-flight request finished: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if code := <-inflightDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestErrStatus pins the full typed-error -> HTTP status table.
func TestErrStatus(t *testing.T) {
	cases := []struct {
		err  error
		code int
		kind string
	}{
		{badRequest(errors.New("x")), http.StatusBadRequest, "bad_request"},
		{&panicError{val: "x"}, http.StatusInternalServerError, "panic"},
		{&core.UnfitError{Graph: "g"}, http.StatusUnprocessableEntity, "unfit"},
		{fmt.Errorf("wrap: %w", &sim.SPMOverflowError{Core: 1}), http.StatusUnprocessableEntity, "spm_overflow"},
		{&tiling.CannotFitError{}, http.StatusUnprocessableEntity, "cannot_fit"},
		{&sim.CoreFailure{Core: 2}, http.StatusUnprocessableEntity, "core_failure"},
		{fmt.Errorf("late: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline"},
		{&sim.CanceledError{Cause: context.DeadlineExceeded}, http.StatusGatewayTimeout, "deadline"},
		{&sim.CanceledError{Cause: context.Canceled}, StatusClientClosedRequest, "canceled"},
		{context.Canceled, StatusClientClosedRequest, "canceled"},
		{errors.New("mystery"), http.StatusServiceUnavailable, "internal"},
	}
	for _, c := range cases {
		code, kind, _ := errStatus(c.err)
		if code != c.code || kind != c.kind {
			t.Errorf("errStatus(%v) = (%d, %q), want (%d, %q)", c.err, code, kind, c.code, c.kind)
		}
	}
}

// waitFor polls cond until true or the deadline.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// buildModel builds a named benchmark model via the request path.
func buildModel(t *testing.T, name string) *graph.Graph {
	t.Helper()
	g, err := requestGraph(&RunRequest{Model: name})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tinyGraph is a minimal three-layer network for custom-graph tests.
func tinyGraph() *graph.Graph {
	g := graph.New("tiny", tensor.Int8)
	in := g.Input("input", tensor.NewShape(32, 32, 3))
	c1 := g.MustAdd("conv1", ops.NewConv2D(3, 3, 1, 1, 8,
		ops.SamePad(tensor.NewShape(32, 32, 3), 3, 3, 1, 1, 1, 1)), in)
	g.MustAdd("pool", ops.MaxPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}, c1)
	return g
}

// statsOnWrite records the server's stats when the reply's first byte
// goes out, which is the earliest a client can read it.
type statsOnWrite struct {
	*httptest.ResponseRecorder
	s    *Server
	seen *Stats
}

func (w *statsOnWrite) Write(p []byte) (int, error) {
	if w.seen == nil {
		st := w.s.Stats()
		w.seen = &st
	}
	return w.ResponseRecorder.Write(p)
}

// A client that has read its reply must not see its own request still
// executing or queued: every reply, success or error, goes out only
// after the request's slot and admission are released.
func TestReplyWrittenAfterRelease(t *testing.T) {
	s := New(Options{})
	for _, c := range []struct {
		path, body string
		code       int
	}{
		{"/run", `{"Model":"TinyCNN"}`, http.StatusOK},
		{"/run", `{"Model":"TinyCNN","Faults":"kill=1@5000","Recover":true}`, http.StatusOK},
		{"/run", `{"Model":"NoSuchNet"}`, http.StatusBadRequest},
		{"/run", `{"Bogus":1}`, http.StatusBadRequest},
		{"/tenants", `{"Spec":"kbd=TinyCNN:slo=600","HorizonUS":500}`, http.StatusOK},
	} {
		w := &statsOnWrite{ResponseRecorder: httptest.NewRecorder(), s: s}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if w.Code != c.code {
			t.Errorf("%s %s: status %d, want %d: %s", c.path, c.body, w.Code, c.code, w.Body)
			continue
		}
		if w.seen == nil {
			t.Errorf("%s %s: no reply body", c.path, c.body)
		} else if w.seen.InFlight != 0 || w.seen.Queued != 0 {
			t.Errorf("%s %s: reply written with in-flight %d, queued %d; want both 0",
				c.path, c.body, w.seen.InFlight, w.seen.Queued)
		}
	}
}
