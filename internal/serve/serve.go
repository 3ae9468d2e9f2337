// Package serve is the long-running JSON/HTTP front end of the
// compiler+simulator: npusim -serve exposes compile-and-simulate
// requests over the Table 2 benchmark models (and serialized custom
// graphs) as a service with serving-grade robustness — bounded
// admission with load shedding, per-request deadlines threaded as
// context cancellation through the compile pipeline and both sim
// engines, panic isolation per request, typed-error to HTTP-status
// mapping, and graceful drain on shutdown.
//
// Endpoints:
//
//	POST /run      compile + simulate one request (JSON body, RunRequest)
//	POST /tenants  co-schedule a multi-tenant serving scenario (TenantsRequest)
//	GET  /healthz  liveness: 200 while the process is up
//	GET  /readyz   readiness: 200 while accepting, 503 once draining
//	GET  /stats    counters, queue depths, latency percentiles (JSON)
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/recovery"
	"repro/internal/serialize"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/tiling"
)

// Options configures a Server. The zero value picks sensible defaults.
type Options struct {
	// Concurrency is the number of requests compiled/simulated at
	// once. Default: GOMAXPROCS.
	Concurrency int
	// Queue is how many admitted requests may wait for an execution
	// slot beyond the Concurrency in flight. A request arriving with
	// the queue full is shed with 429 + Retry-After. Default:
	// 2*Concurrency.
	Queue int
	// DefaultTimeout bounds requests that do not set TimeoutMS.
	// Default: 30s.
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds the request body (custom graphs can be
	// large, but not unbounded). Default: 16 MiB.
	MaxBodyBytes int64
	// Logger receives request errors and recovered panics. nil
	// discards (tests); the CLI passes log.Default().
	Logger *log.Logger
}

func (o *Options) fill() {
	if o.Concurrency <= 0 {
		o.Concurrency = runtime.GOMAXPROCS(0)
	}
	if o.Queue <= 0 {
		o.Queue = 2 * o.Concurrency
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.Logger == nil {
		o.Logger = log.New(io.Discard, "", 0)
	}
}

// RunRequest is the POST /run body. Exactly one of Model and Graph
// must be set.
type RunRequest struct {
	// Model names a built-in benchmark network (Table 2 plus the
	// extra zoo): "MobileNetV2", "ResNet50", ...
	Model string `json:",omitempty"`
	// Graph is a serialized custom graph (the npuc -o / serialize
	// package JSON format).
	Graph json.RawMessage `json:",omitempty"`
	// Cores selects the architecture: 1 = single-core baseline, 3 =
	// Exynos-2100-like (default), n = homogeneous n-core.
	Cores int `json:",omitempty"`
	// Config is the optimization configuration: "base", "halo", or
	// "stratum" (default).
	Config string `json:",omitempty"`
	// Partition optionally forces a partitioning policy: "adaptive"
	// (default), "spatial", "channel".
	Partition string `json:",omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 uses
	// the server default. The deadline cancels the request wherever it
	// is — queued, compiling, or mid-simulation.
	TimeoutMS int `json:",omitempty"`
	// Faults optionally injects faults into the simulation, in
	// fault.ParseSpec syntax ("drop=0.02,kill=2@400000,hang=1@30000").
	Faults string `json:",omitempty"`
	// FaultSeed seeds the fault plan's probabilistic decisions.
	FaultSeed uint64 `json:",omitempty"`
	// WatchdogCycles arms the simulator's progress watchdog: every this
	// many simulated cycles, cores with pending work are checked for
	// forward progress, so a silent hang becomes a typed hang_detected
	// failure instead of a deadline miss. 0 leaves the watchdog off.
	WatchdogCycles float64 `json:",omitempty"`
	// Recover degrades instead of failing: when a core dies or the
	// watchdog detects a hang, the unexecuted suffix is re-mapped onto
	// the surviving cores and the request completes 200 with
	// Degraded=true and merged (wasted + recovered) statistics. False
	// keeps the typed 422 failure.
	Recover bool `json:",omitempty"`
}

// RunResponse is the POST /run success body. The cycle-level fields
// are bit-exact engine outputs (JSON float64 round-trips exactly), so
// clients can compare served results against direct library runs.
type RunResponse struct {
	Model         string
	Config        string
	Cores         int
	TotalCycles   float64
	LatencyMicros float64
	Barriers      int
	Instrs        int
	Fallback      string
	CacheHit      bool
	CompileMS     float64 `json:",omitempty"`
	ElapsedMS     float64
	// Degraded reports that the run lost cores mid-request and
	// completed via recovery on the survivors (RunRequest.Recover);
	// DeadCores lists the cores retired, in failure order. TotalCycles
	// then covers the wasted attempts, re-dispatch, and the final run.
	Degraded  bool  `json:",omitempty"`
	DeadCores []int `json:",omitempty"`
	// Corruptions counts strata whose boundary checksums caught flipped
	// DMA payloads (fault spec flip=RATE). The run still completes.
	Corruptions int `json:",omitempty"`
}

// TenantsRequest is the POST /tenants body: a multi-tenant serving
// scenario co-scheduled on one simulated platform. The success reply
// is the tenancy report JSON (per-tenant SLO hit rates, interference,
// remap counts) — deterministic for a given request.
type TenantsRequest struct {
	// Spec is the tenant list in tenancy.ParseSpec syntax:
	// "cam=MobileNetV2:prio=2:slo=9000,seg=DeepLabV3+:arrive=5000".
	Spec string
	// HorizonUS is the simulated serving window in microseconds; 0
	// picks the tenancy default (20 ms).
	HorizonUS float64 `json:",omitempty"`
	// Cores selects the architecture as in RunRequest (default 3).
	Cores int `json:",omitempty"`
	// Config is the optimization configuration (default "stratum").
	Config string `json:",omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 uses
	// the server default.
	TimeoutMS int `json:",omitempty"`
}

// ErrorResponse is the body of every non-2xx /run reply.
type ErrorResponse struct {
	Error string
	// Kind classifies the failure: "bad_request", "unfit",
	// "spm_overflow", "cannot_fit", "core_failure", "hang_detected",
	// "epoch_too_long", "deadline", "canceled", "queue_full",
	// "draining", "panic", "internal".
	Kind string
	// Retryable hints whether the same request may succeed later.
	Retryable bool
}

// Stats is the GET /stats body.
type Stats struct {
	Accepted  int64
	Rejected  int64
	Completed int64
	Failed    int64
	Canceled  int64
	Panics    int64
	InFlight  int64
	Queued    int64

	Concurrency int
	QueueLimit  int
	Draining    bool

	CompileCacheHits   int64
	CompileCacheMisses int64
	// CoRunMemoHits and CoRunMemoMisses count /tenants co-runs served
	// from, and simulated into, the tenancy co-run memo.
	CoRunMemoHits   int64
	CoRunMemoMisses int64

	Latency metrics.HistogramSnapshot
}

// Server is the serving state machine. Create with New, expose with
// Handler (or ListenAndServe), stop with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	sem      chan struct{} // execution slots (capacity Concurrency)
	queued   atomic.Int64  // admitted, waiting or executing
	inflight atomic.Int64  // holding a slot

	accepted  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	panics    atomic.Int64

	latency metrics.Histogram

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once

	mu      sync.Mutex // guards httpSrv (set by ListenAndServe, read by Shutdown)
	httpSrv *http.Server

	// beforeExecute, when set, runs at the top of every execution
	// (in-package tests inject panics and delays here).
	beforeExecute func(*RunRequest)
}

// New returns a ready Server.
func New(opts Options) *Server {
	opts.fill()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, opts.Concurrency),
		drainCh: make(chan struct{}),
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/tenants", s.handleTenants)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves on addr until Shutdown. It returns nil after
// a clean drain (http.ErrServerClosed is mapped to nil).
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.mux}
	s.mu.Lock()
	s.httpSrv = srv
	draining := s.draining.Load()
	s.mu.Unlock()
	if draining {
		// Shutdown won the race before we started listening.
		return nil
	}
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops admissions (new /run requests get 503, /readyz flips
// to 503) and drains: it returns once every admitted request has
// finished executing (and, under ListenAndServe, its reply is written)
// or ctx expires. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	for s.queued.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	hits, misses := core.CacheStats()
	memoHits, memoMisses := tenancy.MemoStats()
	return Stats{
		Accepted:           s.accepted.Load(),
		Rejected:           s.rejected.Load(),
		Completed:          s.completed.Load(),
		Failed:             s.failed.Load(),
		Canceled:           s.canceled.Load(),
		Panics:             s.panics.Load(),
		InFlight:           s.inflight.Load(),
		Queued:             s.queued.Load() - s.inflight.Load(),
		Concurrency:        s.opts.Concurrency,
		QueueLimit:         s.opts.Queue,
		Draining:           s.draining.Load(),
		CompileCacheHits:   hits,
		CompileCacheMisses: misses,
		CoRunMemoHits:      memoHits,
		CoRunMemoMisses:    memoMisses,
		Latency:            s.latency.Snapshot(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// retryAfterSeconds is the single source of the Retry-After header for
// every shedding path — the drain 503s (/run and /readyz) and the
// queue-full 429s: the estimated time for the current backlog to drain
// through the executing slots, from the observed mean request latency,
// rounded up to whole seconds and clamped to [1, 30]. With no latency
// history yet the estimate is the 1-second floor.
func (s *Server) retryAfterSeconds() int {
	mean := s.latency.Mean()
	if mean <= 0 {
		return 1
	}
	backlog := s.queued.Load()
	conc := int64(s.opts.Concurrency)
	waves := (backlog + conc - 1) / conc
	if waves < 1 {
		waves = 1
	}
	secs := int((time.Duration(waves)*mean + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Stats())
}

// handleRun is the admission + execution state machine:
//
//	reject (draining)  -> 503 + Retry-After
//	reject (queue full)-> 429 + Retry-After
//	parse error        -> 400
//	wait for slot      -> canceled while queued: 504/499; drain: 503
//	execute            -> success 200, typed failure per errStatus,
//	                      panic 500 (recovered, logged, process lives)
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	w, done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()

	req, err := s.decodeRequest(r)
	if err != nil {
		s.rejected.Add(1)
		writeErr(s, w, http.StatusBadRequest, "bad_request", err, false, 0)
		return
	}
	s.serveAdmitted(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		return s.execute(ctx, req)
	})
}

// handleTenants runs a multi-tenant co-scheduling scenario through the
// same bounded-admission state machine as /run.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	w, done, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer done()

	req, err := s.decodeTenantsRequest(r)
	if err != nil {
		s.rejected.Add(1)
		writeErr(s, w, http.StatusBadRequest, "bad_request", err, false, 0)
		return
	}
	s.serveAdmitted(w, r, req.TimeoutMS, func(ctx context.Context) (any, error) {
		return s.executeTenants(ctx, req)
	})
}

// admit performs the shed-before-decode steps shared by every POST
// endpoint: method check, drain shedding, and bounded admission — at
// most Concurrency executing plus Queue waiting; beyond that, shed
// immediately, since a deadline-bound client is better served by a
// fast 429 than by queueing past its deadline. When ok, the caller
// writes its reply to the returned writer and must defer done, which
// releases the admission and only then sends the reply: a client that
// has read its reply never sees its own request still counted.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (reply http.ResponseWriter, done func(), ok bool) {
	if r.Method != http.MethodPost {
		writeErr(s, w, http.StatusMethodNotAllowed, "bad_request",
			fmt.Errorf("use POST"), false, 0)
		return nil, nil, false
	}
	if s.draining.Load() {
		s.rejected.Add(1)
		writeErr(s, w, http.StatusServiceUnavailable, "draining",
			errors.New("server is draining"), true, s.retryAfterSeconds())
		return nil, nil, false
	}
	if depth := s.queued.Add(1); depth > int64(s.opts.Concurrency+s.opts.Queue) {
		s.queued.Add(-1)
		s.rejected.Add(1)
		writeErr(s, w, http.StatusTooManyRequests, "queue_full",
			fmt.Errorf("admission queue full (%d executing + %d queued)",
				s.opts.Concurrency, s.opts.Queue), true, s.retryAfterSeconds())
		return nil, nil, false
	}
	held := &heldReply{ResponseWriter: w, code: http.StatusOK}
	return held, func() {
		s.queued.Add(-1)
		w.WriteHeader(held.code)
		w.Write(held.body.Bytes())
	}, true
}

// heldReply holds a reply's status and body; its headers go straight
// to the underlying writer.
type heldReply struct {
	http.ResponseWriter
	code int
	body bytes.Buffer
}

func (h *heldReply) WriteHeader(code int)        { h.code = code }
func (h *heldReply) Write(p []byte) (int, error) { return h.body.Write(p) }

// elapsedSetter lets serveAdmitted stamp the measured wall time onto
// response types that report it.
type elapsedSetter interface{ setElapsed(time.Duration) }

func (r *RunResponse) setElapsed(d time.Duration) {
	r.ElapsedMS = float64(d) / float64(time.Millisecond)
}

// serveAdmitted finishes an admitted, decoded request: it waits for an
// execution slot under the request deadline, runs exec, and writes the
// JSON reply — the execution half of the state machine every POST
// endpoint shares. The reply is sent after the slot is free (see admit).
func (s *Server) serveAdmitted(w http.ResponseWriter, r *http.Request, timeoutMS int, exec func(context.Context) (any, error)) {
	timeout := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Wait for an execution slot. The deadline keeps ticking while
	// queued, and a drain releases every waiter.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.rejected.Add(1)
		code, kind, retryable := ctxStatus(ctx.Err())
		writeErr(s, w, code, kind, fmt.Errorf("expired while queued: %w", ctx.Err()), retryable, 0)
		return
	case <-s.drainCh:
		s.rejected.Add(1)
		writeErr(s, w, http.StatusServiceUnavailable, "draining",
			errors.New("server is draining"), true, s.retryAfterSeconds())
		return
	}
	s.accepted.Add(1)
	s.inflight.Add(1)
	start := time.Now()
	defer func() {
		s.inflight.Add(-1)
		<-s.sem
	}()

	resp, err := exec(ctx)
	elapsed := time.Since(start)
	if err != nil {
		code, kind, retryable := errStatus(err)
		switch kind {
		case "canceled", "deadline":
			s.canceled.Add(1)
		default:
			s.failed.Add(1)
		}
		writeErr(s, w, code, kind, err, retryable, 0)
		return
	}
	s.completed.Add(1)
	s.latency.Observe(elapsed)
	if es, ok := resp.(elapsedSetter); ok {
		es.setElapsed(elapsed)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// decodeRequest parses and validates the POST body.
func (s *Server) decodeRequest(r *http.Request) (*RunRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if (req.Model == "") == (len(req.Graph) == 0) {
		return nil, errors.New("exactly one of Model and Graph must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative TimeoutMS %d", req.TimeoutMS)
	}
	if req.WatchdogCycles < 0 {
		return nil, fmt.Errorf("negative WatchdogCycles %g", req.WatchdogCycles)
	}
	if req.Cores == 0 {
		req.Cores = 3
	}
	if req.Config == "" {
		req.Config = "stratum"
	}
	return &req, nil
}

// execute runs one admitted request end to end. A panic anywhere in
// the pipeline is recovered here: the request fails with 500, the
// stack is logged, and the server keeps serving.
func (s *Server) execute(ctx context.Context, req *RunRequest) (resp *RunResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.opts.Logger.Printf("serve: panic in /run (%s): %v\n%s", req.Model, p, debug.Stack())
			resp, err = nil, &panicError{val: p}
		}
	}()
	if s.beforeExecute != nil {
		s.beforeExecute(req)
	}

	g, err := requestGraph(req)
	if err != nil {
		return nil, badRequest(err)
	}
	a, err := cliutil.Arch(req.Cores)
	if err != nil {
		return nil, badRequest(err)
	}
	opt, err := cliutil.Config(req.Config)
	if err != nil {
		return nil, badRequest(err)
	}
	if req.Partition != "" {
		mode, err := cliutil.Mode(req.Partition)
		if err != nil {
			return nil, badRequest(err)
		}
		opt.Partitioning = mode
	}
	var plan *fault.Plan
	if req.Faults != "" {
		plan, err = fault.ParseSpec(req.Faults, req.FaultSeed)
		if err != nil {
			return nil, badRequest(err)
		}
	}

	t0 := time.Now()
	res, err := core.CompileCachedCtx(ctx, g, a, opt)
	if err != nil {
		return nil, err
	}
	compileMS := float64(time.Since(t0)) / float64(time.Millisecond)
	if res.CacheHit {
		compileMS = 0
	}

	simCfg := sim.Config{Ctx: ctx, Faults: plan, WatchdogCycles: req.WatchdogCycles}
	var rec *recovery.Result
	if req.Recover {
		// Degrade instead of failing: retire the lost cores, re-map the
		// unexecuted suffix onto the survivors, and answer 200 with the
		// merged account.
		rec, err = recovery.Run(res, recovery.Options{Opt: opt, Sim: simCfg})
	} else {
		// sim.Run, not res.Simulate, until the benchmark checks replies
		// as they arrive (ROADMAP "[benchmark]" item): reusing the
		// admission run multiplies throughput, and with it peak heap.
		var out *sim.Result
		out, err = sim.Run(res.Program, simCfg)
		rec = &recovery.Result{Final: out}
	}
	if err != nil {
		return nil, err
	}
	st := rec.MergedStats()
	return &RunResponse{
		Model:         g.Name,
		Config:        opt.Name(),
		Cores:         a.NumCores(),
		TotalCycles:   st.TotalCycles,
		LatencyMicros: st.LatencyMicros(a.ClockMHz),
		Barriers:      st.Barriers,
		Instrs:        res.Program.NumInstrs(),
		Fallback:      res.Fallback.String(),
		CacheHit:      res.CacheHit,
		CompileMS:     compileMS,
		Degraded:      rec.Degraded(),
		DeadCores:     rec.DeadCores,
		Corruptions:   len(rec.Final.Corruptions),
	}, nil
}

// decodeTenantsRequest parses and validates the POST /tenants body.
func (s *Server) decodeTenantsRequest(r *http.Request) (*TenantsRequest, error) {
	body := http.MaxBytesReader(nil, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req TenantsRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if req.Spec == "" {
		return nil, errors.New("Spec must be set")
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("negative TimeoutMS %d", req.TimeoutMS)
	}
	if req.Cores == 0 {
		req.Cores = 3
	}
	if req.Config == "" {
		req.Config = "stratum"
	}
	return &req, nil
}

// executeTenants runs one admitted /tenants request, with the same
// panic isolation as /run.
func (s *Server) executeTenants(ctx context.Context, req *TenantsRequest) (resp *tenancy.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.opts.Logger.Printf("serve: panic in /tenants: %v\n%s", p, debug.Stack())
			resp, err = nil, &panicError{val: p}
		}
	}()

	tenants, err := tenancy.ParseSpec(req.Spec)
	if err != nil {
		return nil, badRequest(err)
	}
	a, err := cliutil.Arch(req.Cores)
	if err != nil {
		return nil, badRequest(err)
	}
	opt, err := cliutil.Config(req.Config)
	if err != nil {
		return nil, badRequest(err)
	}
	return tenancy.Run(a, tenants, tenancy.Options{
		HorizonUS: req.HorizonUS,
		Opt:       opt,
		OptSet:    true,
		Sim:       sim.Config{Ctx: ctx},
	})
}

// requestGraph resolves the request's network: a named benchmark
// model, shared read-only across requests, or a serialized custom
// graph, decoded per request.
func requestGraph(req *RunRequest) (*graph.Graph, error) {
	if req.Model != "" {
		return models.Shared(req.Model)
	}
	g, err := serialize.LoadGraph(bytes.NewReader(req.Graph))
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	return g, nil
}

// panicError carries a recovered panic value as an error.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("internal panic: %v", e.val) }

// badRequestError marks client errors (400) raised inside execute.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(err error) error { return &badRequestError{err} }

// StatusClientClosedRequest is nginx's 499: the client canceled the
// request before a response was produced.
const StatusClientClosedRequest = 499

// errStatus maps an execution error to (HTTP status, kind, retryable).
// Deterministic configuration failures — the graph cannot be scheduled
// into SPM on this architecture — are 422s: retrying the identical
// request cannot succeed. Deadline and cancellation are 504/499.
// Anything unrecognized is a retryable 503 (fail open on transience).
func errStatus(err error) (code int, kind string, retryable bool) {
	var br *badRequestError
	if errors.As(err, &br) {
		return http.StatusBadRequest, "bad_request", false
	}
	var pe *panicError
	if errors.As(err, &pe) {
		return http.StatusInternalServerError, "panic", false
	}
	var unfit *core.UnfitError
	if errors.As(err, &unfit) {
		return http.StatusUnprocessableEntity, "unfit", false
	}
	var overflow *sim.SPMOverflowError
	if errors.As(err, &overflow) {
		return http.StatusUnprocessableEntity, "spm_overflow", false
	}
	var cannot *tiling.CannotFitError
	if errors.As(err, &cannot) {
		return http.StatusUnprocessableEntity, "cannot_fit", false
	}
	var cf *sim.CoreFailure
	if errors.As(err, &cf) {
		return http.StatusUnprocessableEntity, "core_failure", false
	}
	var hd *sim.HangDetected
	if errors.As(err, &hd) {
		return http.StatusUnprocessableEntity, "hang_detected", false
	}
	var cre *fault.CoreRangeError
	if errors.As(err, &cre) {
		return http.StatusBadRequest, "bad_request", false
	}
	var long *tenancy.EpochTooLongError
	if errors.As(err, &long) {
		return http.StatusUnprocessableEntity, "epoch_too_long", false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline", true
	}
	if errors.Is(err, context.Canceled) {
		return StatusClientClosedRequest, "canceled", false
	}
	return http.StatusServiceUnavailable, "internal", true
}

// ctxStatus maps a context error (request died while queued).
func ctxStatus(err error) (code int, kind string, retryable bool) {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout, "deadline", true
	}
	return StatusClientClosedRequest, "canceled", false
}

// writeErr sends the JSON error body. retryAfter > 0 adds the header
// (seconds).
func writeErr(s *Server, w http.ResponseWriter, code int, kind string, err error, retryable bool, retryAfter int) {
	if code >= 500 || code == StatusClientClosedRequest {
		s.opts.Logger.Printf("serve: %d %s: %v", code, kind, err)
	}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error(), Kind: kind, Retryable: retryable})
}
