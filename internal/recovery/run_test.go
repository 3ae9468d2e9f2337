package recovery_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/recovery"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/npu"
)

// handRolled is the simulate-then-recover sequence that serve, npu and
// npusim each carried before recovery.Run existed. It returns the
// merged statistics, the lost cores and the final run's corruption
// count, or serve's error: the recovery's cancellation, else the
// original typed failure.
func handRolled(g *graph.Graph, a *arch.Arch, prog *plan.Program, opts recovery.Options) (sim.Stats, []int, int, error) {
	out, err := sim.Run(prog, opts.Sim)
	if err == nil {
		return out.Stats, nil, len(out.Corruptions), nil
	}
	var cf *sim.CoreFailure
	var hd *sim.HangDetected
	if !errors.As(err, &cf) && !errors.As(err, &hd) {
		return sim.Stats{}, nil, 0, err
	}
	rec, rerr := recovery.RecoverFrom(g, a, err, opts)
	if rerr != nil {
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			return sim.Stats{}, nil, 0, rerr
		}
		return sim.Stats{}, nil, 0, err
	}
	return rec.MergedStats(), rec.DeadCores, len(rec.Final.Corruptions), nil
}

// postRun sends one /run request with Recover set.
func postRun(t *testing.T, ts *httptest.Server, req serve.RunRequest) (int, *serve.RunResponse, *serve.ErrorResponse) {
	t.Helper()
	req.Recover = true
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
		var rr serve.RunResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &rr, nil
	}
	var er serve.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, nil, &er
}

// TestRunTable pins recovery.Run on TinyCNN (+Stratum, three cores,
// ~34.6k clean cycles) for each fault kind, and requires serve, npu and
// the hand-rolled sequence to agree with it bit for bit.
func TestRunTable(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(serve.Options{}).Handler())
	defer ts.Close()

	cases := []struct {
		name     string
		spec     string
		seed     uint64
		watchdog float64
		failures int
		hangs    int
		dead     []int
		corrupt  bool
		fatal    bool // every core lost: the first typed failure comes back
	}{
		{name: "clean"},
		{name: "drop", spec: "drop=0.02", seed: 7},
		{name: "kill", spec: "kill=1@14000", failures: 1, dead: []int{1}},
		{name: "hang-watchdog", spec: "hang=1@10000", watchdog: 2000, hangs: 1, dead: []int{1}},
		{name: "flip", spec: "flip=0.05", seed: 3, corrupt: true},
		{name: "kill-then-hang", spec: "kill=0@9000,hang=1@8000", watchdog: 2000,
			failures: 1, hangs: 1, dead: []int{0, 1}},
		{name: "all-cores-dead", spec: "kill=0@5000,kill=1@6000,kill=2@7000", fatal: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *fault.Plan
			if tc.spec != "" {
				if p, err = fault.ParseSpec(tc.spec, tc.seed); err != nil {
					t.Fatal(err)
				}
			}
			opts := recovery.Options{Opt: opt, Sim: sim.Config{Faults: p, WatchdogCycles: tc.watchdog}}
			got, err := recovery.Run(g, a, res.Program, opts)
			wantStats, wantDead, wantCorrupt, wantErr := handRolled(g, a, res.Program, opts)
			rep, npuErr := npu.RunWithFaultsWatched(g, a, opt, p, tc.watchdog)
			code, rr, er := postRun(t, ts, serve.RunRequest{
				Model: "TinyCNN", Faults: tc.spec, FaultSeed: tc.seed, WatchdogCycles: tc.watchdog,
			})

			if tc.fatal {
				var cf *sim.CoreFailure
				if !errors.As(err, &cf) || cf.Core != 0 || cf.AtCycle != 5000 {
					t.Fatalf("Run error = %v, want the first core failure (core 0 at 5000)", err)
				}
				if !reflect.DeepEqual(err, wantErr) || !reflect.DeepEqual(err, npuErr) {
					t.Errorf("errors differ:\nRun:         %v\nhand-rolled: %v\nnpu:         %v", err, wantErr, npuErr)
				}
				if code != http.StatusUnprocessableEntity || er.Kind != "core_failure" {
					t.Errorf("serve: status %d kind %+v, want 422 core_failure", code, er)
				}
				return
			}
			if err != nil || wantErr != nil || npuErr != nil || code != http.StatusOK {
				t.Fatalf("Run %v, hand-rolled %v, npu %v, serve %d %+v", err, wantErr, npuErr, code, er)
			}

			// The Result itself.
			if got.Final == nil {
				t.Fatal("Final not set")
			}
			if got.Degraded() != (len(tc.dead) > 0) || len(got.Failures) != tc.failures ||
				len(got.Hangs) != tc.hangs || !reflect.DeepEqual(got.DeadCores, tc.dead) {
				t.Errorf("losses: degraded %v, %d failures, %d hangs, dead %v; want %d, %d, %v",
					got.Degraded(), len(got.Failures), len(got.Hangs), got.DeadCores, tc.failures, tc.hangs, tc.dead)
			}
			if (len(got.Final.Corruptions) > 0) != tc.corrupt {
				t.Errorf("corruptions = %d, want any: %v", len(got.Final.Corruptions), tc.corrupt)
			}
			merged := got.MergedStats()
			if merged.TotalCycles != got.TotalCycles {
				t.Errorf("merged cycles %v != TotalCycles %v", merged.TotalCycles, got.TotalCycles)
			}
			if got.Degraded() {
				if got.TotalCycles <= clean.Stats.TotalCycles {
					t.Errorf("degraded %v not slower than clean %v", got.TotalCycles, clean.Stats.TotalCycles)
				}
				// In kill-then-hang the kill fires before the watchdog's
				// detection, so a failure, when present, is the first loss.
				var first *sim.Stats
				if tc.failures > 0 {
					first = &got.Failures[0].Partial
				} else {
					first = &got.Hangs[0].Partial
				}
				if got.FirstAttempt() != first {
					t.Error("FirstAttempt is not the first loss's partial stats")
				}
			} else {
				if !reflect.DeepEqual(merged, got.Final.Stats) || got.FirstAttempt() != &got.Final.Stats {
					t.Error("clean run: MergedStats/FirstAttempt differ from Final.Stats")
				}
				if got.Suffix != nil || got.ReExecutedLayers() != 0 {
					t.Error("clean run carries a recovery suffix")
				}
				if tc.spec == "" && !reflect.DeepEqual(merged, clean.Stats) {
					t.Error("fault-free Run differs from a plain simulation")
				}
			}

			// Every surface agrees with it bit for bit.
			if !reflect.DeepEqual(merged, wantStats) || !reflect.DeepEqual(got.DeadCores, wantDead) ||
				len(got.Final.Corruptions) != wantCorrupt {
				t.Errorf("hand-rolled sequence differs: cycles %v vs %v, dead %v vs %v",
					merged.TotalCycles, wantStats.TotalCycles, got.DeadCores, wantDead)
			}
			if !reflect.DeepEqual(rep.Stats, merged) || rep.Degraded() != got.Degraded() ||
				!reflect.DeepEqual(rep.Failures, got.Failures) || !reflect.DeepEqual(rep.Hangs, got.Hangs) ||
				(rep.Recovery != nil) != got.Degraded() {
				t.Errorf("npu differs: cycles %v vs %v", rep.Stats.TotalCycles, merged.TotalCycles)
			}
			if rr.TotalCycles != merged.TotalCycles || rr.LatencyMicros != merged.LatencyMicros(a.ClockMHz) ||
				rr.Barriers != merged.Barriers || rr.Degraded != got.Degraded() ||
				!reflect.DeepEqual(rr.DeadCores, got.DeadCores) || rr.Corruptions != len(got.Final.Corruptions) {
				t.Errorf("serve differs: %+v", rr)
			}
		})
	}
}

// cancelAfter is a context whose Err starts reporting context.Canceled
// after a fixed number of polls, so a test can cancel between the first
// attempt and the recovery.
type cancelAfter struct {
	context.Context
	polls atomic.Int64
	limit int64 // < 0: never cancel
}

func (c *cancelAfter) Err() error {
	if n := c.polls.Add(1); c.limit >= 0 && n > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunCanceled: a cancellation before the first attempt and one
// during the recovery both come back as the context's error, never as
// the typed failure, exactly as in the hand-rolled sequence.
func TestRunCanceled(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fault.ParseSpec("kill=1@14000", 0)
	if err != nil {
		t.Fatal(err)
	}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	// Count the first attempt's polls, then cancel right after them.
	counter := &cancelAfter{Context: context.Background(), limit: -1}
	if _, err := sim.Run(res.Program, sim.Config{Ctx: counter, Faults: p}); err == nil {
		t.Fatal("kill plan did not fail the first attempt")
	}
	firstPolls := counter.polls.Load()

	for _, tc := range []struct {
		name string
		ctx  func() context.Context
	}{
		{"before-first-attempt", func() context.Context { return pre }},
		{"during-recovery", func() context.Context {
			return &cancelAfter{Context: context.Background(), limit: firstPolls}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := recovery.Options{Opt: opt, Sim: sim.Config{Ctx: tc.ctx(), Faults: p}}
			got, err := recovery.Run(g, a, res.Program, opts)
			if got != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, %v; want context.Canceled", got, err)
			}
			if _, lost := sim.LossOf(err); lost {
				t.Errorf("cancellation reported as the typed failure: %v", err)
			}
			opts.Sim.Ctx = tc.ctx()
			if _, _, _, want := handRolled(g, a, res.Program, opts); !errors.Is(want, context.Canceled) {
				t.Errorf("hand-rolled sequence returned %v", want)
			}
		})
	}
}
