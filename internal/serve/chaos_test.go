package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// chaosPanicSeed is the magic FaultSeed the soak's injected
// beforeExecute hook panics on.
const chaosPanicSeed = 0xdead

// chaosBaseline is the ground truth for one model: what a direct
// library run reports, clean and under the soak's deterministic
// fault plan.
type chaosBaseline struct {
	model       string
	instrs      int
	clean       sim.Stats
	faulted     sim.Stats
	faultedFail bool    // deterministic fault plan kills the run
	degraded    float64 // recovered end-to-end cycles after the hang
	corruptions int     // strata the flip plan corrupts
}

const chaosFaultSpec = "drop=0.05"
const chaosFaultSeed = 42

// The hang soak: core 1 silently stalls early, the watchdog catches it
// within two beats, and (with Recover set) the request completes
// degraded on the survivors.
const (
	chaosHangSpec = "hang=1@1000"
	chaosWatchdog = 5000
	chaosFlipSpec = "flip=0.3"
)

// TestChaosSoak hammers an in-process server with concurrent clean
// runs, fault-injected runs, client cancellations, 1ms deadlines,
// malformed bodies, injected panics, and queue pressure — then
// asserts that no panic escaped, the counters balance, every
// completed response is bit-identical to a direct engine run, and no
// goroutines leak after drain. Run it with -race.
func TestChaosSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	modelNames := []string{"MobileNetV2", "ResNet50", "InceptionV3", "MobileDet-SSD"}
	baselines := make(map[string]*chaosBaseline, len(modelNames))
	a := arch.Exynos2100Like()
	for _, name := range modelNames {
		g := buildModel(t, name)
		res, err := core.CompileCached(g, a, core.Stratum())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		clean, err := sim.Run(res.Program, sim.Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := &chaosBaseline{model: name, instrs: res.Program.NumInstrs(), clean: clean.Stats}
		plan, err := fault.ParseSpec(chaosFaultSpec, chaosFaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if faulted, err := sim.Run(res.Program, sim.Config{Faults: plan}); err != nil {
			b.faultedFail = true
		} else {
			b.faulted = faulted.Stats
		}
		// Ground truth for the hang-and-recover path: the watchdog must
		// detect, and recovery on the survivors is deterministic.
		hangPlan, err := fault.ParseSpec(chaosHangSpec, 0)
		if err != nil {
			t.Fatal(err)
		}
		hangCfg := sim.Config{Faults: hangPlan, WatchdogCycles: chaosWatchdog}
		_, herr := sim.Run(res.Program, hangCfg)
		var hd *sim.HangDetected
		if !errors.As(herr, &hd) {
			t.Fatalf("%s: hang soak plan did not trigger detection: %v", name, herr)
		}
		rec, err := recovery.RecoverFrom(g, a, herr, recovery.Options{Opt: core.Stratum(), Sim: hangCfg})
		if err != nil {
			t.Fatalf("%s: hang recovery baseline: %v", name, err)
		}
		b.degraded = rec.TotalCycles
		// Ground truth for flip detection counts.
		flipPlan, err := fault.ParseSpec(chaosFlipSpec, chaosFaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		flipped, err := sim.Run(res.Program, sim.Config{Faults: flipPlan})
		if err != nil {
			t.Fatalf("%s: flip run failed: %v", name, err)
		}
		if len(flipped.Corruptions) == 0 {
			t.Fatalf("%s: flip soak plan corrupts nothing", name)
		}
		b.corruptions = len(flipped.Corruptions)
		baselines[name] = b
	}

	s := New(Options{Concurrency: 4, Queue: 4})
	s.beforeExecute = func(req *RunRequest) {
		if req.FaultSeed == chaosPanicSeed {
			panic("chaos: injected panic")
		}
	}
	ts := httptest.NewServer(s.Handler())

	workers, iters := 8, 20
	if testing.Short() {
		workers, iters = 4, 8
	}
	var wg sync.WaitGroup
	errCh := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				if err := chaosStep(ts, rng, modelNames, baselines); err != nil {
					errCh <- fmt.Errorf("worker %d step %d: %w", w, i, err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The server must still be fully healthy after the storm.
	if code := getStatus(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after soak = %d", code)
	}
	code, rr, er := postRun(t, ts, RunRequest{Model: modelNames[0]})
	if code != http.StatusOK {
		t.Fatalf("clean request after soak: %d %+v", code, er)
	}
	if b := baselines[modelNames[0]]; rr.TotalCycles != b.clean.TotalCycles {
		t.Errorf("post-soak response drifted: %v cycles, want %v", rr.TotalCycles, b.clean.TotalCycles)
	}

	// Handlers of requests their clients abandoned may still be running:
	// wait, boundedly, for the server to go idle before reading counters
	// that only balance at rest.
	deadline := time.Now().Add(10 * time.Second)
	st := s.Stats()
	for st.InFlight != 0 || st.Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server not idle 10s after the soak: in-flight %d, queued %d", st.InFlight, st.Queued)
		}
		time.Sleep(time.Millisecond)
		st = s.Stats()
	}
	if st.Accepted != st.Completed+st.Failed+st.Canceled {
		t.Errorf("counters do not balance: %+v", st)
	}
	if st.Panics == 0 {
		t.Error("soak injected panics but none were recorded")
	}

	// Drain and verify nothing leaked. ts.Close tears down the client
	// pool and per-connection goroutines; give the runtime a moment.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	ts.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after drain\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// chaosStep fires one randomized request and checks its outcome.
// Under queue pressure any request may legitimately shed with 429, so
// every case accepts that alongside its specific expectation.
func chaosStep(ts *httptest.Server, rng *rand.Rand, names []string, baselines map[string]*chaosBaseline) error {
	model := names[rng.Intn(len(names))]
	switch rng.Intn(9) {
	case 0: // clean run: bit-identical to the direct engine run
		code, rr, er := doRun(ts, nil, RunRequest{Model: model})
		switch code {
		case http.StatusOK:
			b := baselines[model]
			if rr.TotalCycles != b.clean.TotalCycles || rr.Barriers != b.clean.Barriers || rr.Instrs != b.instrs {
				return fmt.Errorf("%s served (%v cycles, %d barriers, %d instrs), direct run says (%v, %d, %d)",
					model, rr.TotalCycles, rr.Barriers, rr.Instrs, b.clean.TotalCycles, b.clean.Barriers, b.instrs)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("clean %s: status %d %+v", model, code, er)
		}
	case 1: // deterministic fault plan: also bit-identical
		code, rr, er := doRun(ts, nil, RunRequest{Model: model, Faults: chaosFaultSpec, FaultSeed: chaosFaultSeed})
		b := baselines[model]
		switch code {
		case http.StatusOK:
			if b.faultedFail {
				return fmt.Errorf("faulted %s served, but the direct faulted run fails", model)
			}
			if rr.TotalCycles != b.faulted.TotalCycles {
				return fmt.Errorf("faulted %s served %v cycles, direct run says %v", model, rr.TotalCycles, b.faulted.TotalCycles)
			}
		case http.StatusUnprocessableEntity:
			if !b.faultedFail {
				return fmt.Errorf("faulted %s got 422 %+v, but the direct faulted run succeeds", model, er)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("faulted %s: status %d %+v", model, code, er)
		}
	case 2: // killed core: typed 422
		code, _, er := doRun(ts, nil, RunRequest{Model: model, Faults: "kill=1@1000"})
		switch code {
		case http.StatusUnprocessableEntity:
			if er.Kind != "core_failure" {
				return fmt.Errorf("kill fault: kind %q, want core_failure", er.Kind)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("kill fault: status %d %+v", code, er)
		}
	case 3: // client cancels mid-flight; any of the cancel shapes is fine
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(rng.Intn(3))*time.Millisecond, cancel)
		code, _, _ := doRun(ts, ctx, RunRequest{Model: model})
		cancel()
		switch code {
		case 0, http.StatusOK, StatusClientClosedRequest, http.StatusGatewayTimeout, http.StatusTooManyRequests:
		default:
			return fmt.Errorf("canceled request: unexpected status %d", code)
		}
	case 4: // 1ms deadline: deadline, shed, or (cache-warm) success
		code, _, _ := doRun(ts, nil, RunRequest{Model: model, TimeoutMS: 1})
		switch code {
		case http.StatusOK, http.StatusGatewayTimeout, http.StatusTooManyRequests, StatusClientClosedRequest:
		default:
			return fmt.Errorf("1ms deadline: unexpected status %d", code)
		}
	case 5: // malformed body or injected panic
		if rng.Intn(2) == 0 {
			resp, err := ts.Client().Post(ts.URL+"/run", "application/json",
				strings.NewReader(`{"Model": truncated`))
			if err != nil {
				return err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusTooManyRequests {
				return fmt.Errorf("malformed body: status %d", resp.StatusCode)
			}
		} else {
			code, _, er := doRun(ts, nil, RunRequest{Model: model, FaultSeed: chaosPanicSeed})
			switch code {
			case http.StatusInternalServerError:
				if er.Kind != "panic" {
					return fmt.Errorf("injected panic: kind %q", er.Kind)
				}
			case http.StatusTooManyRequests:
			default:
				return fmt.Errorf("injected panic: status %d %+v", code, er)
			}
		}
	case 6: // silent hang, watchdog armed, no recovery: typed 422
		code, _, er := doRun(ts, nil, RunRequest{
			Model: model, Faults: chaosHangSpec, WatchdogCycles: chaosWatchdog,
		})
		switch code {
		case http.StatusUnprocessableEntity:
			if er.Kind != "hang_detected" {
				return fmt.Errorf("hang fault: kind %q, want hang_detected", er.Kind)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("hang fault: status %d %+v", code, er)
		}
	case 7: // silent hang with recovery: degraded 200, bit-identical
		code, rr, er := doRun(ts, nil, RunRequest{
			Model: model, Faults: chaosHangSpec, WatchdogCycles: chaosWatchdog, Recover: true,
		})
		switch code {
		case http.StatusOK:
			if !rr.Degraded {
				return fmt.Errorf("recovered hang on %s not marked degraded", model)
			}
			if len(rr.DeadCores) != 1 || rr.DeadCores[0] != 1 {
				return fmt.Errorf("recovered hang on %s retired cores %v, want [1]", model, rr.DeadCores)
			}
			if b := baselines[model]; rr.TotalCycles != b.degraded {
				return fmt.Errorf("recovered hang on %s served %v cycles, direct recovery says %v",
					model, rr.TotalCycles, b.degraded)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("recovered hang: status %d %+v", code, er)
		}
	case 8: // bit flips: run completes, corruption count bit-identical
		code, rr, er := doRun(ts, nil, RunRequest{
			Model: model, Faults: chaosFlipSpec, FaultSeed: chaosFaultSeed,
		})
		switch code {
		case http.StatusOK:
			b := baselines[model]
			if rr.Corruptions != b.corruptions {
				return fmt.Errorf("flips on %s: served %d corruptions, direct run says %d",
					model, rr.Corruptions, b.corruptions)
			}
			if rr.TotalCycles != b.clean.TotalCycles {
				return fmt.Errorf("flips on %s changed timing: %v vs clean %v",
					model, rr.TotalCycles, b.clean.TotalCycles)
			}
			if rr.Degraded {
				return fmt.Errorf("flips on %s marked the run degraded", model)
			}
		case http.StatusTooManyRequests:
		default:
			return fmt.Errorf("flips on %s: status %d %+v", model, code, er)
		}
	}
	return nil
}

// doRun posts one /run request, optionally under ctx. A transport
// error (e.g. the context canceled mid-request) returns code 0.
func doRun(ts *httptest.Server, ctx context.Context, rr RunRequest) (int, *RunResponse, *ErrorResponse) {
	body, err := json.Marshal(rr)
	if err != nil {
		return 0, nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out RunResponse
		if json.NewDecoder(resp.Body).Decode(&out) != nil {
			return resp.StatusCode, nil, nil
		}
		return resp.StatusCode, &out, nil
	}
	var er ErrorResponse
	if json.NewDecoder(resp.Body).Decode(&er) != nil {
		return resp.StatusCode, nil, nil
	}
	return resp.StatusCode, nil, &er
}
