package sim_test

import (
	. "repro/internal/sim"

	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/plan"
)

// engines lists both implementations; cancellation must behave the
// same through either entry point.
var cancelEngines = []struct {
	name string
	run  func(*plan.Program, Config) (*Result, error)
}{
	{"event", Run},
	{"reference", RunReference},
}

// cancelProgram compiles a mid-sized network once for the cancellation
// tests.
func cancelProgram(t *testing.T) *plan.Program {
	t.Helper()
	res, err := core.Compile(convNet(6), arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res.Program
}

// TestCancelPreCanceled: a context canceled before the run starts must
// abort at the first checkpoint with the typed error, before any
// instruction retires.
func TestCancelPreCanceled(t *testing.T) {
	p := cancelProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range cancelEngines {
		_, err := e.run(p, Config{Ctx: ctx})
		if err == nil {
			t.Fatalf("%s: pre-canceled context: run succeeded", e.name)
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: got %T (%v), want *CanceledError", e.name, err, err)
		}
		if ce.Completed != 0 {
			t.Errorf("%s: %d instructions retired before the first checkpoint", e.name, ce.Completed)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: error does not match ErrCanceled", e.name)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error does not unwrap to context.Canceled", e.name)
		}
	}
}

// TestCancelDeadline: an already-expired deadline surfaces as
// context.DeadlineExceeded through the typed error.
func TestCancelDeadline(t *testing.T) {
	p := cancelProgram(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, e := range cancelEngines {
		_, err := e.run(p, Config{Ctx: ctx})
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: got %v, want CanceledError wrapping DeadlineExceeded", e.name, err)
		}
	}
}

// TestCancelBitIdentity: a live context must not perturb the run — the
// checkpoints only observe. Both engines must produce results
// bit-identical to their nil-context runs.
func TestCancelBitIdentity(t *testing.T) {
	p := cancelProgram(t)
	for _, e := range cancelEngines {
		plainRec, ctxedRec := &Recorder{}, &Recorder{}
		plain, err := e.run(p, Config{Hook: plainRec})
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := e.run(p, Config{Hook: ctxedRec, Ctx: context.Background()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.Stats, ctxed.Stats) {
			t.Errorf("%s: stats differ with a live context", e.name)
		}
		if !reflect.DeepEqual(plainRec.Events, ctxedRec.Events) {
			t.Errorf("%s: trace differs with a live context", e.name)
		}
	}
}

// TestCancelMachineReuse: an aborted event-engine run leaves the pooled
// machine reusable — the next run on the same pool must be clean.
func TestCancelMachineReuse(t *testing.T) {
	p := cancelProgram(t)
	want, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := Run(p, Config{Ctx: ctx}); !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: got %v, want ErrCanceled", i, err)
		}
		got, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatalf("iteration %d: stats drifted after an aborted run", i)
		}
	}
}

// TestCancelMidRun: canceling from another goroutine while the run is
// in flight aborts it (cooperatively, so allow it to finish if the
// race resolves that way) without corrupting later runs.
func TestCancelMidRun(t *testing.T) {
	p := cancelProgram(t)
	want, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		_, err := Run(p, Config{Ctx: ctx})
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("mid-run cancel: unexpected error %v", err)
		}
		cancel()
		got, err := Run(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Stats, got.Stats) {
			t.Fatal("stats drifted after a mid-run cancellation")
		}
	}
}
