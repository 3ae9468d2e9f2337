// Package parallel provides the bounded worker pool the toolchain uses
// to exploit host cores: experiment sweeps, per-layer partition
// planning, design-space-explorer candidate evaluation, and the
// reference-executor kernels all fan out through it.
//
// The engine guarantees determinism: every task writes only its own
// index's slot, results are collected in index order, and the reported
// error (or re-raised panic) is always the one produced by the lowest
// failing index — exactly what a serial loop would surface first. A
// parallel run is therefore byte-for-byte identical to a serial run;
// only wall-clock time differs.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// workers holds the configured worker count; 0 means "use
// runtime.GOMAXPROCS(0)" so the default tracks the host.
var workers atomic.Int64

// Workers returns the effective worker count: the value set by
// SetWorkers, or runtime.GOMAXPROCS(0) when unset.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers fixes the pool size for subsequent ForEach/Map calls.
// n == 1 forces the serial path everywhere; n <= 0 restores the
// GOMAXPROCS default. It returns the previous effective value.
func SetWorkers(n int) int {
	prev := Workers()
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
	return prev
}

// Serial reports whether the engine is configured to run serially.
func Serial() bool { return Workers() <= 1 }

// failure records what went wrong at one index: at most one of err and
// panicked is meaningful.
type failure struct {
	index    int
	err      error
	panicked any
}

// run executes fn(0..n-1) on a bounded pool. It returns the failure of
// the lowest failing index, if any. Indexes above a known failure may
// be skipped: their results are never observed, because the caller
// either returns the error or re-panics.
func run(n int, fn func(i int) error) *failure {
	if n <= 0 {
		return nil
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f := invoke(i, fn)
			if f != nil {
				return f
			}
		}
		return nil
	}

	var (
		next   atomic.Int64 // next index to claim
		bail   atomic.Int64 // lowest known failing index + 1 (0 = none)
		mu     sync.Mutex
		worst  *failure
		record = func(f *failure) {
			mu.Lock()
			if worst == nil || f.index < worst.index {
				worst = f
			}
			mu.Unlock()
			for {
				cur := bail.Load()
				if cur != 0 && cur <= int64(f.index)+1 {
					return
				}
				if bail.CompareAndSwap(cur, int64(f.index)+1) {
					return
				}
			}
		}
	)

	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				// Skip work that cannot matter: a lower index already
				// failed, so the caller will never look at slot i.
				if b := bail.Load(); b != 0 && int64(i) > b-1 {
					continue
				}
				if f := invoke(i, fn); f != nil {
					record(f)
				}
			}
		}()
	}
	wg.Wait()
	return worst
}

// invoke runs fn(i), converting a panic into a failure so it can be
// re-raised on the caller's goroutine (the reference executor uses
// panics to flag insufficient halos, and recover() only works on the
// panicking goroutine).
func invoke(i int, fn func(i int) error) (f *failure) {
	defer func() {
		if r := recover(); r != nil {
			f = &failure{index: i, panicked: r}
		}
	}()
	if err := fn(i); err != nil {
		return &failure{index: i, err: err}
	}
	return nil
}

// ForEach runs fn for every index in [0, n) on the worker pool and
// waits for completion. It returns the error of the lowest failing
// index; a panic in fn is re-raised on the calling goroutine.
func ForEach(n int, fn func(i int) error) error {
	return raise(run(n, fn))
}

// Map runs fn for every index in [0, n) and collects the results in
// index order. On error only the error of the lowest failing index is
// returned (with a nil slice), matching what a serial loop that stops
// at the first failure would report.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx[T](nil, n, func(_ context.Context, i int) (T, error) { return fn(i) })
}

// ForEachCtx is ForEach with cooperative cancellation: ctx is polled
// before each index runs, so a canceled sweep stops claiming work and
// returns ctx's error (unless a lower index already failed with its
// own error, which still wins — the serial-equivalence contract). A
// nil ctx behaves exactly like ForEach.
func ForEachCtx(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		f := run(n, func(i int) error { return fn(nil, i) })
		return raise(f)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f := run(n, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(ctx, i)
	})
	return raise(f)
}

// MapCtx is Map with cooperative cancellation; see ForEachCtx.
func MapCtx[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// raise converts a failure into the caller's error, re-panicking on
// the calling goroutine when the failure was a panic.
func raise(f *failure) error {
	if f == nil {
		return nil
	}
	if f.panicked != nil {
		panic(f.panicked)
	}
	return f.err
}
