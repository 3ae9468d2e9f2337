package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/models"
	"repro/internal/sim"
)

// TestCompileCtxNilMatchesCompile: a nil context is the plain path.
func TestCompileCtxNilMatchesCompile(t *testing.T) {
	g := smallCNN()
	a := arch.Exynos2100Like()
	res, err := CompileCtx(nil, g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.NumInstrs() == 0 {
		t.Fatal("empty program")
	}
}

// TestCompileCtxPreCanceled: an already-canceled context aborts before
// any stage runs.
func TestCompileCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompileCtx(ctx, smallCNN(), arch.Exynos2100Like(), Stratum())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// One sentinel covers every checkpoint: compile-stage cancellations
	// match sim.ErrCanceled just like mid-simulation ones.
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("got %v, want sim.ErrCanceled match", err)
	}
}

// TestCompileCtxDeadlineResNet50: the acceptance bound — a 1ms
// deadline against ResNet-50 must surface a typed deadline error well
// within 50ms of expiry (the checkpoints sit between stages, per
// planned layer, per emitted layer, and inside the admission sim).
func TestCompileCtxDeadlineResNet50(t *testing.T) {
	g := models.ByNameMust("ResNet50")
	a := arch.Exynos2100Like()
	deadline := 1 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := CompileCtx(ctx, g, a, Stratum())
	late := time.Since(start) - deadline
	if err == nil {
		t.Skip("ResNet50 compiled inside 1ms; nothing to cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if bound := 50 * time.Millisecond; late > bound {
		t.Errorf("deadline error arrived %v after expiry (bound %v)", late, bound)
	}
}

// TestCompileCachedCtxUncorrupted: a canceled compile must leave no
// cache entry behind; the identical follow-up compiles cleanly, and
// the one after that hits.
func TestCompileCachedCtxUncorrupted(t *testing.T) {
	ResetCache()
	g := smallCNN()
	a := arch.Exynos2100Like()
	opt := Stratum()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileCachedCtx(ctx, g, a, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	res, err := CompileCachedCtx(context.Background(), g, a, opt)
	if err != nil {
		t.Fatalf("follow-up compile failed: %v", err)
	}
	if res.CacheHit {
		t.Fatal("canceled compile left a cache entry")
	}

	hits0, _ := CacheStats()
	res2, err := CompileCachedCtx(context.Background(), g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := CacheStats(); hits != hits0+1 || !res2.CacheHit {
		t.Fatalf("third identical compile did not hit the cache (hits %d -> %d)", hits0, hits)
	}
	if res.Program.NumInstrs() != res2.Program.NumInstrs() {
		t.Fatal("cache round trip changed the program")
	}
}
