package core

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/models"
)

func TestFingerprintSensitivity(t *testing.T) {
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	base := Fingerprint(g, a, Base())

	// Rebuilding the same model must fingerprint identically — that is
	// what lets sweeps that rebuild graphs share compiles.
	if got := Fingerprint(models.TinyCNN(), a, Base()); got != base {
		t.Errorf("rebuilt graph fingerprints differ: %v vs %v", got, base)
	}
	// Each key component must react to its own input.
	if got := Fingerprint(models.ByNameMust("MobileNetV2"), a, Base()); got.Graph == base.Graph {
		t.Error("different model, same graph fingerprint")
	}
	if got := Fingerprint(g, arch.SingleCore(), Base()); got.Arch == base.Arch {
		t.Error("different arch, same arch fingerprint")
	}
	if got := Fingerprint(g, a, Stratum()); got.Opt == base.Opt {
		t.Error("different options, same option fingerprint")
	}
	opt := Base()
	opt.WeightScale = []float64{1, 0.9, 1.1}
	if got := Fingerprint(g, a, opt); got.Opt == base.Opt {
		t.Error("WeightScale ignored by the option fingerprint")
	}
	b := *a
	b.SyncBaseCycles++
	if got := Fingerprint(g, &b, Base()); got.Arch == base.Arch {
		t.Error("SyncBaseCycles ignored by the arch fingerprint")
	}
}

func TestCompileCachedBitIdentical(t *testing.T) {
	ResetCache()
	defer ResetCache()
	g := models.TinyCNN()
	a := arch.Exynos2100Like()

	fresh, err := Compile(g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	miss, err := CompileCached(g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	// A second call — even through a rebuilt graph — must hit.
	hit, err := CompileCached(models.TinyCNN(), a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := CacheStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// The hit flag is exact per call, and the stored entry never
	// carries it: a third lookup is marked again, and the entry the
	// cache holds stays unmarked.
	if fresh.CacheHit || miss.CacheHit || !hit.CacheHit {
		t.Errorf("CacheHit: fresh %v, miss %v, hit %v; want false, false, true",
			fresh.CacheHit, miss.CacheHit, hit.CacheHit)
	}
	again, err := CompileCached(g, a, Stratum())
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("second hit not marked")
	}
	if v, ok := compileCache.Load(Fingerprint(g, a, Stratum())); !ok || v.(*Result).CacheHit {
		t.Error("stored cache entry is missing or carries the hit mark")
	}
	if hit.Program != miss.Program {
		t.Error("cache hit rebuilt the program instead of sharing it")
	}
	if !reflect.DeepEqual(fresh.Plans, miss.Plans) ||
		!reflect.DeepEqual(fresh.Order, miss.Order) ||
		fresh.RedundantMACs != miss.RedundantMACs {
		t.Error("cached result differs from a fresh compile")
	}
	if len(fresh.Program.Cores) != len(miss.Program.Cores) {
		t.Fatal("program shape differs")
	}
	for c := range fresh.Program.Cores {
		if !reflect.DeepEqual(fresh.Program.Cores[c], miss.Program.Cores[c]) {
			t.Errorf("core %d instruction stream differs from fresh compile", c)
		}
	}
}

func TestCompileCachedDistinguishesPoints(t *testing.T) {
	ResetCache()
	defer ResetCache()
	g := models.TinyCNN()
	a := arch.Exynos2100Like()
	for _, opt := range []Options{Base(), Halo(), Stratum()} {
		if _, err := CompileCached(g, a, opt); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := CacheStats(); hits != 0 || misses != 3 {
		t.Errorf("stats = %d hits / %d misses, want 0/3", hits, misses)
	}
}
