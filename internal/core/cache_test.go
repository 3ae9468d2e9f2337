package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/graph"
	"repro/internal/keytest"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/partition"
	"repro/internal/stratum"
	"repro/internal/tensor"
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

func TestFingerprintCoversOptions(t *testing.T) {
	fresh := func() Options {
		o := Stratum()
		o.WeightScale = []float64{1, 0.9}
		o.ForceMethods = []partition.MethodID{partition.MethodAuto, partition.MethodAuto}
		o.StratumBoundary = []stratum.Boundary{stratum.BoundaryAuto, stratum.BoundaryAuto}
		return o
	}
	keytest.CheckEveryField(t, fresh, optKey)
	// Slices are length-prefixed: dropping an element changes the key.
	o := fresh()
	o.ForceMethods = o.ForceMethods[:1]
	if optKey(o) == optKey(fresh()) {
		t.Error("ForceMethods length ignored by the option key")
	}
}

func TestFingerprintCoversArch(t *testing.T) {
	fresh := func() arch.Arch { return *arch.Exynos2100Like() }
	keytest.CheckEveryField(t, fresh, func(a arch.Arch) uint64 { return ArchKey(&a) })
	a := fresh()
	a.Cores = a.Cores[:2]
	if ArchKey(&a) == ArchKey(arch.Exynos2100Like()) {
		t.Error("core count ignored by the arch key")
	}
}

// opSamples has one operator per kind, with distinct attributes.
func opSamples() []ops.Op {
	pad := ops.Padding{Top: 1, Bottom: 2, Left: 3, Right: 4}
	return []ops.Op{
		ops.Input{Shape: tensor.NewShape(8, 8, 3)},
		ops.Conv2D{KH: 3, KW: 3, StrideH: 1, StrideW: 2, DilH: 1, DilW: 2, Pad: pad, OutC: 16, Groups: 2},
		ops.DepthwiseConv2D{KH: 3, KW: 5, StrideH: 1, StrideW: 2, DilH: 1, DilW: 2, Pad: pad},
		ops.TransposeConv2D{KH: 2, KW: 3, StrideH: 2, StrideW: 1, Pad: pad, OutC: 8},
		ops.MaxPool2D{KH: 2, KW: 3, StrideH: 2, StrideW: 1, Pad: pad},
		ops.AvgPool2D{KH: 2, KW: 3, StrideH: 2, StrideW: 1, Pad: pad},
		ops.GlobalAvgPool{},
		ops.FullyConnected{OutC: 10},
		ops.Add{Arity: 2},
		ops.Mul{},
		ops.Concat{Arity: 2},
		ops.Activation{Func: ops.ReLU6},
		ops.Softmax{},
		ops.Resize{ScaleH: 2, ScaleW: 3, Mode: ops.Bilinear},
		ops.Crop{Top: 1, Bottom: 2, Left: 3, Right: 4},
		ops.ChannelSlice{From: 1, To: 5},
		ops.ChannelShuffle{Groups: 2},
	}
}

func opKey(o ops.Op) uint64 {
	return uint64(newKeyHash().op(o))
}

func TestFingerprintCoversOps(t *testing.T) {
	samples := opSamples()
	kinds := map[ops.Kind]bool{}
	for _, o := range samples {
		kinds[o.Kind()] = true
	}
	// Every declared kind has a sample, so a new operator cannot join
	// the graph language without joining this test.
	for k := ops.Kind(0); !strings.HasPrefix(k.String(), "Kind("); k++ {
		if !kinds[k] {
			t.Errorf("no sample for operator kind %v", k)
		}
	}
	for _, o := range samples {
		if allocs := testing.AllocsPerRun(10, func() { opKey(o) }); allocs != 0 {
			t.Errorf("%v: op key allocates %v times; is its kind missing from keyHash.op?", o.Kind(), allocs)
		}
		for _, path := range keytest.LeafPaths(reflect.ValueOf(o), nil) {
			v := reflect.New(reflect.TypeOf(o)).Elem()
			v.Set(reflect.ValueOf(o))
			name := keytest.Bump(t, v, path)
			if opKey(v.Interface().(ops.Op)) == opKey(o) {
				t.Errorf("perturbing %s leaves the key unchanged", name)
			}
		}
	}
	// The kind is part of the key: operators with equal attributes but
	// different kinds differ.
	same := [][2]ops.Op{
		{ops.MaxPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}, ops.AvgPool2D{KH: 2, KW: 2, StrideH: 2, StrideW: 2}},
		{ops.Add{Arity: 2}, ops.Concat{Arity: 2}},
		{ops.GlobalAvgPool{}, ops.Mul{}},
		{ops.Mul{}, ops.Softmax{}},
	}
	for _, p := range same {
		if opKey(p[0]) == opKey(p[1]) {
			t.Errorf("%v and %v with equal attributes share a key", p[0].Kind(), p[1].Kind())
		}
	}
}

func TestFingerprintCoversGraph(t *testing.T) {
	base := graphKey(models.TinyCNN())
	mutations := map[string]func(g *graph.Graph){
		"graph name":   func(g *graph.Graph) { g.Name += "x" },
		"graph dtype":  func(g *graph.Graph) { g.DType = tensor.Int16 },
		"layer name":   func(g *graph.Graph) { g.Layers()[2].Name += "x" },
		"layer op":     func(g *graph.Graph) { g.Layers()[1].Op = ops.Activation{Func: ops.ReLU} },
		"layer inputs": func(g *graph.Graph) { g.Layers()[2].Inputs = []graph.LayerID{0} },
		"layer shape":  func(g *graph.Graph) { g.Layers()[2].OutShape.C++ },
		"layer dtype":  func(g *graph.Graph) { g.Layers()[2].DType = tensor.Int16 },
	}
	for name, mutate := range mutations {
		g := models.TinyCNN()
		mutate(g)
		if graphKey(g) == base {
			t.Errorf("%s ignored by the graph key", name)
		}
	}
}

// TestFingerprintNoAllocs pins the key to zero allocations.
func TestFingerprintNoAllocs(t *testing.T) {
	g := models.InceptionV3()
	a := arch.Exynos2100Like()
	opt := Stratum()
	opt.WeightScale = []float64{1, 0.9, 1.1}
	if allocs := testing.AllocsPerRun(20, func() { Fingerprint(g, a, opt) }); allocs != 0 {
		t.Errorf("Fingerprint allocates %v times per call, want 0", allocs)
	}
}

var sinkKey CacheKey

func BenchmarkFingerprint(b *testing.B) {
	a := arch.Exynos2100Like()
	for _, m := range models.All() {
		g := m.Build()
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = Fingerprint(g, a, Stratum())
			}
		})
	}
}
