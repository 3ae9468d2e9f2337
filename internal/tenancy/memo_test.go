package tenancy

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/bounded"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/keytest"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// memoScenarios are the tenancy tests' scenarios plus the four tenant
// shapes of perfbench's run-degraded /tenants requests (arrivals and
// departures at the shapes' shares of the default horizon, models
// taken in turn).
var memoScenarios = []struct {
	name    string
	spec    string
	horizon float64
	base    bool
}{
	{"single", "only=TinyCNN", 2000, false},
	{"co-tenants", "a=ShuffleNetV2:prio=2,b=ShuffleNetV2", 5000, false},
	{"arrive-depart", "cam=MobileNetV2:prio=2:slo=8000,burst=ShuffleNetV2:prio=3:slo=8000:arrive=3000:depart=9000", 15000, false},
	{"queue", "t1=TinyCNN:prio=3:depart=4000,t2=TinyCNN:prio=3,t3=TinyCNN:prio=3,late=TinyCNN", 8000, false},
	{"slo-solo", "p=ShuffleNetV2", 3000, false},
	{"slo-duo", "p=ShuffleNetV2,q=ShuffleNetV2", 3000, false},
	{"slo-departure", "p=ShuffleNetV2:slo=700,q=ShuffleNetV2:slo=700:depart=1500", 3000, false},
	{"base", "b=TinyCNN", 1000, true},
	{"shape1", "t0=InceptionV3:prio=1:slo=5000,t1=MobileNetV2:prio=2:slo=4000:arrive=5317", 0, false},
	{"shape2", "t0=MobileNetV2-SSD:prio=2:slo=6000,t1=MobileDet-SSD:prio=1:slo=6000:arrive=10421", 0, false},
	{"shape3", "t0=InceptionV3:prio=1:slo=5000,t1=MobileNetV2:prio=3:slo=3000:arrive=4210,t2=MobileNetV2-SSD:prio=2:slo=7000:arrive=9733", 0, false},
	{"shape4", "t0=MobileDet-SSD:prio=2:slo=6000,t1=InceptionV3:prio=3:slo=8000:arrive=6604:depart=11388,t2=MobileNetV2:prio=1:slo=3000:arrive=12555", 0, false},
}

// runScenario runs scenario i and returns its report's JSON bytes.
func runScenario(i int, simCfg sim.Config) ([]byte, error) {
	sc := memoScenarios[i]
	tenants, err := ParseSpec(sc.spec)
	if err != nil {
		return nil, err
	}
	opts := Options{HorizonUS: sc.horizon, Sim: simCfg}
	if sc.base {
		opts.Opt, opts.OptSet = core.Base(), true
	}
	rep, err := Run(arch.Exynos2100Like(), tenants, opts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = rep.WriteJSON(&buf)
	return buf.Bytes(), err
}

// useMemo installs a fresh memo of the given bound for the rest of the
// test: bound 0 stores nothing, so every co-run simulates, exactly as
// with a memo cleared before each one.
func useMemo(t *testing.T, limit int) {
	t.Helper()
	prev := memo
	memo = bounded.New[string, []streamRun](limit)
	t.Cleanup(func() { memo = prev })
}

// A warm memo must not change a single byte of any report: every
// scenario runs with a cold memo, then twice with a warm one (the
// first run fills it, the second is served from it).
func TestMemoReportsMatchCold(t *testing.T) {
	for i, sc := range memoScenarios {
		t.Run(sc.name, func(t *testing.T) {
			useMemo(t, 0)
			cold, err := runScenario(i, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			useMemo(t, memoEntries)
			fill, err := runScenario(i, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			h0, m0 := MemoStats()
			warm, err := runScenario(i, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			h1, m1 := MemoStats()
			if !bytes.Equal(cold, fill) || !bytes.Equal(cold, warm) {
				t.Errorf("reports differ:\ncold %s\nfill %s\nwarm %s", cold, fill, warm)
			}
			if h1 == h0 || m1 != m0 {
				t.Errorf("warm rerun: %d hits, %d misses; want every co-run a hit", h1-h0, m1-m0)
			}
		})
	}
}

// A fault plan bypasses the memo: it neither reads nor fills it.
func TestMemoBypassedUnderFaults(t *testing.T) {
	useMemo(t, memoEntries)
	plan, err := fault.ParseSpec("kill=0@2000", 1)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []Tenant{
		{Name: "p", Model: "TinyCNN", Priority: 2},
		{Name: "q", Model: "TinyCNN", Priority: 1},
	}
	for range 2 {
		rep, err := Run(arch.Exynos2100Like(), tenants, Options{HorizonUS: 4000, Sim: sim.Config{Faults: plan}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CoSims == 0 {
			t.Fatal("no co-runs")
		}
	}
	if h, m := MemoStats(); h != 0 || m != 0 || memo.Len() != 0 {
		t.Errorf("faulted runs touched the memo: %d hits, %d misses, %d entries", h, m, memo.Len())
	}
}

// Concurrent runs of the same specs share the memo (run under -race)
// and still produce the serial report.
func TestMemoConcurrentRuns(t *testing.T) {
	useMemo(t, memoEntries)
	const idx = 2 // arrive-depart: preemptions, suffixes and re-maps
	want, err := runScenario(idx, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	useMemo(t, memoEntries)
	var wg sync.WaitGroup
	got := make([][]byte, 4)
	errs := make([]error, len(got))
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = runScenario(idx, sim.Config{})
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !bytes.Equal(got[g], want) {
			t.Errorf("goroutine %d: report differs from the serial run", g)
		}
	}
}

// A context that is already done must cancel the co-run even when it
// is in the memo: the memo is bypassed and the engine returns its own
// error.
func TestMemoHitStillCancels(t *testing.T) {
	useMemo(t, memoEntries)
	if _, err := runScenario(1, sim.Config{}); err != nil {
		t.Fatal(err)
	}
	h0, m0 := MemoStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runScenario(1, sim.Config{Ctx: ctx})
	var ce *sim.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, sim.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled run on a warm memo returned %v, want the engine's *sim.CanceledError", err)
	}
	if h, m := MemoStats(); h != h0 || m != m0 {
		t.Errorf("canceled run consulted the memo: %d hits, %d misses", h-h0, m-m0)
	}
}

// memoKeyInputs is everything the co-run key covers.
type memoKeyInputs struct {
	Arch    arch.Arch
	Resume  []core.CacheKey
	Full    []core.CacheKey
	Cores   [][]int
	EpochUS float64
}

// The key must change with every arch field, every field of each
// stream's compile keys, its cores, and the epoch length.
func TestMemoKeyCoversInputs(t *testing.T) {
	fresh := func() memoKeyInputs {
		return memoKeyInputs{
			Arch:    *arch.Exynos2100Like(),
			Resume:  []core.CacheKey{{Graph: 7, Arch: 8, Opt: 9}, {Graph: 10, Arch: 11, Opt: 12}},
			Full:    []core.CacheKey{{Graph: 1, Arch: 2, Opt: 3}, {Graph: 4, Arch: 5, Opt: 6}},
			Cores:   [][]int{{0, 1}, {2}},
			EpochUS: 2000,
		}
	}
	remapped := func(k core.CacheKey) *recovery.Remapped {
		return &recovery.Remapped{Compiled: &core.Result{Key: k}}
	}
	key := func(in memoKeyInputs) string {
		admitted := make([]*tenantState, len(in.Full))
		for i := range in.Full {
			admitted[i] = &tenantState{full: remapped(in.Full[i]), resume: remapped(in.Resume[i]), cores: in.Cores[i]}
		}
		k, ok := coRunKey(&in.Arch, admitted, in.EpochUS)
		if !ok {
			t.Fatal("keyed programs bypassed the memo")
		}
		return k
	}
	keytest.CheckEveryField(t, fresh, key)
	// Moving a core between placements keeps the flattened core list
	// but must change the key.
	moved := fresh()
	moved.Cores = [][]int{{0}, {1, 2}}
	if key(moved) == key(fresh()) {
		t.Error("core subsets are not delimited in the key")
	}
	// A stream without a resumed suffix differs from every stream with
	// one.
	plain := []*tenantState{{full: remapped(core.CacheKey{Graph: 1}), cores: []int{0}}}
	withSuffix := []*tenantState{{full: remapped(core.CacheKey{Graph: 1}), resume: remapped(core.CacheKey{Graph: 1}), cores: []int{0}}}
	k1, _ := coRunKey(arch.Exynos2100Like(), plain, 1)
	k2, _ := coRunKey(arch.Exynos2100Like(), withSuffix, 1)
	if k1 == k2 {
		t.Error("a resumed suffix does not change the key")
	}
	// A program compiled outside the cache has no key: bypass.
	for _, ts := range []*tenantState{
		{full: remapped(core.CacheKey{}), cores: []int{0}},
		{full: remapped(core.CacheKey{Graph: 1}), resume: remapped(core.CacheKey{}), cores: []int{0}},
	} {
		if _, ok := coRunKey(arch.Exynos2100Like(), []*tenantState{ts}, 1); ok {
			t.Error("a program without a CacheKey was memoized")
		}
	}
}

// The memo serves a clean co-run for any sim.Config without a fault
// plan, which is sound only while no other Config field can change a
// clean run: Ctx stops it early (bypassed once done), Hook is replaced,
// and the watchdog arms only under faults. A new Config field must be
// added here after deciding whether it needs its own bypass.
func TestMemoBypassCoversSimConfig(t *testing.T) {
	var got []string
	cfg := reflect.TypeOf(sim.Config{})
	for i := range cfg.NumField() {
		got = append(got, cfg.Field(i).Name)
	}
	want := []string{"Ctx", "Faults", "Hook", "WatchdogCycles"}
	if !slices.Equal(got, want) {
		t.Errorf("sim.Config fields %v, want %v: review the co-run memo's bypass rule", got, want)
	}
}

// The memo never holds more than its bound: past it, each new key
// evicts the oldest, and a key stored twice (two concurrent misses)
// takes one slot.
func TestMemoBounded(t *testing.T) {
	m := bounded.New[string, []streamRun](2)
	r := []streamRun{{}}
	for _, k := range []string{"a", "b", "b", "c", "d"} {
		m.Put(k, r)
	}
	for k, want := range map[string]bool{"a": false, "b": false, "c": true, "d": true} {
		if _, ok := m.Get(k); ok != want {
			t.Errorf("key %q held = %v, want %v", k, ok, want)
		}
	}
	if m.Len() != 2 {
		t.Errorf("memo holds %d runs; bound 2", m.Len())
	}
	if h, miss := m.Stats(); h != 2 || miss != 2 {
		t.Errorf("memo counted %d hits, %d misses; want 2 and 2", h, miss)
	}
	none := bounded.New[string, []streamRun](0)
	none.Put("a", r)
	if none.Len() != 0 {
		t.Error("a zero-bound memo stored a run")
	}
}
