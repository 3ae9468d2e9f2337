package tenancy

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestParseSpec(t *testing.T) {
	ts, err := ParseSpec("cam=MobileNetV2:prio=2:slo=4000, seg=DeepLabV3+:slo=40000:arrive=5000:depart=15000,kbd=TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tenant{
		{Name: "cam", Model: "MobileNetV2", Priority: 2, SLOUS: 4000},
		{Name: "seg", Model: "DeepLabV3+", Priority: 1, SLOUS: 40000, ArriveUS: 5000, DepartUS: 15000},
		{Name: "kbd", Model: "TinyCNN", Priority: 1},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %+v, want %+v", ts, want)
	}
	for _, bad := range []string{
		"",
		"MobileNetV2",                  // no name=
		"x=NoSuchModel",                // unknown model
		"x=TinyCNN:prio=abc",           // bad int
		"x=TinyCNN:wat=1",              // unknown key
		"x=TinyCNN,x=TinyCNN",          // duplicate name
		"x=TinyCNN:arrive=10:depart=5", // departs before arriving
		"x=TinyCNN:slo=-1",             // negative SLO
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestPlacePriorityAndSticky(t *testing.T) {
	a := arch.Exynos2100Like()
	mk := func(name string, prio, idx int) *tenantState {
		return &tenantState{spec: &Tenant{Name: name, Priority: prio}, index: idx}
	}

	// Single tenant owns the platform.
	solo := mk("solo", 1, 0)
	place(a, []*tenantState{solo}, nil)
	if !slices.Equal(solo.cores, []int{0, 1, 2}) {
		t.Errorf("solo cores = %v", solo.cores)
	}

	// Two tenants: the higher priority gets two cores, fastest first.
	hi, lo := mk("hi", 2, 0), mk("lo", 1, 1)
	place(a, []*tenantState{hi, lo}, nil)
	if len(hi.cores) != 2 || len(lo.cores) != 1 {
		t.Fatalf("shares hi=%v lo=%v", hi.cores, lo.cores)
	}
	if !slices.Equal(hi.cores, []int{0, 1}) || !slices.Equal(lo.cores, []int{2}) {
		t.Errorf("placement hi=%v lo=%v, want fastest-first", hi.cores, lo.cores)
	}

	// A third arrival shrinks hi to one core; sticky keeps a held core.
	third := mk("third", 1, 2)
	place(a, []*tenantState{hi, lo, third}, nil)
	if len(hi.cores) != 1 || len(lo.cores) != 1 || len(third.cores) != 1 {
		t.Fatalf("three-way shares hi=%v lo=%v third=%v", hi.cores, lo.cores, third.cores)
	}
	if hi.cores[0] != 0 {
		t.Errorf("hi lost its held fastest core: %v", hi.cores)
	}
	if lo.cores[0] != 2 {
		t.Errorf("lo moved despite holding core 2: %v", lo.cores)
	}
	// Disjoint coverage.
	seen := map[int]bool{}
	for _, ts := range []*tenantState{hi, lo, third} {
		for _, c := range ts.cores {
			if seen[c] {
				t.Fatalf("core %d assigned twice", c)
			}
			seen[c] = true
		}
	}
}

func TestRunSingleTenantNoInterference(t *testing.T) {
	a := arch.Exynos2100Like()
	rep, err := Run(a, []Tenant{{Name: "only", Model: "TinyCNN", Priority: 1}},
		Options{HorizonUS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Tenants[0]
	if tr.Inferences <= 1 {
		t.Fatalf("2 ms horizon fit only %d TinyCNN inferences", tr.Inferences)
	}
	// Back to back, the horizon fits floor(H/L) isolated latencies.
	g, err := buildModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileCached(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	iso, err := res.Simulate(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2000 * float64(a.ClockMHz) / iso.Stats.TotalCycles); tr.Inferences != want {
		t.Errorf("%d inferences in 2 ms, want floor(H/L) = %d", tr.Inferences, want)
	}
	// No SLO declared: everything counts as a hit.
	if tr.SLOHitPct != 100 {
		t.Errorf("hit rate %.1f%% without an SLO", tr.SLOHitPct)
	}
	// Alone on the platform, shared == isolated.
	if tr.InterferencePct != 0 {
		t.Errorf("solo tenant measured %.2f%% interference", tr.InterferencePct)
	}
	if tr.MeanLatencyUS != tr.IsolatedUS {
		t.Errorf("solo mean %.2f != isolated %.2f", tr.MeanLatencyUS, tr.IsolatedUS)
	}
	if !slices.Equal(tr.FinalCores, []int{0, 1, 2}) {
		t.Errorf("solo final cores %v", tr.FinalCores)
	}
}

func TestRunCoTenantsMeasureInterference(t *testing.T) {
	a := arch.Exynos2100Like()
	rep, err := Run(a, []Tenant{
		{Name: "a", Model: "ShuffleNetV2", Priority: 2},
		{Name: "b", Model: "ShuffleNetV2", Priority: 1},
	}, Options{HorizonUS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range rep.Tenants {
		if tr.Inferences == 0 {
			t.Fatalf("tenant %s served nothing", tr.Name)
		}
		if tr.InterferencePct < 0 {
			t.Errorf("tenant %s: negative interference %.2f%%", tr.Name, tr.InterferencePct)
		}
		if tr.MeanLatencyUS < tr.IsolatedUS {
			t.Errorf("tenant %s: shared %.1fus beat isolated %.1fus", tr.Name, tr.MeanLatencyUS, tr.IsolatedUS)
		}
	}
	// Bus sharing must actually show up for at least one tenant.
	if rep.Tenants[0].InterferencePct == 0 && rep.Tenants[1].InterferencePct == 0 {
		t.Error("two co-located tenants measured zero interference")
	}
}

// A mid-run arrival must preempt the incumbent at a stratum boundary
// and re-map it; a departure hands cores back. Same spec, same report.
func TestRunArrivalDepartureRemapsDeterministically(t *testing.T) {
	a := arch.Exynos2100Like()
	tenants := []Tenant{
		{Name: "cam", Model: "MobileNetV2", Priority: 2, SLOUS: 8000},
		{Name: "burst", Model: "ShuffleNetV2", Priority: 3, SLOUS: 8000, ArriveUS: 3000, DepartUS: 9000},
	}
	opts := Options{HorizonUS: 15000}
	rep, err := Run(a, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	cam := rep.Tenants[0]
	if cam.Remaps == 0 {
		t.Error("incumbent never re-mapped across the arrival/departure")
	}
	if cam.Preemptions == 0 {
		t.Error("incumbent never preempted at an epoch boundary")
	}
	if cam.Inferences == 0 {
		t.Error("incumbent served nothing")
	}
	burst := rep.Tenants[1]
	if burst.AdmittedUS != 3000 {
		t.Errorf("burst admitted at %.0f, arrived at 3000", burst.AdmittedUS)
	}
	if burst.Inferences == 0 {
		t.Error("burst tenant served nothing in its window")
	}
	if len(burst.FinalCores) != 0 {
		t.Errorf("departed tenant still holds cores %v", burst.FinalCores)
	}
	if !slices.Equal(cam.FinalCores, []int{0, 1, 2}) {
		t.Errorf("incumbent did not reclaim the platform: %v", cam.FinalCores)
	}
	if rep.Epochs != 3 {
		t.Errorf("expected 3 epochs (arrive/depart split), got %d", rep.Epochs)
	}

	again, err := Run(a, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("same spec produced different reports")
	}
	var b1, b2 bytes.Buffer
	if err := rep.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := again.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same spec produced different JSON bytes")
	}
}

// With more tenants than cores the lowest precedence queues, and is
// admitted once a departure frees a slot.
func TestRunAdmissionQueuesBeyondCores(t *testing.T) {
	a := arch.Exynos2100Like()
	rep, err := Run(a, []Tenant{
		{Name: "t1", Model: "TinyCNN", Priority: 3, DepartUS: 4000},
		{Name: "t2", Model: "TinyCNN", Priority: 3},
		{Name: "t3", Model: "TinyCNN", Priority: 3},
		{Name: "late", Model: "TinyCNN", Priority: 1},
	}, Options{HorizonUS: 8000})
	if err != nil {
		t.Fatal(err)
	}
	late := rep.Tenants[3]
	if late.AdmittedUS != 4000 {
		t.Errorf("queued tenant admitted at %.0f, want 4000 (t1's departure)", late.AdmittedUS)
	}
	if late.Inferences == 0 {
		t.Error("queued tenant never served after admission")
	}
	for _, tr := range rep.Tenants[:3] {
		if tr.AdmittedUS != 0 {
			t.Errorf("tenant %s admitted at %.0f, want 0", tr.Name, tr.AdmittedUS)
		}
	}
}

// SLO hit accounting: an SLO between the isolated and shared latency
// yields misses while co-located and hits once alone.
func TestRunSLOAccounting(t *testing.T) {
	a := arch.Exynos2100Like()
	// Baseline: measure solo and duo latencies via two probe runs.
	solo, err := Run(a, []Tenant{{Name: "p", Model: "ShuffleNetV2"}}, Options{HorizonUS: 3000})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Run(a, []Tenant{
		{Name: "p", Model: "ShuffleNetV2"},
		{Name: "q", Model: "ShuffleNetV2"},
	}, Options{HorizonUS: 3000})
	if err != nil {
		t.Fatal(err)
	}
	shared := duo.Tenants[0].MeanLatencyUS
	alone := solo.Tenants[0].MeanLatencyUS
	if shared <= alone {
		t.Skipf("no contention to exploit: shared %.1f <= solo %.1f", shared, alone)
	}
	slo := (shared + alone) / 2
	rep, err := Run(a, []Tenant{
		{Name: "p", Model: "ShuffleNetV2", SLOUS: slo},
		{Name: "q", Model: "ShuffleNetV2", SLOUS: slo, DepartUS: 1500},
	}, Options{HorizonUS: 3000})
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Tenants[0]
	if p.SLOHits == 0 {
		t.Error("no hits even after q departed")
	}
	if p.SLOHits == p.Inferences {
		t.Error("no misses even while q was co-located")
	}
	if p.SLOHitPct <= 0 || p.SLOHitPct >= 100 {
		t.Errorf("hit rate %.1f%%, want strictly between 0 and 100", p.SLOHitPct)
	}
}

// An epoch whose co-run would exceed the instruction cap fails with a typed
// error before its stream is built.
func TestRunRejectsHugeEpoch(t *testing.T) {
	a := arch.Exynos2100Like()
	start := time.Now()
	_, err := Run(a, []Tenant{{Name: "x", Model: "TinyCNN"}}, Options{HorizonUS: 1e12})
	var long *EpochTooLongError
	if !errors.As(err, &long) || long.Limit != maxEpochInstrs || long.Instrs <= maxEpochInstrs {
		t.Fatalf("1e12 us horizon: %v, want *EpochTooLongError", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejecting the epoch took %v", d)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	a := arch.Exynos2100Like()
	if _, err := Run(a, nil, Options{}); err == nil {
		t.Error("empty tenant list accepted")
	}
	if _, err := Run(a, []Tenant{{Name: "x", Model: "NoSuchModel"}}, Options{}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := Run(a, []Tenant{
		{Name: "x", Model: "TinyCNN"},
		{Name: "x", Model: "TinyCNN"},
	}, Options{}); err == nil {
		t.Error("duplicate tenant names accepted")
	}
}

// The scheduler must work under an explicit compiler configuration.
func TestRunWithExplicitOptions(t *testing.T) {
	a := arch.Exynos2100Like()
	rep, err := Run(a, []Tenant{{Name: "b", Model: "TinyCNN"}},
		Options{HorizonUS: 1000, Opt: core.Base(), OptSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Opt != core.Base().Name() {
		t.Errorf("report opt %q, want %q", rep.Opt, core.Base().Name())
	}
	if rep.Tenants[0].Inferences == 0 {
		t.Error("no inferences under Base")
	}
}
