package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	p, err := ParseSpec("drop=0.02,retries=4,throttle=1@50000x0.5,kill=2@400000", 7)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed:       7,
		DropRate:   0.02,
		MaxRetries: 4,
		Throttles:  []Throttle{{Core: 1, AtCycle: 50000, Factor: 0.5}},
		Deaths:     []Death{{Core: 2, AtCycle: 400000}},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	back, err := ParseSpec(p.String(), 7)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip %+v, want %+v", back, want)
	}
}

func TestParseSpecEmpty(t *testing.T) {
	p, err := ParseSpec("  ", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Empty() {
		t.Errorf("blank spec not empty: %+v", p)
	}
	if p.String() != "none" {
		t.Errorf("empty plan renders %q", p.String())
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"drop",               // no value
		"drop=x",             // bad float
		"drop=1.5",           // out of range
		"throttle=1@5000",    // missing factor
		"throttle=1@axb",     // bad numbers
		"throttle=0@100x1.5", // factor > 1
		"kill=2",             // missing cycle
		"warp=9",             // unknown clause
		"retries=-1",         // negative bound
	} {
		if _, err := ParseSpec(spec, 0); err == nil {
			t.Errorf("spec %q parsed without error", spec)
		}
	}
}

func TestDropsDeterministicAndSeeded(t *testing.T) {
	a := &Plan{Seed: 1, DropRate: 0.3}
	b := &Plan{Seed: 1, DropRate: 0.3}
	c := &Plan{Seed: 2, DropRate: 0.3}
	same, diff := true, false
	for tr := 0; tr < 512; tr++ {
		for at := 0; at < 3; at++ {
			if a.Drops(tr, at) != b.Drops(tr, at) {
				same = false
			}
			if a.Drops(tr, at) != c.Drops(tr, at) {
				diff = true
			}
		}
	}
	if !same {
		t.Error("identical (seed, transfer, attempt) decisions differ")
	}
	if !diff {
		t.Error("different seeds never diverge")
	}
}

func TestDropsRateEmpirical(t *testing.T) {
	p := &Plan{Seed: 42, DropRate: 0.25}
	n, hits := 20000, 0
	for tr := 0; tr < n; tr++ {
		if p.Drops(tr, 0) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("empirical drop rate %.3f, want ~0.25", got)
	}
}

func TestDropsNilAndZero(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Drops(3, 0) {
		t.Error("nil plan drops")
	}
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
	if (&Plan{Seed: 9}).Drops(3, 0) {
		t.Error("zero drop rate drops")
	}
	if nilPlan.Retries() != DefaultMaxRetries {
		t.Errorf("nil plan retries %d", nilPlan.Retries())
	}
}

func TestBackoffCycles(t *testing.T) {
	if got := BackoffCycles(400, 1); got != 800 {
		t.Errorf("attempt 1 backoff %g, want 800", got)
	}
	if got := BackoffCycles(400, 3); got != 3200 {
		t.Errorf("attempt 3 backoff %g, want 3200", got)
	}
	// Capped growth.
	if got := BackoffCycles(400, 50); got != 400*256 {
		t.Errorf("capped backoff %g, want %d", got, 400*256)
	}
	if BackoffCycles(0, 1) <= 0 {
		t.Error("zero setup cost yields non-positive backoff")
	}
}

func TestTimelineCollidingCycles(t *testing.T) {
	// Same-cycle events must order by (kind, core) no matter how the
	// plan lists them: throttles before deaths, then ascending core.
	p := &Plan{
		Throttles: []Throttle{
			{Core: 2, AtCycle: 100, Factor: 0.5},
			{Core: 0, AtCycle: 100, Factor: 0.25},
		},
		Deaths: []Death{
			{Core: 1, AtCycle: 100},
			{Core: 0, AtCycle: 100},
			{Core: 2, AtCycle: 50},
		},
	}
	got := p.Timeline(3, nil)
	want := []TimedEvent{
		{Kind: KindDeath, Core: 2, AtCycle: 50},
		{Kind: KindThrottle, Core: 0, AtCycle: 100, Factor: 0.25},
		{Kind: KindThrottle, Core: 2, AtCycle: 100, Factor: 0.5},
		{Kind: KindDeath, Core: 0, AtCycle: 100},
		{Kind: KindDeath, Core: 1, AtCycle: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timeline order:\n got %+v\nwant %+v", got, want)
	}
	// A permuted plan produces the identical timeline.
	q := &Plan{
		Throttles: []Throttle{p.Throttles[1], p.Throttles[0]},
		Deaths:    []Death{p.Deaths[2], p.Deaths[0], p.Deaths[1]},
	}
	if got2 := q.Timeline(3, nil); !reflect.DeepEqual(got2, want) {
		t.Errorf("permuted plan diverged:\n got %+v\nwant %+v", got2, want)
	}
	// Events on cores the architecture lacks stay inert.
	if short := p.Timeline(1, nil); len(short) != 2 {
		t.Errorf("ncores=1 timeline has %d events, want 2: %+v", len(short), short)
	}
}
