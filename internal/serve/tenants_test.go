package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tenancy"
)

func postTenants(t *testing.T, srv *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/tenants", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestTenantsEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	defer srv.Close()

	resp := postTenants(t, srv,
		`{"Spec":"cam=ShuffleNetV2:prio=2:slo=4000,kbd=TinyCNN:slo=600","HorizonUS":4000}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var rep tenancy.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("got %d tenant rows", len(rep.Tenants))
	}
	for _, tr := range rep.Tenants {
		if tr.Inferences == 0 {
			t.Errorf("tenant %s served nothing", tr.Name)
		}
		if tr.SLOHitPct < 0 || tr.SLOHitPct > 100 {
			t.Errorf("tenant %s: hit rate %.1f out of range", tr.Name, tr.SLOHitPct)
		}
	}
}

// The same request body must return the same report bytes: the tenancy
// report has no wall-clock fields.
func TestTenantsEndpointDeterministic(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	defer srv.Close()

	body := `{"Spec":"a=TinyCNN:slo=500,b=TinyCNN","HorizonUS":2000}`
	read := func() []byte {
		resp := postTenants(t, srv, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(read(), read()) {
		t.Error("same request produced different report bytes")
	}
}

func TestTenantsEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	defer srv.Close()

	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"Spec":""}`, http.StatusBadRequest},              // empty spec
		{`{"Spec":"x=NoSuchModel"}`, http.StatusBadRequest}, // unknown model
		{`{"Spec":"x=TinyCNN","TimeoutMS":-1}`, http.StatusBadRequest},
		{`{"Spec":"x=TinyCNN","Wat":1}`, http.StatusBadRequest}, // unknown field
		{`{"Spec":"x=TinyCNN","Config":"nope"}`, http.StatusBadRequest},
	} {
		resp := postTenants(t, srv, tc.body)
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decode error body: %v", tc.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.body, resp.StatusCode, tc.code, e.Error)
		}
		if e.Kind != "bad_request" {
			t.Errorf("%s: kind %q", tc.body, e.Kind)
		}
	}

	getResp, err := http.Get(srv.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tenants: status %d", getResp.StatusCode)
	}
}

// A horizon past what one co-run may simulate fails fast with a typed
// 4xx, before the co-run's stream is built: the bound is on the
// instructions simulated, so a heavy model meets it at a horizon of
// a few hundred inferences.
func TestTenantsEndpointRejectsHugeHorizon(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	defer srv.Close()
	for _, c := range []struct{ spec, horizon string }{
		{"x=TinyCNN", "1e12"},
		{"i=InceptionV3", "1e6"}, // ~310 inferences of ~5k instructions each
	} {
		warm := postTenants(t, srv, `{"Spec":"`+c.spec+`","HorizonUS":100}`) // compile the model
		warm.Body.Close()
		if warm.StatusCode != http.StatusOK {
			t.Fatalf("%s at 100 us: status %d", c.spec, warm.StatusCode)
		}

		start := time.Now()
		resp := postTenants(t, srv, `{"Spec":"`+c.spec+`","HorizonUS":`+c.horizon+`}`)
		elapsed := time.Since(start)
		var e ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || e.Kind != "epoch_too_long" {
			t.Errorf("%s at %s us: status %d kind %q (%s), want 422 epoch_too_long", c.spec, c.horizon, resp.StatusCode, e.Kind, e.Error)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("%s at %s us: rejecting the horizon took %v", c.spec, c.horizon, elapsed)
		}
	}
}

// The co-run memo shows on /stats: posting the same /tenants body again
// serves every co-run from the memo, one hit per lookup of the first
// post and no new misses.
func TestTenantsStatsCountCoRunMemo(t *testing.T) {
	srv := httptest.NewServer(New(Options{}).Handler())
	defer srv.Close()

	stats := func() Stats {
		resp, err := srv.Client().Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	post := func() {
		resp := postTenants(t, srv,
			`{"Spec":"m=MobileNetV2:prio=2,s=ShuffleNetV2:arrive=1500","HorizonUS":4000}`)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	s0 := stats()
	post()
	s1 := stats()
	post()
	s2 := stats()
	lookups := s1.CoRunMemoHits + s1.CoRunMemoMisses - s0.CoRunMemoHits - s0.CoRunMemoMisses
	if lookups == 0 {
		t.Fatal("first post did not consult the co-run memo")
	}
	if hits, misses := s2.CoRunMemoHits-s1.CoRunMemoHits, s2.CoRunMemoMisses-s1.CoRunMemoMisses; hits != lookups || misses != 0 {
		t.Errorf("second post: %d hits, %d misses; want %d hits, 0 misses", hits, misses, lookups)
	}
}
