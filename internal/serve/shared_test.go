package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
)

// TestConcurrentRunsShareModelGraph: concurrent /run requests for one
// model, clean and with recovery from a core death, all work on the
// one shared graph (run with -race), agree with each other, and leave
// the graph as built.
func TestConcurrentRunsShareModelGraph(t *testing.T) {
	s := New(Options{Concurrency: 4, Queue: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	g, err := models.Shared("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Exynos2100Like()
	key := core.Fingerprint(g, a, core.Stratum())

	reqs := []RunRequest{
		{Model: "MobileNetV2"},
		{Model: "MobileNetV2", Faults: "kill=1@200000", Recover: true},
	}
	const perReq = 4
	replies := make([][]RunResponse, len(reqs))
	for i := range replies {
		replies[i] = make([]RunResponse, perReq)
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perReq; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%+v: status %d", req, resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(&replies[i][j]); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()

	for i, rs := range replies {
		for j := range rs {
			rs[j].CacheHit, rs[j].CompileMS, rs[j].ElapsedMS = false, 0, 0
			if !reflect.DeepEqual(rs[j], rs[0]) {
				t.Errorf("%+v: reply %d = %+v, reply 0 = %+v", reqs[i], j, rs[j], rs[0])
			}
		}
	}
	if !replies[1][0].Degraded {
		t.Error("the core death was not recovered from")
	}
	if got := core.Fingerprint(g, a, core.Stratum()); got != key {
		t.Errorf("shared graph's key moved from %v to %v", key, got)
	}
	if !reflect.DeepEqual(g, models.ByNameMust("MobileNetV2")) {
		t.Error("serving modified the shared graph")
	}
}
