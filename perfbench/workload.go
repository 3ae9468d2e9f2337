package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/tenancy"
)

// goldenPath holds the reference engine's pinned cycle counts for every
// model at the default serving configuration (+Stratum, 3 cores), keyed
// "<model>/none", relative to the root of the checkout.
var goldenPath = filepath.Join("internal", "sim", "testdata", "golden_cycles.json")

// mobileModels are the Table 2 networks whose uncached suffix compiles
// take milliseconds; UNet and DeepLabV3+ are left out of the fault
// workload because one uncached UNet suffix compile takes seconds.
var mobileModels = []string{"InceptionV3", "MobileNetV2", "MobileNetV2-SSD", "MobileDet-SSD"}

// request is one distinct input the program receives.
type request struct {
	Path    string // "/run" or "/tenants"
	Run     *serve.RunRequest
	Tenants *serve.TenantsRequest
	Body    []byte // the encoded POST body
	Kind    string // fault kind for /run ("kill", "hang", "flip"), "" otherwise
}

// inputs is everything a workload sends, generated from the seed before
// any timing starts.
type inputs struct {
	Workload string
	Seed     uint64
	// Warm lists the requests set-up sends to fill the compile cache
	// (one cold compile each).
	Warm []request
	// Pool holds the distinct requests; Order is the request list, as
	// indices into Pool, that the clients (or the sweep) walk in order.
	Pool  []request
	Order []int
}

// workloads maps each workload name to its input generator.
var workloads = map[string]func(seed uint64, golden map[string]float64) (*inputs, error){
	"run-warm":     runWarmInputs,
	"compile-cold": compileColdInputs,
	"run-degraded": runDegradedInputs,
}

// orderLen bounds the request list; the clients wrap around it, which no
// run of up to a minute reaches at the measured request rates.
const orderLen = 1 << 16

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
}

// blocks returns n pool indices made of back-to-back seeded
// permutations of 0..k-1, so every stretch of k requests holds each
// distinct request exactly once and the mix never drifts with the seed.
func blocks(r *rand.Rand, k, n int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, r.Perm(k)...)
	}
	return out[:n]
}

func runRequest(rr serve.RunRequest, kind string) request {
	body, err := json.Marshal(rr)
	if err != nil {
		panic(err) // a RunRequest always marshals
	}
	return request{Path: "/run", Run: &rr, Body: body, Kind: kind}
}

func tenantsRequest(tr serve.TenantsRequest) request {
	body, err := json.Marshal(tr)
	if err != nil {
		panic(err) // a TenantsRequest always marshals
	}
	return request{Path: "/tenants", Tenants: &tr, Body: body}
}

func tableModels() []string {
	var out []string
	for _, m := range models.All() {
		out = append(out, m.Name)
	}
	return out
}

// runWarmInputs: POST /run for the six Table 2 models at the default
// configuration; set-up warms each once so every timed request hits.
func runWarmInputs(seed uint64, _ map[string]float64) (*inputs, error) {
	in := &inputs{Workload: "run-warm", Seed: seed}
	for _, m := range tableModels() {
		in.Pool = append(in.Pool, runRequest(serve.RunRequest{Model: m}, ""))
	}
	in.Warm = in.Pool
	in.Order = blocks(newRand(seed), len(in.Pool), orderLen)
	return in, nil
}

// compileColdInputs: the six Table 2 models x {base, stratum} on the
// 3-core platform, one seeded permutation per sweep.
func compileColdInputs(seed uint64, _ map[string]float64) (*inputs, error) {
	in := &inputs{Workload: "compile-cold", Seed: seed}
	for _, m := range tableModels() {
		for _, c := range []string{"base", "stratum"} {
			in.Pool = append(in.Pool, runRequest(serve.RunRequest{Model: m, Cores: 3, Config: c}, ""))
		}
	}
	in.Order = blocks(newRand(seed), len(in.Pool), 256*len(in.Pool))
	return in, nil
}

// faultKinds are the seeded faults of run-degraded; fracStrata split
// each kind's injection point (a share of the clean run) into four
// bands so every seed covers early, middle and late faults alike.
var (
	faultKinds = []string{"kill", "hang", "flip"}
	fracStrata = [][2]float64{{0.1, 0.3}, {0.3, 0.5}, {0.5, 0.7}, {0.7, 0.9}}
)

// tenantShapes fix the structure of run-degraded's /tenants scenarios:
// each tenant's arrival and departure as shares of the 20 ms default
// horizon (0 = from the start, never departs) and its priority. Each
// shape is used twice, its tenants taking the mobile models in turn so
// each model appears equally often; the seed picks the SLOs and up to
// 1 ms of jitter on each arrival and departure. Fixing the shapes and
// models keeps the mix of epochs and preemptions, and with it the cost
// of a scenario, the same for every seed.
var tenantShapes = [][]struct {
	arrive, depart float64
	prio           int
}{
	{{0, 0, 1}, {0.25, 0, 2}},
	{{0, 0, 2}, {0.5, 0, 1}},
	{{0, 0, 1}, {0.2, 0, 3}, {0.45, 0, 2}},
	{{0, 0, 2}, {0.3, 0.55, 3}, {0.6, 0, 1}},
}

// runDegradedInputs: 4 of every 5 requests are faulted /run requests
// with Recover and a watchdog at 5% of the clean cycles; every 5th is a
// 2-3 tenant /tenants scenario over the same models.
func runDegradedInputs(seed uint64, golden map[string]float64) (*inputs, error) {
	in := &inputs{Workload: "run-degraded", Seed: seed}
	r := newRand(seed)
	a := arch.Exynos2100Like()
	clean := map[string]float64{}
	for _, m := range mobileModels {
		c, ok := golden[m+"/none"]
		if !ok || c <= 0 {
			return nil, fmt.Errorf("golden cycles for %s missing from %s", m, goldenPath)
		}
		clean[m] = c
		in.Warm = append(in.Warm, runRequest(serve.RunRequest{Model: m}, ""))
	}

	var runs []int
	for _, m := range mobileModels {
		for _, kind := range faultKinds {
			// One fault per band; the cores cycle so each is hit alike.
			cores := append(r.Perm(a.NumCores()), r.IntN(a.NumCores()))
			for si, st := range fracStrata {
				frac := st[0] + r.Float64()*(st[1]-st[0])
				var spec string
				switch kind {
				case "kill", "hang":
					spec = fmt.Sprintf("%s=%d@%.0f", kind, cores[si%len(cores)], frac*clean[m])
				case "flip":
					// 0.05%..0.4% of transfers corrupted, doubling per band.
					rate := 0.0005 * float64(int(1)<<si) * (0.8 + 0.4*r.Float64())
					spec = fmt.Sprintf("flip=%.6f", rate)
				}
				runs = append(runs, len(in.Pool))
				in.Pool = append(in.Pool, runRequest(serve.RunRequest{
					Model:          m,
					Faults:         spec,
					FaultSeed:      r.Uint64() >> 11,
					WatchdogCycles: 0.05 * clean[m],
					Recover:        true,
				}, kind))
			}
		}
	}

	var tenants []int
	slot := 0
	for rep := 0; rep < 2; rep++ {
		for _, shape := range tenantShapes {
			var parts []string
			for t, ts := range shape {
				m := mobileModels[slot%len(mobileModels)]
				slot++
				isolatedUS := clean[m] / float64(a.ClockMHz)
				entry := fmt.Sprintf("t%d=%s:prio=%d:slo=%.0f", t, m, ts.prio, isolatedUS*(1.2+1.8*r.Float64()))
				if ts.arrive > 0 {
					arrive := ts.arrive*tenancy.DefaultHorizonUS + float64(r.IntN(1000))
					entry += fmt.Sprintf(":arrive=%.0f", arrive)
				}
				if ts.depart > 0 {
					entry += fmt.Sprintf(":depart=%.0f", ts.depart*tenancy.DefaultHorizonUS+float64(r.IntN(1000)))
				}
				parts = append(parts, entry)
			}
			tenants = append(tenants, len(in.Pool))
			in.Pool = append(in.Pool, tenantsRequest(serve.TenantsRequest{Spec: strings.Join(parts, ",")}))
		}
	}

	runOrder := blocks(r, len(runs), orderLen)
	tenantOrder := blocks(r, len(tenants), orderLen/4)
	for i, j, k := 0, 0, 0; len(in.Order) < orderLen; i++ {
		if i%5 == 4 {
			in.Order = append(in.Order, tenants[tenantOrder[j]])
			j++
			continue
		}
		in.Order = append(in.Order, runs[runOrder[k]])
		k++
	}
	return in, nil
}

// readGolden loads the pinned clean cycle counts from the checkout at
// root.
func readGolden(root string) (map[string]float64, error) {
	data, err := os.ReadFile(filepath.Join(root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("read golden cycles (run from the root of a checkout): %w", err)
	}
	golden := map[string]float64{}
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("parse %s: %w", goldenPath, err)
	}
	return golden, nil
}
