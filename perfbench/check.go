package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"repro/internal/arch"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// checker counts outputs that differ from their oracle. Every check runs
// after the timed window closes.
type checker struct {
	mismatches int
	log        io.Writer
}

func (c *checker) fail(format string, args ...any) {
	c.mismatches++
	if c.mismatches <= 10 {
		fmt.Fprintf(c.log, "output mismatch: "+format+"\n", args...)
	}
}

// expectation is the direct library result for one distinct request.
type expectation struct {
	body []byte
	v    any // *serve.RunResponse or *tenancy.Report
}

// expectations computes every pool entry's reply by a direct library
// call on the same inputs.
func expectations(ctx context.Context, in *inputs) ([]expectation, error) {
	out := make([]expectation, len(in.Pool))
	for i, req := range in.Pool {
		body, v, err := direct(ctx, nil, req)
		if err != nil {
			return nil, fmt.Errorf("direct call for %s: %w", req.Body, err)
		}
		out[i] = expectation{body: body, v: v}
	}
	return out, nil
}

// checkServed compares every served reply with the direct result for
// the same request. Wall-clock fields and the cache-hit label depend on
// when a request ran, so they are left out; everything else must match
// exactly. With wantHit every /run reply must also be a cache hit.
func checkServed(c *checker, exp []expectation, got []served, wantHit bool) {
	for _, s := range got {
		switch want := exp[s.Pool].v.(type) {
		case *serve.RunResponse:
			var r serve.RunResponse
			if err := json.Unmarshal(s.Body, &r); err != nil {
				c.fail("request %d: undecodable reply %q: %v", s.Pool, s.Body, err)
				continue
			}
			if wantHit && !r.CacheHit {
				c.fail("request %d (%s): timed request missed the compile cache", s.Pool, r.Model)
			}
			w := *want
			r.ElapsedMS, r.CompileMS, r.CacheHit = 0, 0, false
			w.ElapsedMS, w.CompileMS, w.CacheHit = 0, 0, false
			if !reflect.DeepEqual(r, w) {
				c.fail("request %d: served %+v, direct call %+v", s.Pool, r, w)
			}
		case *tenancy.Report:
			if !bytes.Equal(bytes.TrimSpace(s.Body), exp[s.Pool].body) {
				c.fail("request %d: served tenancy report differs from the direct call", s.Pool)
			}
		}
	}
}

// checkGolden holds each run-warm model's cycles to the pinned golden
// value and to the reference engine on the same program.
func checkGolden(c *checker, in *inputs, exp []expectation, golden map[string]float64) error {
	a := arch.Exynos2100Like()
	for i, req := range in.Pool {
		want, ok := exp[i].v.(*serve.RunResponse)
		if !ok {
			continue
		}
		g, ok := golden[req.Run.Model+"/none"]
		if !ok {
			return fmt.Errorf("golden cycles for %s missing", req.Run.Model)
		}
		if want.TotalCycles != g {
			c.fail("%s: %v cycles, golden %v", req.Run.Model, want.TotalCycles, g)
		}
		res, err := core.CompileCached(models.ByNameMust(req.Run.Model), a, core.Stratum())
		if err != nil {
			return err
		}
		if err := checkReference(c, req.Run.Model, res.Program, want.TotalCycles); err != nil {
			return err
		}
	}
	return nil
}

// checkReference holds a program's event-engine cycles to the
// reference engine's.
func checkReference(c *checker, name string, p *plan.Program, cycles float64) error {
	ref, err := sim.RunReference(p, sim.Config{})
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", name, err)
	}
	if ref.Stats.TotalCycles != cycles {
		c.fail("%s: event engine %v cycles, reference engine %v", name, cycles, ref.Stats.TotalCycles)
	}
	return nil
}

// modelledUS is the modelled inference latency behind one reply: a
// /run reply's latency, or for a tenancy report the geometric mean of
// its tenants' mean latencies.
func modelledUS(v any) float64 {
	switch r := v.(type) {
	case *serve.RunResponse:
		return r.LatencyMicros
	case *tenancy.Report:
		var xs []float64
		for _, t := range r.Tenants {
			if t.Inferences > 0 {
				xs = append(xs, t.MeanLatencyUS)
			}
		}
		return geomean(xs)
	}
	return 0
}

// pointLatencyUS converts a compile-cold point's cycles to modelled
// microseconds on its architecture.
func pointLatencyUS(req request, cycles float64) float64 {
	a, err := cliutil.Arch(req.Run.Cores)
	if err != nil {
		return 0
	}
	return cycles / float64(a.ClockMHz)
}
