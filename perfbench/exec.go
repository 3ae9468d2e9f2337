package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/recovery"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// direct runs one request through the public layer calls serve's
// handler makes, in the handler's order, and returns the encoded reply
// and the decoded value (*serve.RunResponse or *tenancy.Report). With a
// recorder it puts a span around each call under a "request" root.
//
// It stands in for the handler in two places: the output check compares
// every served reply against it, and the traced run times its layers.
// core.Fingerprint stands in for the handler's core.Cached (a
// fingerprint plus a map load); hit or miss is read from the cache
// counters instead, which are exact on one goroutine.
func direct(ctx context.Context, rec *recorder, req request) ([]byte, any, error) {
	root := rec.begin("request")
	defer rec.end(root)
	var v any
	var err error
	if req.Tenants != nil {
		v, err = directTenants(ctx, rec, req.Tenants)
	} else {
		v, err = directRun(ctx, rec, root, req)
	}
	if err != nil {
		return nil, nil, err
	}
	id := rec.begin("json.Marshal")
	body, err := json.Marshal(v)
	rec.end(id)
	return body, v, err
}

func directRun(ctx context.Context, rec *recorder, root int, req request) (*serve.RunResponse, error) {
	rr := *req.Run
	if rr.Cores == 0 {
		rr.Cores = 3
	}
	if rr.Config == "" {
		rr.Config = "stratum"
	}
	id := rec.begin("models.Build")
	m, err := models.ByName(rr.Model)
	if err != nil {
		rec.end(id)
		return nil, err
	}
	g := m.Build()
	rec.end(id)

	a, err := cliutil.Arch(rr.Cores)
	if err != nil {
		return nil, err
	}
	opt, err := cliutil.Config(rr.Config)
	if err != nil {
		return nil, err
	}
	var plan *fault.Plan
	if rr.Faults != "" {
		if plan, err = fault.ParseSpec(rr.Faults, rr.FaultSeed); err != nil {
			return nil, err
		}
	}

	id = rec.begin("core.Fingerprint")
	core.Fingerprint(g, a, opt)
	rec.end(id)

	hits0, _ := core.CacheStats()
	id = rec.begin("core.CompileCachedCtx")
	res, err := core.CompileCachedCtx(ctx, g, a, opt)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	hits1, _ := core.CacheStats()
	hit := hits1 > hits0
	if hit {
		rec.attr(id, "hit", 1)
	} else {
		compileAttrs(rec, id, res)
	}

	cfg := sim.Config{Ctx: ctx, Faults: plan, WatchdogCycles: rr.WatchdogCycles}
	id = rec.begin("sim.Run")
	out, err := sim.Run(res.Program, cfg)
	rec.end(id)
	resp := &serve.RunResponse{
		Model:    g.Name,
		Config:   opt.Name(),
		Cores:    a.NumCores(),
		Instrs:   res.Program.NumInstrs(),
		Fallback: res.Fallback.String(),
		CacheHit: hit,
	}
	if req.Kind != "" {
		rec.attr(root, "faulted", 1)
	}
	if err == nil {
		rec.attr(id, "instrs", float64(resp.Instrs))
		resp.TotalCycles = out.Stats.TotalCycles
		resp.LatencyMicros = out.Stats.LatencyMicros(a.ClockMHz)
		resp.Barriers = out.Stats.Barriers
		resp.Corruptions = len(out.Corruptions)
		return resp, nil
	}
	var cf *sim.CoreFailure
	var hd *sim.HangDetected
	if !rr.Recover || !(errors.As(err, &cf) || errors.As(err, &hd)) {
		return nil, err
	}

	_, missesBefore := core.CacheStats()
	id = rec.begin("recovery.RecoverFrom")
	rc, rerr := recovery.RecoverFrom(g, a, err, recovery.Options{Opt: opt, Sim: cfg})
	rec.end(id)
	if rerr != nil {
		return nil, fmt.Errorf("recover from %v: %w", err, rerr)
	}
	_, missesAfter := core.CacheStats()
	rec.attr(id, "remap_misses", float64(missesAfter-missesBefore))
	rec.attr(root, "degraded", 1)
	merged := rc.MergedStats()
	resp.TotalCycles = merged.TotalCycles
	resp.LatencyMicros = merged.LatencyMicros(a.ClockMHz)
	resp.Barriers = merged.Barriers
	resp.Degraded = true
	resp.DeadCores = rc.DeadCores
	resp.Corruptions = len(rc.Final.Corruptions)
	return resp, nil
}

func directTenants(ctx context.Context, rec *recorder, tr *serve.TenantsRequest) (*tenancy.Report, error) {
	tenants, err := tenancy.ParseSpec(tr.Spec)
	if err != nil {
		return nil, err
	}
	cores, config := tr.Cores, tr.Config
	if cores == 0 {
		cores = 3
	}
	if config == "" {
		config = "stratum"
	}
	a, err := cliutil.Arch(cores)
	if err != nil {
		return nil, err
	}
	opt, err := cliutil.Config(config)
	if err != nil {
		return nil, err
	}
	id := rec.begin("tenancy.Run")
	rep, err := tenancy.Run(a, tenants, tenancy.Options{
		HorizonUS: tr.HorizonUS,
		Opt:       opt,
		OptSet:    true,
		Sim:       sim.Config{Ctx: ctx},
	})
	rec.end(id)
	if err != nil {
		return nil, err
	}
	var pre, remaps int
	for _, t := range rep.Tenants {
		pre += t.Preemptions
		remaps += t.Remaps
	}
	rec.attr(id, "epochs", float64(rep.Epochs))
	rec.attr(id, "preemptions", float64(pre))
	rec.attr(id, "remaps", float64(remaps))
	return rep, nil
}

// compileAttrs records one compile's pass timings (the final fallback
// attempt's, from Result.Timing) and how much the fallback chain cost.
func compileAttrs(rec *recorder, id int, res *core.Result) {
	if rec == nil {
		return
	}
	t := res.Timing
	final := t.Partition + t.Schedule + t.Stratum + t.Emit + t.Admit
	rec.attr(id, "compiled", 1)
	rec.attr(id, "partition_us", us(t.Partition))
	rec.attr(id, "schedule_us", us(t.Schedule))
	rec.attr(id, "stratum_us", us(t.Stratum))
	rec.attr(id, "emit_us", us(t.Emit))
	rec.attr(id, "admit_us", us(t.Admit))
	rec.attr(id, "fallbacks", float64(len(res.Downgrades)))
	rec.attr(id, "fallback_wasted_us", us(t.Total-final))
}

// oneShot is what one `npusim -model M -config C` invocation does: build
// the graph, compile it with no cache, and simulate the program once.
func oneShot(rec *recorder, req request) (*core.Result, *sim.Result, error) {
	root := rec.begin("request")
	defer rec.end(root)
	id := rec.begin("models.Build")
	m, err := models.ByName(req.Run.Model)
	if err != nil {
		rec.end(id)
		return nil, nil, err
	}
	g := m.Build()
	rec.end(id)
	a, err := cliutil.Arch(req.Run.Cores)
	if err != nil {
		return nil, nil, err
	}
	opt, err := cliutil.Config(req.Run.Config)
	if err != nil {
		return nil, nil, err
	}
	id = rec.begin("core.Compile")
	res, err := core.Compile(g, a, opt)
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	compileAttrs(rec, id, res)
	id = rec.begin("sim.Run")
	out, err := sim.Run(res.Program, sim.Config{})
	rec.end(id)
	if err != nil {
		return nil, nil, err
	}
	rec.attr(id, "instrs", float64(res.Program.NumInstrs()))
	return res, out, nil
}
