package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/models"
)

// dseRow is one model's design-space exploration outcome in the
// BENCH_dse.json artifact. WallClockMS is the only nondeterministic
// field; the CI determinism check strips it (jq del) before comparing
// same-seed runs byte-for-byte.
type dseRow struct {
	Model             string
	BaselineCycles    float64
	BestCycles        float64
	ImprovementPct    float64
	Points            int
	Revisits          int
	Infeasible        int
	CacheHits         int64
	CacheMisses       int64
	CacheHitRate      float64
	BestFallback      string
	EngineMatch       bool
	MethodOverrides   int
	BoundaryOverrides int
	ScaleOverrides    int
	WallClockMS       float64
}

// dseReport is the BENCH_dse.json schema.
type dseReport struct {
	Seed        uint64
	Jobs        int
	Rows        []dseRow
	WallClockMS float64
}

// runDSE is the -experiment dse hook: a seeded search per requested
// Table 2 model against the +Stratum heuristic baseline, printed as a
// table and written to the BENCH_dse.json artifact.
func runDSE(w io.Writer, jsonPath, modelSpec string, seed uint64, jobs int) error {
	a := arch.Exynos2100Like()
	rep := dseReport{Seed: seed, Jobs: jobs}
	t0 := time.Now()
	for _, name := range tableModels(modelSpec) {
		m, err := models.ByName(name)
		if err != nil {
			return err
		}
		mt0 := time.Now()
		r, err := dse.Explore(nil, m.Build(), a, core.Stratum(), seed)
		if err != nil {
			return fmt.Errorf("dse %s: %w", name, err)
		}
		mm, bb, ss := r.Best.Overrides()
		row := dseRow{
			Model:             r.Model,
			BaselineCycles:    r.BaselineCycles,
			BestCycles:        r.BestCycles,
			ImprovementPct:    r.ImprovementPct,
			Points:            r.Points,
			Revisits:          r.Revisits,
			Infeasible:        r.Infeasible,
			CacheHits:         r.CacheHits,
			CacheMisses:       r.CacheMisses,
			BestFallback:      r.BestFallback,
			EngineMatch:       r.EngineMatch,
			MethodOverrides:   mm,
			BoundaryOverrides: bb,
			ScaleOverrides:    ss,
			WallClockMS:       float64(time.Since(mt0).Microseconds()) / 1000,
		}
		if total := r.CacheHits + r.CacheMisses; total > 0 {
			row.CacheHitRate = float64(r.CacheHits) / float64(total)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.WallClockMS = float64(time.Since(t0).Microseconds()) / 1000

	printDSE(w, rep)
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "report written to %s\n", jsonPath)
	return nil
}

// tableModels resolves the -dse-models flag: a comma-separated list,
// or all Table 2 models when empty.
func tableModels(spec string) []string {
	if spec == "" {
		var names []string
		for _, m := range models.All() {
			names = append(names, m.Name)
		}
		return names
	}
	var names []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			names = append(names, s)
		}
	}
	return names
}

// printDSE renders the exploration summary table.
func printDSE(w io.Writer, rep dseReport) {
	fmt.Fprintf(w, "DSE: best-found vs h1-h8 heuristic baseline (seed %d, -j %d)\n", rep.Seed, rep.Jobs)
	fmt.Fprintf(w, "%-17s %12s %12s %7s %7s %6s %6s %9s %-9s %s\n",
		"Model", "base(cyc)", "best(cyc)", "gain%", "points", "revis", "hit%", "wall(ms)", "fallback", "overrides(m/b/s)")
	for _, r := range rep.Rows {
		match := ""
		if !r.EngineMatch {
			match = "  ENGINE MISMATCH"
		}
		fmt.Fprintf(w, "%-17s %12.0f %12.0f %7.2f %7d %6d %5.1f%% %9.1f %-9s %d/%d/%d%s\n",
			r.Model, r.BaselineCycles, r.BestCycles, r.ImprovementPct,
			r.Points, r.Revisits, 100*r.CacheHitRate, r.WallClockMS, r.BestFallback,
			r.MethodOverrides, r.BoundaryOverrides, r.ScaleOverrides, match)
	}
}
