package sim_test

import (
	. "repro/internal/sim"

	"errors"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
)

// compileOn compiles g for a subset of the global architecture.
func compileOn(t *testing.T, g *graph.Graph, global *arch.Arch, cores []int) Placement {
	t.Helper()
	sub, err := global.Subset(cores)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(g, sub, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	return Placement{Program: res.Program, Cores: cores}
}

func TestConcurrentTwoNetworks(t *testing.T) {
	global := arch.Exynos2100Like()
	g1 := models.TinyCNN()
	g2 := models.ConvChain(4, 48, 48, 16)

	p1 := compileOn(t, g1, global, []int{0})
	p2 := compileOn(t, g2, global, []int{1, 2})

	out, err := RunConcurrent(global, []Placement{p1, p2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stats.ProgramCycles) != 2 {
		t.Fatalf("program cycles = %v", out.Stats.ProgramCycles)
	}
	for i, pc := range out.Stats.ProgramCycles {
		if pc <= 0 {
			t.Errorf("program %d never finished", i)
		}
		if pc > out.Stats.TotalCycles {
			t.Errorf("program %d finish %.0f beyond total %.0f", i, pc, out.Stats.TotalCycles)
		}
	}
	// Every core computed something.
	for c, cs := range out.Stats.PerCore {
		if cs.MACs <= 0 {
			t.Errorf("core %d executed no MACs", c)
		}
	}
}

func TestConcurrentMatchesIsolatedWhenBusIsAmple(t *testing.T) {
	// With an effectively infinite bus, co-running programs on
	// disjoint cores must finish exactly as fast as running alone.
	global := arch.Exynos2100Like()
	global.BusBytesPerCycle = 1e9
	g1 := models.TinyCNN()
	g2 := models.ConvChain(4, 48, 48, 16)
	p1 := compileOn(t, g1, global, []int{0})
	p2 := compileOn(t, g2, global, []int{1, 2})

	alone1, err := Run(p1.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	alone2, err := Run(p2.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunConcurrent(global, []Placement{p1, p2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := both.Stats.ProgramCycles[0] - alone1.Stats.TotalCycles; d > 1 || d < -1 {
		t.Errorf("program 1 concurrent %.0f != alone %.0f", both.Stats.ProgramCycles[0], alone1.Stats.TotalCycles)
	}
	if d := both.Stats.ProgramCycles[1] - alone2.Stats.TotalCycles; d > 1 || d < -1 {
		t.Errorf("program 2 concurrent %.0f != alone %.0f", both.Stats.ProgramCycles[1], alone2.Stats.TotalCycles)
	}
}

func TestConcurrentBusContentionSlowsBoth(t *testing.T) {
	// With a narrow bus, co-running programs must be slower than when
	// each had the bus to itself.
	global := arch.Exynos2100Like()
	global.BusBytesPerCycle = 8
	g1 := models.ConvChain(3, 64, 64, 16)
	g2 := models.ConvChain(3, 64, 64, 16)
	p1 := compileOn(t, g1, global, []int{0})
	p2 := compileOn(t, g2, global, []int{1, 2})

	alone1, err := Run(p1.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunConcurrent(global, []Placement{p1, p2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if both.Stats.ProgramCycles[0] <= alone1.Stats.TotalCycles {
		t.Errorf("no contention visible: concurrent %.0f <= alone %.0f",
			both.Stats.ProgramCycles[0], alone1.Stats.TotalCycles)
	}
}

func TestConcurrentRejectsBadPlacements(t *testing.T) {
	global := arch.Exynos2100Like()
	g := models.TinyCNN()
	p := compileOn(t, g, global, []int{0})
	wide := compileOn(t, g, global, []int{0, 1})
	swapped := compileOn(t, g, global, []int{1, 0})
	bad := p
	bad.Cores = []int{7}
	twice := wide
	twice.Cores = []int{1, 1}
	for _, tc := range []struct {
		name       string
		placements []Placement
		want       CoreConflictError
	}{
		{"partial overlap", []Placement{p, wide}, CoreConflictError{Workload: 1, Core: 0, Owner: 0}},
		// The same cores in another order overlap partially too.
		{"reordered core list", []Placement{wide, swapped}, CoreConflictError{Workload: 1, Core: 1, Owner: 0}},
		// A stream's cores belong to its last element.
		{"overlap with a stream", []Placement{p, p, wide}, CoreConflictError{Workload: 2, Core: 0, Owner: 1}},
		{"out-of-range core", []Placement{bad}, CoreConflictError{Workload: 0, Core: 7, Owner: -1}},
		{"core listed twice", []Placement{twice}, CoreConflictError{Workload: 0, Core: 1, Owner: 0}},
	} {
		tc.want.NumCores = global.NumCores()
		for _, check := range []struct {
			name string
			run  func() error
		}{
			{"RunConcurrent", func() error { _, err := RunConcurrent(global, tc.placements, Config{}); return err }},
			{"RunConcurrentReference", func() error {
				_, err := RunConcurrentReference(global, tc.placements, Config{})
				return err
			}},
			{"CheckCores", func() error { return CheckCores(global, tc.placements) }},
		} {
			var cc *CoreConflictError
			if err := check.run(); !errors.As(err, &cc) {
				t.Errorf("%s: %s: want *CoreConflictError, got %T: %v", tc.name, check.name, err, err)
			} else if *cc != tc.want {
				t.Errorf("%s: %s: %+v, want %+v", tc.name, check.name, *cc, tc.want)
			}
		}
	}
	// Identical core lists form a stream instead.
	if _, err := RunConcurrent(global, []Placement{p, p}, Config{}); err != nil {
		t.Errorf("identical placements rejected: %v", err)
	}
	// A width mismatch is the program's fault, not the core list's:
	// CheckCores passes it and engine setup rejects it.
	bad2 := p
	bad2.Cores = []int{0, 1}
	if err := CheckCores(global, []Placement{bad2}); err != nil {
		t.Errorf("CheckCores read the program: %v", err)
	}
	var cc *CoreConflictError
	if _, err := RunConcurrent(global, []Placement{bad2}, Config{}); err == nil || errors.As(err, &cc) {
		t.Errorf("width mismatch: %v", err)
	}
}

// A fault-free stream [p, p] runs its second element exactly like the
// first, started when the first retires: it ends one isolated latency
// later, and a co-running placement on other cores still runs.
func TestConcurrentStreamRunsBackToBack(t *testing.T) {
	global := arch.Exynos2100Like()
	for _, cores := range [][]int{{0}, {1, 2}, {0, 1, 2}} {
		p := compileOn(t, models.TinyCNN(), global, cores)
		alone, err := RunConcurrent(global, []Placement{p}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		L := alone.Stats.ProgramCycles[0]
		both, err := RunConcurrent(global, []Placement{p, p}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		pc := both.Stats.ProgramCycles
		if pc[0] != L {
			t.Errorf("cores %v: first element ends at %v, alone at %v", cores, pc[0], L)
		}
		if d := pc[1] - pc[0]; math.Abs(d-L) > 1e-9*L {
			t.Errorf("cores %v: second element took %v cycles, isolated latency %v", cores, d, L)
		}
		if both.Stats.Barriers != 2*alone.Stats.Barriers {
			t.Errorf("cores %v: %d barriers, want twice %d", cores, both.Stats.Barriers, alone.Stats.Barriers)
		}
	}
	p := compileOn(t, models.TinyCNN(), global, []int{0})
	q := compileOn(t, models.ConvChain(4, 48, 48, 16), global, []int{1, 2})
	out, err := RunConcurrent(global, []Placement{p, q, p}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pc := out.Stats.ProgramCycles; pc[2] <= pc[0] || pc[1] <= 0 {
		t.Errorf("interleaved stream finished at %v", pc)
	}
}

func TestSubsetArch(t *testing.T) {
	a := arch.Exynos2100Like()
	sub, err := a.Subset([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCores() != 2 {
		t.Fatalf("cores = %d", sub.NumCores())
	}
	if sub.Cores[0].Name != "P2" || sub.Cores[1].Name != "P0" {
		t.Errorf("subset order wrong: %v", sub.Cores)
	}
	if _, err := a.Subset(nil); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := a.Subset([]int{9}); err == nil {
		t.Error("bad index accepted")
	}
}
