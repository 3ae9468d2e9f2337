package tenancy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// A silent hang mid-horizon must degrade to a remapped completion on
// the surviving cores, not an error: the watchdog detects the stall,
// the scheduler retires the core, folds the typed checkpoint, and
// keeps serving. Same spec, same report.
func TestRunSurvivesHangMidHorizon(t *testing.T) {
	a := arch.Exynos2100Like()
	g, err := buildModel("TinyCNN")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run(res.Program, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clean := out.Stats.TotalCycles

	plan, err := fault.ParseSpec(fmt.Sprintf("hang=2@%.0f", 0.3*clean), 1)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []Tenant{{Name: "only", Model: "TinyCNN", Priority: 1}}
	opts := Options{
		HorizonUS: 2000,
		Sim:       sim.Config{Faults: plan, WatchdogCycles: 0.1 * clean},
	}
	rep, err := Run(a, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rep.DeadCores, []int{2}) {
		t.Fatalf("dead cores %v, want [2]", rep.DeadCores)
	}
	if len(rep.Failures) == 0 {
		t.Error("no failure logged for the detected hang")
	}
	tr := rep.Tenants[0]
	if tr.Inferences == 0 {
		t.Fatal("hang degraded service to zero inferences")
	}
	if !slices.Equal(tr.FinalCores, []int{0, 1}) {
		t.Errorf("final cores %v, want the survivors [0 1]", tr.FinalCores)
	}
	if tr.Remaps == 0 {
		t.Error("tenant was never re-mapped onto the survivors")
	}

	// Fewer cores and a wasted stall: the run must serve less than a
	// fault-free horizon would.
	cleanRep, err := Run(a, tenants, Options{HorizonUS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Inferences >= cleanRep.Tenants[0].Inferences {
		t.Errorf("degraded run served %d inferences, clean run %d",
			tr.Inferences, cleanRep.Tenants[0].Inferences)
	}
	if len(cleanRep.DeadCores) != 0 || len(cleanRep.Failures) != 0 {
		t.Errorf("clean run reports dead cores %v failures %v",
			cleanRep.DeadCores, cleanRep.Failures)
	}

	again, err := Run(a, tenants, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, again) {
		t.Error("same faulted spec produced different reports")
	}
}

// An announced core death takes the same degradation path, and a
// co-tenant placed on the surviving cores keeps serving through it:
// killed early, before anything retires, and killed late, when the
// co-tenant keeps every inference it finished before the loss.
func TestRunSurvivesDeathWithCoTenant(t *testing.T) {
	a := arch.Exynos2100Like()
	tenants := []Tenant{
		{Name: "p", Model: "TinyCNN", Priority: 2},
		{Name: "q", Model: "TinyCNN", Priority: 1},
	}
	for _, c := range []struct {
		name      string
		killCycle int
	}{
		{"early", 2000},
		{"late", 2000 * a.ClockMHz}, // 2000 us
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := fault.ParseSpec(fmt.Sprintf("kill=0@%d", c.killCycle), 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{HorizonUS: 4000, Sim: sim.Config{Faults: plan}}
			rep, err := Run(a, tenants, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.DeadCores, []int{0}) {
				t.Fatalf("dead cores %v, want [0]", rep.DeadCores)
			}
			for _, tr := range rep.Tenants {
				if tr.Inferences == 0 {
					t.Errorf("tenant %s served nothing after the core death", tr.Name)
				}
				for _, c := range tr.FinalCores {
					if c == 0 {
						t.Errorf("tenant %s still holds dead core 0: %v", tr.Name, tr.FinalCores)
					}
				}
			}
			if c.name != "late" {
				return
			}
			// Up to the loss the faulted run is the clean one: the
			// co-tenant on a surviving core has finished what a clean
			// run ending there finishes.
			before, err := Run(a, tenants, Options{HorizonUS: float64(c.killCycle) / float64(a.ClockMHz)})
			if err != nil {
				t.Fatal(err)
			}
			if q, done := rep.Tenants[1], before.Tenants[1].Inferences; done == 0 || q.Inferences <= done {
				t.Errorf("co-tenant served %d inferences, %d of them before the loss; want those kept and more after", q.Inferences, done)
			}
		})
	}
}
