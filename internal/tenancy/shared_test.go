package tenancy

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/models"
	"repro/internal/recovery"
	"repro/internal/sim"
)

// TestSharedGraphStaysUnchanged: compiling, recovering and serving
// tenants on a shared model graph leave its layers and its compile
// key exactly as built.
func TestSharedGraphStaysUnchanged(t *testing.T) {
	a := arch.Exynos2100Like()
	opt := core.Stratum()
	g, err := models.Shared("MobileNetV2")
	if err != nil {
		t.Fatal(err)
	}
	key := core.Fingerprint(g, a, opt)

	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	kill := sim.Config{Faults: &fault.Plan{Deaths: []fault.Death{{Core: 1, AtCycle: 200000}}}}
	rec, err := recovery.Run(g, a, res.Program, recovery.Options{Opt: opt, Sim: kill})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Degraded() {
		t.Fatal("the core death was not recovered from")
	}
	tenants := []Tenant{
		{Name: "cam", Model: "MobileNetV2", Priority: 2, SLOUS: 8000},
		{Name: "burst", Model: "ShuffleNetV2", Priority: 3, SLOUS: 8000, ArriveUS: 3000, DepartUS: 9000},
	}
	rep, err := Run(a, tenants, Options{HorizonUS: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tenants[0].Remaps == 0 {
		t.Fatal("the tenant was never re-mapped onto a suffix")
	}

	if got := core.Fingerprint(g, a, opt); got != key {
		t.Errorf("shared graph's key moved from %v to %v", key, got)
	}
	if !reflect.DeepEqual(g, models.ByNameMust("MobileNetV2")) {
		t.Error("compile, recovery or tenancy modified the shared graph")
	}
}
