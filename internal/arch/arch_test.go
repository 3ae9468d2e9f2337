package arch

import "testing"

func TestExynosPresetValid(t *testing.T) {
	a := Exynos2100Like()
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if a.NumCores() != 3 {
		t.Errorf("NumCores = %d", a.NumCores())
	}
	if a.MaxAlignC() != 32 {
		t.Errorf("MaxAlignC = %d, want 32", a.MaxAlignC())
	}
	if a.MaxAlignSpatial() != 1 {
		t.Errorf("MaxAlignSpatial = %d", a.MaxAlignSpatial())
	}
}

func TestSingleCore(t *testing.T) {
	a := SingleCore()
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if a.NumCores() != 1 {
		t.Errorf("NumCores = %d", a.NumCores())
	}
	if a.SyncCost(1) != 0 {
		t.Error("single core must have zero sync cost")
	}
}

func TestHomogeneous(t *testing.T) {
	a := Homogeneous(8)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if a.NumCores() != 8 {
		t.Errorf("NumCores = %d", a.NumCores())
	}
	for i := 1; i < 8; i++ {
		if a.Cores[i].MACsPerCycle != a.Cores[0].MACsPerCycle {
			t.Errorf("core %d differs", i)
		}
	}
	if a.Cores[3].Name != "P3" {
		t.Errorf("core name %q", a.Cores[3].Name)
	}
}

func TestSyncCostGrowsWithCores(t *testing.T) {
	a := Exynos2100Like()
	if a.SyncCost(3) <= a.SyncCost(2) {
		t.Error("sync cost must grow with participants")
	}
	if a.SyncCost(0) != 0 {
		t.Error("zero participants must be free")
	}
}

func TestCycleConversion(t *testing.T) {
	a := Exynos2100Like()
	if a.MicrosToCycles(2.0) != 2600 {
		t.Errorf("MicrosToCycles(2) = %d", a.MicrosToCycles(2.0))
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Arch){
		func(a *Arch) { a.Cores = nil },
		func(a *Arch) { a.ClockMHz = 0 },
		func(a *Arch) { a.BusBytesPerCycle = 0 },
		func(a *Arch) { a.ComputeEfficiency = 0 },
		func(a *Arch) { a.ComputeEfficiency = 1.5 },
		func(a *Arch) { a.Cores[0].MACsPerCycle = 0 },
		func(a *Arch) { a.Cores[1].DMABytesPerCycle = 0 },
		func(a *Arch) { a.Cores[2].SPMBytes = 0 },
		func(a *Arch) { a.Cores[0].AlignC = 0 },
		func(a *Arch) { a.Cores[0].AlignSpatial = 0 },
	}
	for i, mutate := range mutations {
		a := Exynos2100Like()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
}
