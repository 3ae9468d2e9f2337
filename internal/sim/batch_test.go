package sim_test

import (
	. "repro/internal/sim"

	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/plan"
)

func TestRepeatValid(t *testing.T) {
	g := models.TinyCNN()
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Repeat(res.Program, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumInstrs() != 4*res.Program.NumInstrs() {
		t.Errorf("instrs = %d, want %d", rep.NumInstrs(), 4*res.Program.NumInstrs())
	}
	if rep.NumBarriers != 4*res.Program.NumBarriers {
		t.Errorf("barriers = %d", rep.NumBarriers)
	}
	// Iteration it's deps are the source's shifted by it whole streams,
	// each capped at its own length; the shift must leave the source
	// program's shared deps untouched.
	for c, stream := range res.Program.Cores {
		for i, in := range rep.Cores[c] {
			it := i / len(stream)
			orig := stream[i%len(stream)].Deps
			if len(in.Deps) != len(orig) || cap(in.Deps) != len(in.Deps) {
				t.Fatalf("core %d instr %d: %d deps (cap %d), source has %d", c, i, len(in.Deps), cap(in.Deps), len(orig))
			}
			for j, d := range in.Deps {
				if want := (plan.Ref{Core: orig[j].Core, Index: orig[j].Index + it*len(res.Program.Cores[orig[j].Core])}); d != want {
					t.Fatalf("core %d instr %d dep %d = %+v, want %+v", c, i, j, d, want)
				}
			}
		}
	}
	if _, err := Repeat(res.Program, 0); err == nil {
		t.Error("zero repeat accepted")
	}
	one, err := Repeat(res.Program, 1)
	if err != nil || one != res.Program {
		t.Error("n=1 must return the program unchanged")
	}
}

func TestThroughputBeatsLatency(t *testing.T) {
	// Steady-state period must be at most the single-shot latency:
	// iteration i+1's loads overlap iteration i's tail.
	g := models.TinyCNN()
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	period, batch, err := Throughput(res.Program, 6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if period > single.Stats.TotalCycles+1 {
		t.Errorf("period %.0f > single-shot latency %.0f", period, single.Stats.TotalCycles)
	}
	if batch.Stats.TotalCycles <= single.Stats.TotalCycles {
		t.Error("batch finished faster than one inference")
	}
	// Total work scales exactly with the batch size.
	if batch.Stats.TotalMACs() != 6*single.Stats.TotalMACs() {
		t.Errorf("batch MACs %d != 6x single %d", batch.Stats.TotalMACs(), single.Stats.TotalMACs())
	}
}
