package sim_test

import (
	. "repro/internal/sim"

	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// convNet builds a conv-heavy network large enough for parallelism to
// pay off.
func convNet(depth int) *graph.Graph {
	g := graph.New("convnet", tensor.Int8)
	prev := g.Input("input", tensor.NewShape(96, 96, 32))
	for i := 0; i < depth; i++ {
		prev = g.MustAdd("conv"+string(rune('a'+i)),
			ops.NewConv2D(3, 3, 1, 1, 64, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), prev)
	}
	return g
}

func runCfg(t *testing.T, g *graph.Graph, a *arch.Arch, opt core.Options) *Result {
	t.Helper()
	res, err := core.Compile(g, a, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	out, err := Run(res.Program, Config{})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	return out
}

func TestSimulatesToCompletion(t *testing.T) {
	g := convNet(4)
	out := runCfg(t, g, arch.Exynos2100Like(), core.Base())
	if out.Stats.TotalCycles <= 0 {
		t.Fatal("zero latency")
	}
	for c, cs := range out.Stats.PerCore {
		if cs.ComputeBusy <= 0 {
			t.Errorf("core %d never computed", c)
		}
		if cs.Finish > out.Stats.TotalCycles+1 {
			t.Errorf("core %d finish %.0f beyond total %.0f", c, cs.Finish, out.Stats.TotalCycles)
		}
		if cs.ComputeBusy+cs.Idle > out.Stats.TotalCycles+1 {
			t.Errorf("core %d busy+idle %.0f exceeds total %.0f", c, cs.ComputeBusy+cs.Idle, out.Stats.TotalCycles)
		}
	}
}

func TestMulticoreBeatsSingleCore(t *testing.T) {
	g := convNet(6)
	multi := runCfg(t, g, arch.Exynos2100Like(), core.Base())
	single := runCfg(t, g, arch.SingleCore(), core.Base())
	speedup := single.Stats.TotalCycles / multi.Stats.TotalCycles
	if speedup < 1.3 {
		t.Errorf("3-core speedup = %.2fx, want > 1.3x", speedup)
	}
	if speedup > 3.0 {
		t.Errorf("3-core speedup = %.2fx exceeds core count", speedup)
	}
}

func TestOptimizationsImproveLatency(t *testing.T) {
	g := convNet(8)
	a := arch.Exynos2100Like()
	base := runCfg(t, g, a, core.Base())
	halo := runCfg(t, g, a, core.Halo())
	strat := runCfg(t, g, a, core.Stratum())
	if halo.Stats.TotalCycles >= base.Stats.TotalCycles {
		t.Errorf("+Halo %.0f >= Base %.0f", halo.Stats.TotalCycles, base.Stats.TotalCycles)
	}
	// On a compute-bound chain the halo exchange hides completely, so
	// stratum's redundant compute makes it at best comparable (the
	// paper's Table 5 shows the same near-tie: 387 vs 386 us).
	if strat.Stats.TotalCycles > 1.02*halo.Stats.TotalCycles {
		t.Errorf("+Stratum %.0f much worse than +Halo %.0f on a compute-bound chain",
			strat.Stats.TotalCycles, halo.Stats.TotalCycles)
	}
	var baseSync float64
	for c := range base.Stats.PerCore {
		baseSync += base.Stats.PerCore[c].SyncWait
	}
	if baseSync <= 0 {
		t.Error("Base shows no sync overhead")
	}
}

func TestStratumWinsWhenSyncBound(t *testing.T) {
	// Shallow channels: per-layer compute is small, so the implicit
	// rendezvous of halo-exchange is exposed at every boundary. The
	// layers fit SPM (128x128x8 = 128 KB), so strata form and remove
	// the synchronization entirely — stratum must win here.
	g := graph.New("syncbound", tensor.Int8)
	prev := g.Input("input", tensor.NewShape(128, 128, 8))
	for i := 0; i < 6; i++ {
		prev = g.MustAdd("conv"+string(rune('a'+i)),
			ops.NewConv2D(3, 3, 1, 1, 8, ops.Padding{Top: 1, Bottom: 1, Left: 1, Right: 1}), prev)
	}
	a := arch.Exynos2100Like()
	haloRes, err := core.Compile(g, a, core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	stratRes, err := core.Compile(g, a, core.Stratum())
	if err != nil {
		t.Fatal(err)
	}
	if stratRes.Program.NumBarriers >= haloRes.Program.NumBarriers {
		t.Errorf("stratum barriers %d >= halo %d", stratRes.Program.NumBarriers, haloRes.Program.NumBarriers)
	}
	halo, err := Run(haloRes.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	strat, err := Run(stratRes.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strat.Stats.TotalCycles >= halo.Stats.TotalCycles {
		t.Errorf("+Stratum %.0f >= +Halo %.0f on a sync-bound chain",
			strat.Stats.TotalCycles, halo.Stats.TotalCycles)
	}
}

func TestTraceCollection(t *testing.T) {
	g := convNet(2)
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Halo())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Trace) != res.Program.NumInstrs() {
		t.Errorf("trace has %d events, program has %d instrs", len(out.Trace), res.Program.NumInstrs())
	}
	for _, ev := range out.Trace {
		if ev.End < ev.Start {
			t.Errorf("event %q ends before it starts", ev.Note)
		}
	}
}

func TestTraceRespectsDependencies(t *testing.T) {
	g := convNet(3)
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Base())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild completion times per instruction and check all deps
	// finished before each start.
	end := make(map[[2]int]float64)
	start := make(map[[2]int]float64)
	for _, ev := range out.Trace {
		// Identify the instruction by core + scan order; trace events
		// are unique per instruction, so match by core and note+times.
		_ = ev
	}
	// Simpler: re-run and match sequentially per core by instruction
	// order using the engine-queue invariant: events per (core, note)
	// are unique in this program.
	type key struct {
		core int
		note string
	}
	seen := map[key]Event{}
	for _, ev := range out.Trace {
		seen[key{ev.Core, ev.Note}] = ev
	}
	for c, stream := range res.Program.Cores {
		for i, in := range stream {
			ev, ok := seen[key{c, in.Note}]
			if !ok {
				t.Fatalf("no trace event for core %d instr %d (%s)", c, i, in.Note)
			}
			start[[2]int{c, i}] = ev.Start
			end[[2]int{c, i}] = ev.End
		}
	}
	for c, stream := range res.Program.Cores {
		for i, in := range stream {
			for _, d := range in.Deps {
				if end[[2]int{d.Core, d.Index}] > start[[2]int{c, i}]+1e-6 {
					t.Errorf("core %d instr %d (%s) started before dep %v finished", c, i, in.Note, d)
				}
			}
		}
	}
}

func TestBusContentionSlowsTransfers(t *testing.T) {
	// Narrow the bus far below the sum of core DMA rates: traffic-heavy
	// programs must slow down.
	g := convNet(4)
	wide := arch.Exynos2100Like()
	wide.BusBytesPerCycle = 1e9
	narrow := arch.Exynos2100Like()
	narrow.BusBytesPerCycle = 4
	fast := runCfg(t, g, wide, core.Base())
	slow := runCfg(t, g, narrow, core.Base())
	if slow.Stats.TotalCycles <= fast.Stats.TotalCycles {
		t.Errorf("narrow bus %.0f <= wide bus %.0f", slow.Stats.TotalCycles, fast.Stats.TotalCycles)
	}
}

func TestSyncCostVisible(t *testing.T) {
	// Raising the barrier cost must increase Base latency.
	g := convNet(4)
	cheap := arch.Exynos2100Like()
	cheap.SyncBaseCycles = 10
	costly := arch.Exynos2100Like()
	costly.SyncBaseCycles = 100000
	fast := runCfg(t, g, cheap, core.Base())
	slow := runCfg(t, g, costly, core.Base())
	if slow.Stats.TotalCycles <= fast.Stats.TotalCycles {
		t.Errorf("costly sync %.0f <= cheap sync %.0f", slow.Stats.TotalCycles, fast.Stats.TotalCycles)
	}
}

func TestStatsAccounting(t *testing.T) {
	g := convNet(3)
	res, err := core.Compile(g, arch.Exynos2100Like(), core.Base())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(res.Program, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range res.Program.Cores {
		if out.Stats.PerCore[c].MACs != res.Program.TotalMACs(c) {
			t.Errorf("core %d MACs %d != program %d", c, out.Stats.PerCore[c].MACs, res.Program.TotalMACs(c))
		}
		got := out.Stats.PerCore[c].BytesLoaded + out.Stats.PerCore[c].BytesStored
		if got != res.Program.TotalBytes(c) {
			t.Errorf("core %d bytes %d != program %d", c, got, res.Program.TotalBytes(c))
		}
	}
	us := out.Stats.LatencyMicros(res.Program.Arch.ClockMHz)
	if us <= 0 {
		t.Error("non-positive latency in microseconds")
	}
	if out.Stats.TotalMACs() <= 0 || out.Stats.TotalBytes() <= 0 {
		t.Error("aggregate totals not positive")
	}
}

// Every core of a benchmark model allocates scratch-pad buffers and
// the engine's admission check holds its high-water mark within
// capacity.
func TestSPMPeakBenchmarkModels(t *testing.T) {
	a := arch.Exynos2100Like()
	for _, name := range []string{"MobileNetV2", "InceptionV3"} {
		for _, opt := range []core.Options{core.Base(), core.Stratum()} {
			out := runCfg(t, models.ByNameMust(name), a, opt)
			for c, cs := range out.Stats.PerCore {
				if cs.SPMPeakBytes <= 0 || cs.SPMBuffers <= 0 {
					t.Errorf("%s/%s core %d: peak %d B across %d buffers",
						name, opt.Name(), c, cs.SPMPeakBytes, cs.SPMBuffers)
				}
				if cs.SPMPeakBytes > a.Cores[c].SPMBytes {
					t.Errorf("%s/%s core %d: peak %d B beyond capacity %d B",
						name, opt.Name(), c, cs.SPMPeakBytes, a.Cores[c].SPMBytes)
				}
				if cs.SPMPeakAtCycle <= 0 || cs.SPMPeakAtCycle > out.Stats.TotalCycles {
					t.Errorf("%s/%s core %d: peak at cycle %v outside the run",
						name, opt.Name(), c, cs.SPMPeakAtCycle)
				}
			}
		}
	}
}

// UNet's large activations press the scratch-pad harder than
// MobileNetV2's.
func TestSPMPeakScalesWithTensorSize(t *testing.T) {
	peak := map[string]int64{}
	for _, cm := range allCompiledModels(t) {
		if cm.name != "MobileNetV2" && cm.name != "UNet" {
			continue
		}
		out, err := Run(cm.prog, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range out.Stats.PerCore {
			peak[cm.name] = max(peak[cm.name], cs.SPMPeakBytes)
		}
	}
	if peak["UNet"] <= peak["MobileNetV2"] {
		t.Errorf("UNet peak %d <= MobileNetV2 peak %d", peak["UNet"], peak["MobileNetV2"])
	}
}

func TestEmptyProgram(t *testing.T) {
	a := arch.SingleCore()
	p := &plan.Program{Arch: a, Cores: make([][]plan.Instr, 1)}
	out, err := Run(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.TotalCycles != 0 {
		t.Errorf("empty program latency %.0f", out.Stats.TotalCycles)
	}
}
