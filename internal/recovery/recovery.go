// Package recovery implements the graceful-degradation path after a
// simulated core failure: it rebuilds the unexecuted suffix of the
// network as a fresh graph, re-compiles it for the surviving cores
// (reusing the whole partition/schedule/emit pipeline), and resumes
// from the failure's checkpoint. Recovery never changes numerics —
// the resumed computation consumes the checkpointed layer outputs
// exactly as they sit in global memory, and Validate proves the final
// result bit-exact against the whole-graph reference executor.
//
// Cascading failures are handled by iterating: if the resumed run
// loses another core, its checkpoint is folded back into the original
// graph's coordinates and the remainder is re-compiled again, until
// the network completes or no cores survive.
package recovery

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// DefaultRedispatchCycles models the host-side cost of detecting a
// core failure and re-dispatching the recompiled suffix (~15 us at
// 1.3 GHz) — charged once per failure on top of the wasted cycles.
const DefaultRedispatchCycles = 20000

// Options configures the recovery loop.
type Options struct {
	// Opt is the compiler configuration for recompiled suffixes
	// (typically the one the original program was built with).
	Opt core.Options
	// Sim configures the resumed runs. Its fault plan keeps applying —
	// event times are interpreted in each resumed run's local clock,
	// and events naming already-dead cores are inert — which is how
	// cascading failures arise.
	Sim sim.Config
}

// Result describes a completed run: either a clean one (Run with no
// loss; only Final and TotalCycles are set) or a recovery.
type Result struct {
	// Failures lists every core failure handled, in order (the initial
	// one first, then any cascades during resumed runs).
	Failures []*sim.CoreFailure
	// Hangs lists every watchdog detection handled. A hung core is
	// retired like a dead one — even a hang that would eventually
	// resume is not waited for, because the watchdog cannot know the
	// stall is transient.
	Hangs []*sim.HangDetected
	// DeadCores are the global indices lost, in failure order.
	DeadCores []int
	// Survivors are the global core indices the final run used.
	Survivors []int
	// Completed holds the checkpointed layers (original-graph IDs)
	// that the final suffix resumed from, in execution order.
	Completed []graph.LayerID
	// Suffix is the recompiled remainder of the network and Origin
	// maps its layer IDs back to the original graph's.
	Suffix *graph.Graph
	// Origin maps every suffix-graph layer (inputs included) to the
	// original-graph layer it stands for.
	Origin map[graph.LayerID]graph.LayerID
	// Compiled is the suffix program that ran to completion.
	Compiled *core.Result
	// Final is the simulation of the successful suffix run.
	Final *sim.Result
	// TotalCycles is the end-to-end degraded latency: every failed
	// attempt's wasted cycles, a re-dispatch penalty per failure, and
	// the final run.
	TotalCycles float64

	// first is the first attempt's statistics (see FirstAttempt).
	first *sim.Stats
}

// Degraded reports whether the run lost cores and completed on the
// survivors.
func (r *Result) Degraded() bool { return len(r.DeadCores) > 0 }

// FirstAttempt returns the statistics of the first simulated attempt:
// the whole run when it was clean, otherwise the partial run up to the
// first loss. It is what a Sim.Hook passed to Run observed.
func (r *Result) FirstAttempt() *sim.Stats {
	if r.first == nil {
		return &r.Final.Stats
	}
	return r.first
}

// ReExecutedLayers counts the original-graph layers the final suffix
// had to recompute (compute layers only — checkpoint inputs excluded);
// zero for a clean run.
func (r *Result) ReExecutedLayers() int {
	if r.Suffix == nil {
		return 0
	}
	n := 0
	for _, l := range r.Suffix.Layers() {
		if !l.IsInput() {
			n++
		}
	}
	return n
}

// SuffixGraph builds the graph of everything not yet completed: layers
// outside the completed set keep their operators, and completed
// producers still feeding them become ckpt_ inputs (see induced). The
// returned map gives each new layer's original ID, which reference
// numerics need (weights and input fills are keyed by it).
func SuffixGraph(g *graph.Graph, completed []graph.LayerID) (*graph.Graph, map[graph.LayerID]graph.LayerID, error) {
	var c Checkpoint
	c.Fold(g, completed, nil)
	return c.suffixGraph(g)
}

// StratumGraph builds the re-execution graph for one corrupted
// stratum: exactly the given layers keep their operators. This is
// sound because stratum boundaries publish their outputs to global
// memory: once the previous stratum's checksum verified, the inputs
// are DRAM-resident and known-good, so re-running just these layers
// repairs a silent corruption with a bounded blast radius.
func StratumGraph(g *graph.Graph, layers []graph.LayerID) (*graph.Graph, map[graph.LayerID]graph.LayerID, error) {
	keep := make([]bool, g.Len())
	for _, id := range layers {
		keep[id] = true
	}
	return induced(g, g.Name+"-stratum", keep)
}

// induced builds the graph named name from g's kept layers. Each kept
// non-input layer keeps its operator; each producer it reads that is
// not kept becomes an input, under its own name for a network input and
// as ckpt_<name> for an intermediate read from global memory. Inputs
// appear in the order the rebuilt layers first read them, so a
// selection always yields the same graph and compile fingerprint.
func induced(g *graph.Graph, name string, keep []bool) (*graph.Graph, map[graph.LayerID]graph.LayerID, error) {
	sub := graph.New(name, g.DType)
	origin := make(map[graph.LayerID]graph.LayerID)
	idMap := make([]graph.LayerID, g.Len()) // orig -> sub
	for i := range idMap {
		idMap[i] = -1
	}
	for _, l := range g.Layers() {
		if !keep[l.ID] || l.IsInput() {
			continue
		}
		// Layer IDs are topological, so a kept producer is already
		// rebuilt; any other one is read from memory.
		ins := make([]graph.LayerID, len(l.Inputs))
		for i, pid := range l.Inputs {
			if idMap[pid] < 0 {
				p := g.Layer(pid)
				in := p.Name
				if !p.IsInput() {
					in = "ckpt_" + p.Name
				}
				idMap[pid] = sub.Input(in, p.OutShape)
				origin[idMap[pid]] = pid
			}
			ins[i] = idMap[pid]
		}
		// Preserve per-layer element types the way graph.Subgraph does.
		sub.DType = l.DType
		nid, err := sub.Add(l.Name, l.Op, ins...)
		sub.DType = g.DType
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: rebuilding %s: %w", l.Name, err)
		}
		idMap[l.ID] = nid
		origin[nid] = l.ID
	}
	if sub.Len() == 0 {
		return nil, nil, fmt.Errorf("recovery: %s has no layers to execute", name)
	}
	return sub, origin, nil
}

// Run simulates the compiled program res and, when the run loses
// cores to a survivable failure (sim.LossOf), recovers the unexecuted
// suffix onto the survivors with RecoverFrom. The graph and the
// architecture are the program's own, so the suffix is recompiled for
// exactly the machine the program occupied. The first attempt is
// res.Simulate(opts.Sim), which reuses the compiler's admission run
// when the config cannot change it. opts.Sim configures every attempt,
// except that its Hook observes only the first one: a clean run whole,
// a failed run up to the failure.
//
// A clean run returns a Result with Final and TotalCycles set and no
// losses. An error that is not survivable is returned as is. When
// recovery itself cannot finish, Run returns the original typed
// failure, or the recovery's cancellation error if opts.Sim.Ctx ended
// it.
func Run(res *core.Result, opts Options) (*Result, error) {
	out, err := res.Simulate(opts.Sim)
	if err == nil {
		return &Result{Final: out, TotalCycles: out.Stats.TotalCycles}, nil
	}
	if _, ok := sim.LossOf(err); !ok {
		return nil, err
	}
	ropts := opts
	ropts.Sim.Hook = nil
	r, rerr := RecoverFrom(res.Program.Graph, res.Program.Arch, err, ropts)
	if rerr != nil {
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			return nil, rerr
		}
		return nil, err
	}
	return r, nil
}

// RecoverFrom resumes after a survivable failure (see sim.LossOf) on a
// program that occupied all of a's cores: a *sim.CoreFailure (announced
// death, exhausted DMA retries) or a *sim.HangDetected (watchdog
// detection of a silent stall). All cores named by a hang are retired
// like dead ones. It loops until the remaining network completes on the
// surviving cores or none survive, and returns the recovery's own error
// if it cannot finish.
func RecoverFrom(g *graph.Graph, a *arch.Arch, failure error, opts Options) (*Result, error) {
	r := &Result{}
	dead := make(map[int]bool)
	var ckpt Checkpoint

	absorb := func(err error, origin map[graph.LayerID]graph.LayerID) bool {
		l, ok := sim.LossOf(err)
		if !ok {
			return false
		}
		if l.Failure != nil {
			r.Failures = append(r.Failures, l.Failure)
		} else {
			r.Hangs = append(r.Hangs, l.Hang)
		}
		if r.first == nil {
			r.first = l.Partial
		}
		for _, c := range l.Cores {
			r.DeadCores = append(r.DeadCores, c)
			dead[c] = true
		}
		r.TotalCycles += l.AtCycle + DefaultRedispatchCycles
		ckpt.Fold(g, l.Completed, origin)
		return true
	}
	if !absorb(failure, nil) {
		return nil, fmt.Errorf("recovery: cannot recover from %T: %w", failure, failure)
	}

	for {
		var alive []int
		for c := 0; c < a.NumCores(); c++ {
			if !dead[c] {
				alive = append(alive, c)
			}
		}
		if len(alive) == 0 {
			return nil, fmt.Errorf("recovery: all %d cores dead after %d losses", a.NumCores(), len(r.Failures)+len(r.Hangs))
		}

		// Remap compiles the suffix through the fingerprint cache, so
		// repeated failures at the same checkpoint (sweeps, chaos soaks)
		// compile once, and honors the caller's Sim.Ctx cancellation.
		rm, err := Remap(opts.Sim.Ctx, g, &ckpt, a, alive, opts.Opt)
		if err != nil {
			return nil, err
		}
		suffix, origin, res := rm.Suffix, rm.Origin, rm.Compiled

		// Resume on the global architecture so the fault plan's core
		// indices keep their meaning (dead cores are unplaced -> inert).
		out, err := sim.RunConcurrent(a, []sim.Placement{{Program: res.Program, Cores: alive}}, opts.Sim)
		if err != nil {
			if absorb(err, origin) {
				continue
			}
			return nil, err
		}

		r.Survivors = alive
		r.Completed = ckpt.Layers()
		r.Suffix = suffix
		r.Origin = origin
		r.Compiled = res
		r.Final = out
		r.TotalCycles += out.Stats.TotalCycles
		return r, nil
	}
}

// MergedStats folds the wasted work of every failed attempt and the
// final run into one per-core account, indexed by global core. Engine
// activity overlaps within a core, so Idle is the conservative
// remainder after summing all engines (a lower bound). The SPM peak is
// the per-core maximum over attempts, each of which starts with an
// empty scratch-pad; its cycle is local to the attempt that reached
// it. A clean run's account is Final.Stats, unchanged.
func (r *Result) MergedStats() sim.Stats {
	if !r.Degraded() {
		return r.Final.Stats
	}
	ncores := len(r.Final.Stats.PerCore)
	merged := sim.Stats{
		PerCore:       make([]sim.CoreStats, ncores),
		TotalCycles:   r.TotalCycles,
		ProgramCycles: []float64{r.TotalCycles},
	}
	add := func(s *sim.Stats) {
		merged.Barriers += s.Barriers
		for c := range s.PerCore {
			m, p := &merged.PerCore[c], &s.PerCore[c]
			m.ComputeBusy += p.ComputeBusy
			m.LoadBusy += p.LoadBusy
			m.StoreBusy += p.StoreBusy
			m.SyncWait += p.SyncWait
			m.BytesLoaded += p.BytesLoaded
			m.BytesStored += p.BytesStored
			m.MACs += p.MACs
			m.Retries += p.Retries
			m.SPMBuffers += p.SPMBuffers
			if p.SPMPeakBytes > m.SPMPeakBytes {
				m.SPMPeakBytes, m.SPMPeakAtCycle = p.SPMPeakBytes, p.SPMPeakAtCycle
			}
		}
	}
	for _, f := range r.Failures {
		add(&f.Partial)
	}
	for _, h := range r.Hangs {
		add(&h.Partial)
	}
	add(&r.Final.Stats)
	for c := range merged.PerCore {
		m := &merged.PerCore[c]
		busy := m.ComputeBusy + m.LoadBusy + m.StoreBusy + m.SyncWait
		if idle := merged.TotalCycles - busy; idle > 0 {
			m.Idle = idle
		}
		m.Finish = merged.TotalCycles
	}
	return merged
}

// Validate proves recovery never changed numerics: the suffix graph,
// executed with checkpoint inputs taken from the whole-graph reference
// (the bits the completed layers stored to global memory) and weights
// keyed by original layer IDs, must reproduce every original layer's
// output bit-exactly.
func Validate(g *graph.Graph, r *Result) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("recovery: validation panicked: %v", p)
		}
	}()
	ref, err := exec.RunReference(g)
	if err != nil {
		return err
	}
	out := make(map[graph.LayerID]*exec.Tensor, r.Suffix.Len())
	for _, l := range r.Suffix.Layers() {
		orig, ok := r.Origin[l.ID]
		if !ok {
			return fmt.Errorf("recovery: suffix layer %s has no origin", l.Name)
		}
		if l.IsInput() {
			if g.Layer(orig).IsInput() {
				// Original network input: same deterministic fill the
				// reference used, keyed by the original ID.
				t := exec.NewTensor(l.OutShape)
				t.Fill(0xBEEF + uint64(orig))
				out[l.ID] = t
			} else {
				// Checkpointed intermediate, read back from global
				// memory — by construction identical to the reference.
				out[l.ID] = ref[orig]
			}
			continue
		}
		ins := make([]*exec.View, len(l.Inputs))
		for j, pid := range l.Inputs {
			ins[j] = exec.WholeView(out[pid])
		}
		v, err := exec.Apply(l.Op, tensor.WholeRegion(l.OutShape), ins, r.Suffix.InShapes(l), exec.WeightsFor(orig))
		if err != nil {
			return fmt.Errorf("recovery: layer %s: %w", l.Name, err)
		}
		t := exec.NewTensor(l.OutShape)
		v.CopyInto(t)
		out[l.ID] = t
		if !t.Equal(ref[orig]) {
			return fmt.Errorf("recovery: layer %s differs from reference after recovery", l.Name)
		}
	}
	return nil
}
