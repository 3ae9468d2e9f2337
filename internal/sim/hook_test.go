package sim_test

import (
	. "repro/internal/sim"

	"reflect"
	"testing"

	"repro/internal/plan"
)

// recordingHook is a minimal Hook for tests (package metrics has the
// real collector; sim must not import it).
type recordingHook struct {
	instrs []InstrSample
	bus    []BusSample
}

func (h *recordingHook) OnInstr(s InstrSample) { h.instrs = append(h.instrs, s) }
func (h *recordingHook) OnBus(s BusSample)     { h.bus = append(h.bus, s) }

// TestHookObserverIsPure holds the hook to its contract: attaching one
// changes nothing about the run's outcome, on every model and fault
// plan of the equivalence matrix.
func TestHookObserverIsPure(t *testing.T) {
	for _, cm := range allCompiledModels(t) {
		base, err := Run(cm.prog, Config{})
		if err != nil {
			t.Fatalf("%s: %v", cm.name, err)
		}
		for _, fp := range equivalencePlans(base.Stats.TotalCycles) {
			t.Run(cm.name+"/"+fp.name, func(t *testing.T) {
				plain, plainErr := Run(cm.prog, Config{CollectTrace: true, Faults: fp.plan})
				hook := &recordingHook{}
				hooked, hookedErr := Run(cm.prog, Config{CollectTrace: true, Faults: fp.plan, Hook: hook})
				switch {
				case plainErr == nil && hookedErr == nil:
					if !reflect.DeepEqual(plain, hooked) {
						t.Fatal("hooked run result differs from plain run")
					}
				case plainErr != nil && hookedErr != nil:
					if !reflect.DeepEqual(plainErr, hookedErr) {
						t.Fatalf("hooked failure %v differs from plain failure %v", hookedErr, plainErr)
					}
				default:
					t.Fatalf("plain err %v, hooked err %v", plainErr, hookedErr)
				}
				if plainErr != nil {
					return
				}
				// Exactly one sample per instruction, in trace order with
				// matching fields.
				if len(hook.instrs) != len(hooked.Trace) {
					t.Fatalf("%d instruction samples for %d trace events", len(hook.instrs), len(hooked.Trace))
				}
				for i, s := range hook.instrs {
					ev := hooked.Trace[i]
					if s.Core != ev.Core || s.Index != ev.Index || s.Op != ev.Op ||
						s.Start != ev.Start || s.End != ev.End || s.Retries != ev.Retries {
						t.Fatalf("sample %d = %+v does not match trace event %+v", i, s, ev)
					}
				}
				// The bus series is closed: non-decreasing timestamps, final
				// sample empty at the run's end.
				if len(hook.bus) == 0 {
					t.Fatal("no bus samples")
				}
				for i := 1; i < len(hook.bus); i++ {
					if hook.bus[i].At < hook.bus[i-1].At {
						t.Fatalf("bus sample %d at %f before %f", i, hook.bus[i].At, hook.bus[i-1].At)
					}
				}
				last := hook.bus[len(hook.bus)-1]
				if last.At != hooked.Stats.TotalCycles || last.Channels != 0 || last.Granted != 0 {
					t.Fatalf("series not closed: last sample %+v, total %f", last, hooked.Stats.TotalCycles)
				}
			})
		}
	}
}

// TestHookSampleTotals cross-foots the samples against the engine's
// own stats: re-accumulating the raw per-engine sums in sample order
// reproduces CoreStats bit-for-bit (same values, same order, no
// tolerance).
func TestHookSampleTotals(t *testing.T) {
	for _, cm := range allCompiledModels(t) {
		hook := &recordingHook{}
		out, err := Run(cm.prog, Config{Hook: hook})
		if err != nil {
			t.Fatalf("%s: %v", cm.name, err)
		}
		acc := make([]CoreStats, len(out.Stats.PerCore))
		for _, s := range hook.instrs {
			st := &acc[s.Core]
			dur := s.End - s.Start
			switch s.Op.Engine() {
			case plan.EngineCompute:
				st.ComputeBusy += dur
				st.MACs += s.MACs
			case plan.EngineLoad:
				st.LoadBusy += dur
				st.BytesLoaded += s.Bytes
			case plan.EngineStore:
				st.StoreBusy += dur
				st.BytesStored += s.Bytes
			case plan.EngineSync:
				st.SyncWait += dur
			}
			st.Retries += s.Retries
			if s.End > st.Finish {
				st.Finish = s.End
			}
		}
		for c, st := range out.Stats.PerCore {
			got := acc[c]
			if got.ComputeBusy != st.ComputeBusy || got.LoadBusy != st.LoadBusy ||
				got.StoreBusy != st.StoreBusy || got.SyncWait != st.SyncWait ||
				got.BytesLoaded != st.BytesLoaded || got.BytesStored != st.BytesStored ||
				got.MACs != st.MACs || got.Retries != st.Retries || got.Finish != st.Finish {
				t.Fatalf("%s core %d: sample accumulation %+v != engine stats %+v", cm.name, c, got, st)
			}
		}
	}
}

// TestNilHookCheapPath pins the nil-hook cost story: a steady-state
// run allocates orders of magnitude below the pre-pooling engine
// (15k-33k allocs per run). The exact count (5) is gated in CI against
// BENCH_sim.json, measured with one P; AllocsPerRun can see a few extra
// when GC empties the machine pool mid-measurement, so this test only
// bounds the order of magnitude.
func TestNilHookCheapPath(t *testing.T) {
	cm := allCompiledModels(t)[0]
	if _, err := Run(cm.prog, Config{}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(cm.prog, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 100 {
		t.Fatalf("nil-hook run averaged %.0f allocs; pooled path should stay far below 100", avg)
	}
}
