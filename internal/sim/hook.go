package sim

// Hook observes a run: it receives every retired instruction
// (package metrics implements it for reports; Recorder is the
// trace-only hook, LayerFinish the per-layer finish row). A Hook that
// also implements BusHook receives the event engine's bus allocation
// series. The contract is strict so the hook cannot perturb the
// simulation or its performance:
//
//   - A nil Config.Hook costs one predicted branch per retired
//     instruction and per bus reallocation — the zero-allocation
//     steady-state path is unchanged. A Hook that is not a BusHook
//     costs nothing per bus reallocation: the engine checks for
//     BusHook once per run and builds no BusSample without one.
//   - Methods are called synchronously from the engine loop and must
//     not retain pointers into engine scratch; both sample types are
//     plain values with no references, so storing them is safe.
//   - The hook is a pure observer: the engine's results are
//     bit-identical with and without one (the equivalence suite runs a
//     recording hook to enforce this).
//   - Both engines feed OnInstr, with identical events in identical
//     order, including the prefix a failed run retired before it
//     stopped. Only the event engine feeds OnBus: the reference engine
//     has no incremental allocation series to report.
type Hook interface {
	// OnInstr fires once per retired instruction, in completion order
	// (the order Stats accumulation observes).
	OnInstr(Event)
}

// BusHook is the optional bus half of a Hook.
type BusHook interface {
	// OnBus fires whenever the bus water-filling set is rebuilt
	// (membership or core-speed change) with the new allocation, and
	// once more at the end of the run with an empty allocation, closing
	// the series. Between consecutive samples the allocation is
	// constant, so the series is exact, not sampled.
	OnBus(BusSample)
}

// Recorder is the trace-only Hook: it keeps every retired instruction
// in completion order. Its Events are the run's trace (for a failed
// run, the prefix retired before the failure). The zero value is ready
// to use; Reset reuses the backing array across runs.
type Recorder struct {
	Events []Event
}

// OnInstr implements Hook.
func (r *Recorder) OnInstr(e Event) { r.Events = append(r.Events, e) }

// Reset clears the trace for reuse, keeping capacity.
func (r *Recorder) Reset() { r.Events = r.Events[:0] }

// BusSample is one step of the shared-bus allocation series: the
// water-filling result at time At, valid until the next sample.
type BusSample struct {
	At float64 // cycles
	// Demand is the sum of the in-flight bus channels' DMA-engine
	// capacities (bytes/cycle) — what the cores would move with no bus
	// ceiling.
	Demand float64
	// Granted is the sum of the allocated rates (bytes/cycle);
	// Granted <= min(Demand, Arch.BusBytesPerCycle). Demand > Granted
	// means the bus is contended.
	Granted float64
	// Channels is the number of transfers sharing the bus.
	Channels int
	// DirectGranted is the aggregate rate of transfers on the dedicated
	// halo interconnect (zero unless Arch.DirectHaloInterconnect).
	DirectGranted float64
	// DirectChannels is the number of transfers on the dedicated link.
	DirectChannels int
}
