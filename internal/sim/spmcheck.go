package sim

import (
	"fmt"

	"repro/internal/plan"
)

// This file is the simulator's SPM occupancy model, the only one that
// runs over an executed timeline. Both engines track, per core, the
// bytes of every live SPM buffer: a load's destination buffer is
// allocated when the load issues and freed when its last dependent
// compute finishes; a compute's output buffer is allocated when the
// compute issues and freed when its last reader (dependent compute,
// store, or halo send) finishes. Each engine records, in its own code,
// every core's high-water mark in CoreStats (SPMPeakBytes,
// SPMPeakAtCycle, SPMBuffers). When a core's live bytes exceed its SPM
// capacity the run fails with a typed *SPMOverflowError naming the
// core, the cycle, and the owning buffers.
//
// The check runs after each step's issue phase; the event engine skips
// steps that allocated nothing, since frees alone cannot overflow a
// core. Completions due at time t are processed at the end of the
// previous step and the buffers they release are freed before the next
// step issues new work at t, so frees order before allocations at time
// ties. (A buffer freed and re-filled by a zero-duration instruction
// inside one instant could in principle be double-counted, but every
// instruction class has a positive duration on real architectures.)

// SPMBuffer identifies one live SPM allocation at the moment of an
// overflow.
type SPMBuffer struct {
	// Core is the global core holding the buffer; Index is the owning
	// instruction's position within its core-local stream (the same
	// coordinates sim.Event uses).
	Core  int
	Index int
	Op    plan.OpCode
	Bytes int64
	Note  string
}

// SPMOverflowError reports that a core's live SPM footprint exceeded
// its capacity during simulation. It is returned by Run/RunConcurrent
// (and the reference engine); the check always runs.
type SPMOverflowError struct {
	// Core is the global core whose SPM overflowed (the lowest-indexed
	// one when several overflow at the same instant).
	Core int
	// Cycle is the simulation time of the overflow.
	Cycle float64
	// LiveBytes is the core's live footprint at that instant.
	LiveBytes int64
	// CapacityBytes is the core's SPM size.
	CapacityBytes int64
	// Buffers lists the live allocations, in program order.
	Buffers []SPMBuffer
}

func (e *SPMOverflowError) Error() string {
	return fmt.Sprintf("sim: SPM overflow on core %d at cycle %.0f: %d B live > %d B capacity across %d buffers",
		e.Core, e.Cycle, e.LiveBytes, e.CapacityBytes, len(e.Buffers))
}

// spmOwnedBytes returns the SPM bytes instruction in owns while live,
// or 0 when it allocates nothing (stores and barriers read or
// synchronize existing buffers).
func spmOwnedBytes(in *plan.Instr) int64 {
	switch in.Op {
	case plan.LoadInput, plan.LoadKernel, plan.LoadHalo:
		return in.Bytes
	case plan.Compute:
		return in.OutBytes
	}
	return 0
}

// spmReads reports whether a dependent with opcode reader actually
// reads owner's buffer, as opposed to depending on it only for
// double-buffer slot reuse or pipeline ordering.
func spmReads(owner, reader plan.OpCode) bool {
	switch owner {
	case plan.LoadInput, plan.LoadKernel, plan.LoadHalo:
		return reader == plan.Compute
	case plan.Compute:
		return reader == plan.Compute || reader == plan.Store || reader == plan.StoreHalo
	}
	return false
}

// checkSPM fails the run if any core's live footprint exceeds its SPM
// capacity, picking the lowest-indexed violating core and listing its
// live buffers in program order.
func (m *machine) checkSPM() error {
	for c := 0; c < m.ncores; c++ {
		if m.spmLive[c] <= m.a.Cores[c].SPMBytes {
			continue
		}
		err := &SPMOverflowError{
			Core: c, Cycle: m.now,
			LiveBytes: m.spmLive[c], CapacityBytes: m.a.Cores[c].SPMBytes,
		}
		for n := 0; n < m.total; n++ {
			if int(m.coreOf[n]) != c || m.spmBuf[n] <= 0 || !m.nodes[n].started {
				continue
			}
			in := m.instr(n)
			err.Buffers = append(err.Buffers, SPMBuffer{
				Core: c, Index: int(m.indexOf[n]),
				Op: in.Op, Bytes: m.spmBuf[n], Note: in.Note,
			})
		}
		return err
	}
	return nil
}
