package cliutil

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/tiling"
)

// Process exit codes shared by the command-line tools. Scripts and CI
// gates branch on these, so each typed failure class gets a stable
// number; everything unclassified is the generic 1.
const (
	// ExitOK: success.
	ExitOK = 0
	// ExitError: unclassified failure (I/O, invalid flags caught late,
	// simulator deadlock, ...).
	ExitError = 1
	// ExitUsage: bad command-line usage (the flag package's own code).
	ExitUsage = 2
	// ExitUnfit: the compiler exhausted its graceful-degradation chain
	// without finding a schedule that fits SPM (core.UnfitError).
	// Deterministic for a given (model, arch, config) — retrying the
	// same invocation cannot succeed.
	ExitUnfit = 3
	// ExitSPMOverflow: simulated live SPM bytes overflowed a core's
	// capacity (sim.SPMOverflowError).
	ExitSPMOverflow = 4
	// ExitCannotFit: a single layer's minimal tile exceeds the SPM
	// budget (tiling.CannotFitError).
	ExitCannotFit = 5
	// ExitCoreFailure: an injected fault killed a core and the run
	// could not be recovered (sim.CoreFailure).
	ExitCoreFailure = 6
	// ExitCanceled: the run was canceled or timed out (context
	// cancellation, sim.ErrCanceled).
	ExitCanceled = 7
	// ExitHangDetected: the watchdog caught a silently hung core and
	// the run could not be recovered (sim.HangDetected).
	ExitHangDetected = 8
	// ExitBadFaultSpec: the fault plan referenced a core the platform
	// does not have (fault.CoreRangeError) — a spec bug, not a run
	// failure; retrying the same invocation cannot succeed.
	ExitBadFaultSpec = 9
)

// ExitCode maps an error to the process exit code documented above.
// More specific classes win: a CannotFitError wrapped inside an
// UnfitError reports ExitUnfit, because the fallback chain (not the
// single layer) is what failed.
func ExitCode(err error) int {
	if err == nil {
		return ExitOK
	}
	var unfit *core.UnfitError
	if errors.As(err, &unfit) {
		return ExitUnfit
	}
	var overflow *sim.SPMOverflowError
	if errors.As(err, &overflow) {
		return ExitSPMOverflow
	}
	var cannot *tiling.CannotFitError
	if errors.As(err, &cannot) {
		return ExitCannotFit
	}
	var cf *sim.CoreFailure
	if errors.As(err, &cf) {
		return ExitCoreFailure
	}
	var hd *sim.HangDetected
	if errors.As(err, &hd) {
		return ExitHangDetected
	}
	var cr *fault.CoreRangeError
	if errors.As(err, &cr) {
		return ExitBadFaultSpec
	}
	if errors.Is(err, sim.ErrCanceled) || errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) {
		return ExitCanceled
	}
	return ExitError
}

// ExitCodeDoc is the exit-code table for the tools' -help output.
const ExitCodeDoc = `Exit codes:
  0  success
  1  unclassified error
  2  bad command-line usage
  3  schedule cannot fit SPM after all fallbacks (unfit)
  4  simulated SPM overflow
  5  a single layer's minimal tile exceeds SPM
  6  core failure (injected fault, unrecovered)
  7  canceled or deadline exceeded
  8  silent hang detected by the watchdog (unrecovered)
  9  fault spec references a core the platform does not have
`
