package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
)

// buildBinary compiles the command once per test binary into a temp
// dir so the regression tests exercise the real CLI surface: flag
// parsing, typed-error exit codes, stderr text.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "npusim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A fault spec naming a core the platform does not have must be
// rejected up front with the dedicated exit code — before any
// simulation runs — and the message must name the offending core.
func TestFaultSpecCoreRangeRejected(t *testing.T) {
	bin := buildBinary(t)
	for _, spec := range []string{"hang=9@5000", "kill=9@5000", "throttle=9@5000x0.5", "slow=9@5000x0.5"} {
		cmd := exec.Command(bin, "-model", "TinyCNN", "-faults", spec)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("spec %q: want exit error, got %v\n%s", spec, err, out)
		}
		if code := ee.ExitCode(); code != cliutil.ExitBadFaultSpec {
			t.Errorf("spec %q: exit code %d, want %d\n%s", spec, code, cliutil.ExitBadFaultSpec, out)
		}
		if !strings.Contains(string(out), "core 9") {
			t.Errorf("spec %q: stderr does not name the offending core:\n%s", spec, out)
		}
	}
}

// A hang with the watchdog armed recovers and exits 0; without it the
// run deadlocks (unclassified), and the message points at the flag.
func TestHangWatchdogRecoversCLI(t *testing.T) {
	bin := buildBinary(t)

	out, err := exec.Command(bin, "-model", "TinyCNN",
		"-faults", "hang=1@5000", "-watchdog", "2000").CombinedOutput()
	if err != nil {
		t.Fatalf("watched hang run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "degraded but recovered") ||
		!strings.Contains(string(out), "watchdog caught") {
		t.Errorf("watched hang run output missing recovery narrative:\n%s", out)
	}

	out, err = exec.Command(bin, "-model", "TinyCNN", "-faults", "hang=1@5000").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("unwatched hang: want exit error, got %v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != cliutil.ExitError {
		t.Errorf("unwatched hang: exit code %d, want %d\n%s", code, cliutil.ExitError, out)
	}
	if !strings.Contains(string(out), "WatchdogCycles") {
		t.Errorf("unwatched hang message does not point at the watchdog:\n%s", out)
	}
}

// Bit-flips do not fail the run: corruptions are detected at stratum
// boundaries and reported for repair, exit 0.
func TestBitFlipsReportedCLI(t *testing.T) {
	bin := buildBinary(t)
	out, err := exec.Command(bin, "-model", "TinyCNN",
		"-faults", "flip=0.05", "-fault-seed", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("flip run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "corrupted stratum") {
		t.Errorf("flip run reported no corruption:\n%s", out)
	}
}

// -trace and -gantt under -faults export the first attempt's events and
// say so, for a run that completes under drops and for one that a core
// death degrades.
func TestFaultedTraceAndGanttCLI(t *testing.T) {
	bin := buildBinary(t)
	for _, spec := range []string{"drop=0.02", "kill=1@8000"} {
		path := filepath.Join(t.TempDir(), "f.json")
		out, err := exec.Command(bin, "-model", "TinyCNN", "-faults", spec, "-fault-seed", "7",
			"-trace", path, "-gantt", "60").CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", spec, err, out)
		}
		for _, want := range []string{"Gantt chart of the first attempt", "legend:", "trace of the first attempt written to"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("%s: output lacks %q:\n%s", spec, want, out)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: no trace file: %v", spec, err)
		}
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file holds no events (%v)", spec, err)
		}
	}
}
