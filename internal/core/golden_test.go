package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/models"
	"repro/internal/serialize"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// compileGolden is one compile's pinned outcome: the SHA-256 of its
// serialized Program and the fallback path that produced it.
type compileGolden struct {
	Program    string   `json:"program_sha256"`
	Fallback   string   `json:"fallback"`
	Downgrades []string `json:"downgrades,omitempty"`
}

// TestCompileGolden pins the compiler's output for the six Table 2
// models under the three Table 3 configurations on the 3-core preset,
// so a compile-path change that claims to change nothing can show it.
// Regenerate with: go generate ./internal/sim (which runs this test
// with -update). -short skips the two segmentation models, which take
// seconds per configuration.
func TestCompileGolden(t *testing.T) {
	a := arch.Exynos2100Like()
	got := map[string]compileGolden{}
	for _, m := range models.All() {
		if testing.Short() && (m.Name == "UNet" || m.Name == "DeepLabV3+") {
			continue
		}
		g := m.Build()
		for _, opt := range []Options{Base(), Halo(), Stratum()} {
			key := m.Name + "/" + opt.Name()
			res, err := Compile(g, a, opt)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := sha256.New()
			if err := serialize.SaveProgram(h, res.Program); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			entry := compileGolden{Program: hex.EncodeToString(h.Sum(nil)), Fallback: res.Fallback.String()}
			for _, d := range res.Downgrades {
				entry.Downgrades = append(entry.Downgrades, d.Level.String()+": "+d.Reason)
			}
			got[key] = entry
		}
	}

	path := filepath.Join("testdata", "compile_golden.json")
	if *updateGolden {
		if testing.Short() {
			t.Fatal("-update needs every model; run without -short")
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	want := map[string]compileGolden{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !testing.Short() && len(want) != len(got) {
		t.Errorf("golden has %d entries, run produced %d (regenerate with -update)", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: not in the golden file (regenerate with -update)", key)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: compiled %+v, golden %+v", key, g, w)
		}
	}
}
