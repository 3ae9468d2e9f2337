package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.Mean != 4 {
		t.Errorf("mean = %g", s.Mean)
	}
	want := math.Sqrt((4 + 0 + 4) / 3.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %g, want %g", s.Std, want)
	}
	if len(s.Values) != 3 {
		t.Errorf("values = %v", s.Values)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestFormats(t *testing.T) {
	s := Summarize([]float64{1024, 3072})
	if !strings.Contains(s.KB(), "KB") {
		t.Errorf("KB format: %q", s.KB())
	}
	if !strings.Contains(s.Micros(1000), "us") {
		t.Errorf("Micros format: %q", s.Micros(1000))
	}
	if !strings.Contains(s.String(), "μ:") || !strings.Contains(s.String(), "σ:") {
		t.Errorf("String format: %q", s.String())
	}
}
