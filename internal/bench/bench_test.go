package bench

import (
	"strings"
	"testing"
	"time"
)

func TestPercentileAndSummary(t *testing.T) {
	r := NewLatencyRecorder(100)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	s := r.Summarize()
	if s.P50 < 49*time.Millisecond || s.P50 > 52*time.Millisecond {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.Count != 100 || s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("mean = %v", s.Mean)
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := NewLatencyRecorder(0)
	if s := r.Summarize(); s != (Summary{}) {
		t.Errorf("summary of empty recorder = %+v", s)
	}
}

func TestTablePrint(t *testing.T) {
	tb := &Table{Header: []string{"a", "bbbb"}}
	tb.Add("x", "y")
	tb.Add("long-cell", "z")
	var b strings.Builder
	tb.Print(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "a          bbbb") {
		t.Errorf("header misaligned: %q", lines[0])
	}
}
