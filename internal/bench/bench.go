// Package bench contains the in-memory sweeps the canonical benchmark
// (benchmark/) does not cover yet — read-path modes, multi-raft shard
// scaling, restart recovery — with their latency recorder and the table
// printer of the effort reports. cmd/raft-bench and cmd/adore-verify drive
// them.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// LatencyRecorder collects per-request latencies. It is safe for concurrent
// use: the sweeps record from many client goroutines at once.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder creates an empty recorder.
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	return &LatencyRecorder{samples: make([]time.Duration, 0, capacity)}
}

// Record appends one request latency.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, d)
	r.mu.Unlock()
}

// Samples returns a copy of the raw latencies.
func (r *LatencyRecorder) Samples() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.samples...)
}

// Summary aggregates the full run.
type Summary struct {
	Count          int
	Min, Mean, Max time.Duration
	P50, P95, P99  time.Duration
}

// Summarize computes the run summary.
func (r *LatencyRecorder) Summarize() Summary {
	samples := r.Samples()
	s := Summary{Count: len(samples)}
	if s.Count == 0 {
		return s
	}
	var sum time.Duration
	s.Min = samples[0]
	for _, d := range samples {
		sum += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean = sum / time.Duration(s.Count)
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pct := func(p float64) time.Duration { return samples[int(p/100*float64(len(samples)-1))] }
	s.P50 = pct(50)
	s.P95 = pct(95)
	s.P99 = pct(99)
	return s
}

// us converts a duration to microseconds for the JSON evidence files.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Table is a simple aligned text table for the effort reports (E2–E4).
type Table struct {
	Header []string
	Rows   [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print writes the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}
