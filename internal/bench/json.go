package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// This file serializes benchmark results for committed evidence files
// (BENCH_*.json) and CI artifacts: machine-readable Fig. 16 series with
// enough run metadata to reproduce them.

// WindowJSON is one Fig. 16 report window in microseconds.
type WindowJSON struct {
	Start  int      `json:"start"`
	End    int      `json:"end"`
	MinUS  float64  `json:"min_us"`
	MeanUS float64  `json:"mean_us"`
	MaxUS  float64  `json:"max_us"`
	Events []string `json:"events,omitempty"`
}

// SummaryJSON aggregates one run in microseconds.
type SummaryJSON struct {
	Count  int     `json:"count"`
	MinUS  float64 `json:"min_us"`
	MeanUS float64 `json:"mean_us"`
	MaxUS  float64 `json:"max_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// Fig16JSON is one Fig. 16 run: options, schedule, summary, and the
// windowed latency series.
type Fig16JSON struct {
	Name          string       `json:"name"`
	Requests      int          `json:"requests"`
	ReconfigEvery int          `json:"reconfig_every"`
	StartNodes    int          `json:"start_nodes"`
	Clients       int          `json:"clients"`
	Durable       bool         `json:"durable"`
	NetLatencyUS  float64      `json:"net_latency_us"`
	NetJitterUS   float64      `json:"net_jitter_us"`
	Seed          int64        `json:"seed"`
	Schedule      []string     `json:"schedule"`
	ElapsedMS     float64      `json:"elapsed_ms"`
	ThroughputOPS float64      `json:"throughput_ops"`
	Summary       SummaryJSON  `json:"summary"`
	Windows       []WindowJSON `json:"windows"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// JSON converts the result into its serializable form.
func (r *Fig16Result) JSON(name string, opts Fig16Options, windowSize int) Fig16JSON {
	s := r.Recorder.Summarize()
	out := Fig16JSON{
		Name:          name,
		Requests:      opts.Requests,
		ReconfigEvery: opts.ReconfigEvery,
		StartNodes:    opts.StartNodes,
		Clients:       opts.Clients,
		Durable:       opts.Durable,
		NetLatencyUS:  us(opts.NetLatency),
		NetJitterUS:   us(opts.NetJitter),
		Seed:          opts.Seed,
		Schedule:      r.Schedule,
		ElapsedMS:     float64(r.Elapsed.Nanoseconds()) / 1e6,
		Summary: SummaryJSON{
			Count: s.Count, MinUS: us(s.Min), MeanUS: us(s.Mean), MaxUS: us(s.Max),
			P50US: us(s.P50), P95US: us(s.P95), P99US: us(s.P99),
		},
	}
	if r.Elapsed > 0 {
		out.ThroughputOPS = float64(s.Count) / r.Elapsed.Seconds()
	}
	for _, w := range r.Recorder.Windows(windowSize) {
		out.Windows = append(out.Windows, WindowJSON{
			Start: w.Start, End: w.End,
			MinUS: us(w.Min), MeanUS: us(w.Mean), MaxUS: us(w.Max),
			Events: w.Events,
		})
	}
	return out
}

// WriteJSON writes v to path as indented JSON.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
