package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (p in [0,1]) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile picks the highest reportable tail for n samples: the largest
// of p95, p99, p99.9, p99.99 that still leaves at least ten samples beyond it.
// ok is false when even p95 has fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []float64{0.9999, 0.999, 0.99, 0.95} {
		if float64(n)*(1-c) >= 10-1e-6 { // 1-c is not exact in binary
			return c, true
		}
	}
	return 0, false
}

// dist is the summary every latency series is reported as: the median, the
// fixed percentiles the metric lists name, and the highest percentile the
// sample count supports (Tail is its p, TailValue its value; Tail 0 = none).
type dist struct {
	N         int
	P50       float64
	P95       float64
	P99       float64
	P999      float64
	Tail      float64
	TailValue float64
}

// summarize sorts samples in place and returns their dist.
func summarize(samples []float64) dist {
	sort.Float64s(samples)
	d := dist{
		N:    len(samples),
		P50:  quantile(samples, 0.50),
		P95:  quantile(samples, 0.95),
		P99:  quantile(samples, 0.99),
		P999: quantile(samples, 0.999),
	}
	if p, ok := tailPercentile(len(samples)); ok {
		d.Tail, d.TailValue = p, quantile(samples, p)
	}
	return d
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// median returns the median of v without reordering it.
func median(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// quartileSpread is the run-to-run spread the acceptance rule uses: the
// distance between the first and third quartile (exclusive method, as
// Python's statistics.quantiles(v, n=4)) as a share of the median. With
// fewer than four values the quartiles are not defined and the full range
// stands in.
func quartileSpread(v []float64) float64 {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := quantile(c, 0.5)
	if m == 0 || len(c) < 2 {
		return 0
	}
	if len(c) < 4 {
		return (c[len(c)-1] - c[0]) / math.Abs(m)
	}
	return (exclusiveQuantile(c, 0.75) - exclusiveQuantile(c, 0.25)) / math.Abs(m)
}

// exclusiveQuantile is the (n+1)-rank method of Python's
// statistics.quantiles default.
func exclusiveQuantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}
