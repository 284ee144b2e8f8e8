package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestFile is the part of BENCHMARK.json -compare needs.
type manifestFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one row of a comparison.
type verdict struct {
	a, b             float64 // medians
	spreadA, spreadB float64 // quartile spread / median
	worse            float64 // share of a's median by which b is worse (negative = better)
	status           string
}

// judge applies the repository's regression rule to two sets of values of
// one metric on one workload: unresolved when either side's own run-to-run
// spread is wider than the bound (the comparison cannot tell), regressed
// when b's median is worse than a's by more than the bound, ok otherwise.
func judge(a, b []float64, better string, bound float64) (v verdict) {
	v.a, v.b = median(a), median(b)
	v.spreadA, v.spreadB = quartileSpread(a), quartileSpread(b)
	if v.a != 0 {
		v.worse = (v.b - v.a) / v.a
		if better == "higher" {
			v.worse = -v.worse
		}
	}
	switch {
	case v.spreadA > bound || v.spreadB > bound:
		v.status = "unresolved"
	case v.worse > bound:
		v.status = "regressed"
	default:
		v.status = "ok"
	}
	return v
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// valuesOf collects one end-to-end metric of one workload over a file's
// untraced runs.
func valuesOf(f resultFile, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedShareBound is how much B's share of requests that missed their
// deadline may exceed A's, as an absolute difference. BENCHMARK.json cannot
// carry it: its bounds are shares of a median that here is 0.
const failedShareBound = 0.001

// failedShare pools deadline misses over attempts across a file's untraced
// runs of one workload.
func failedShare(f resultFile, workload string) float64 {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			attempted, failed = attempted+r.Attempted, failed+r.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// judgeFailed is the rule for the failed share: regressed when B fails more
// of its requests than A by more than failedShareBound, whatever the
// latencies say.
func judgeFailed(a, b float64) string {
	if b-a > failedShareBound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per workload and end-to-end metric plus the
// failed share, and fails when any row regressed or either file holds an
// incorrect run.
func compareFiles(manifestPath, pathA, pathB string) error {
	mb, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var man manifestFile
	if err := json.Unmarshal(mb, &man); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-12s %12s %12s %-5s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "unit", "spread A", "spread B", "worse", "bound", "status")
	regressed := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			a, b := valuesOf(fa, w.Name, m.Name), valuesOf(fb, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-20s %-12s missing (A has %d runs, B has %d)\n", w.Name, m.Name, len(a), len(b))
				continue
			}
			v := judge(a, b, m.Better, m.Bound)
			if v.status == "regressed" {
				regressed++
			}
			fmt.Printf("%-20s %-12s %12.4f %12.4f %-5s %7.1f%% %7.1f%% %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, v.a, v.b, m.Unit, 100*v.spreadA, 100*v.spreadB, 100*v.worse, 100*m.Bound, v.status)
		}
		a, b := failedShare(fa, w.Name), failedShare(fb, w.Name)
		status := judgeFailed(a, b)
		if status == "regressed" {
			regressed++
		}
		fmt.Printf("%-20s %-12s %12.6f %12.6f %-5s %8s %8s %+8.4f %6.3f  %s\n",
			w.Name, "failed_share", a, b, "share", "", "", b-a, failedShareBound, status)
	}
	for _, f := range []resultFile{fa, fb} {
		for _, r := range f.Runs {
			if !r.Correct {
				return fmt.Errorf("%s seed %d failed the correctness gate", r.Workload, r.Seed)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
