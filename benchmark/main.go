// Command benchmark is the repository's one canonical benchmark: the stack
// cmd/raft-kv deploys (TCPTransport on loopback, multiraft.Host, FileStorage,
// kvstore.Store) assembled in one process and driven by closed-loop clients
// through four named workloads. See README.md in this directory.
//
// One run is one workload, one seed, one pass:
//
//	go run ./benchmark -workload put-durable -seed 1 -seconds 10 -trace 0
//
// prints the end-to-end metrics (tracing off); -trace 1 prints the per-layer
// metrics from a traced pass plus the isolated probes. The last line of
// standard output is the run's result as one JSON object.
//
//	go run ./benchmark -workload all -runs 3 -trace both -out a.json
//	go run ./benchmark -compare a.json b.json
//
// run every workload several times into a result file, and compare two such
// files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// result is one run as printed on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in a result file: the result plus what produced
// it.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      int      `json:"trace"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Violations []string `json:"violations,omitempty"`
	result
}

// envBlock describes the machine and build a result file came from.
type envBlock struct {
	GoVersion    string  `json:"go_version"`
	NumCPU       int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	Commit       string  `json:"commit"`
	TickPeriodMs float64 `json:"tick_period_ms"`
	DiskMinUs    float64 `json:"disk_floor_min_us"`
	DiskMeanUs   float64 `json:"disk_floor_mean_us"`
	WALFS        string  `json:"wal_filesystem"`
	ProbeFsyncUs float64 `json:"storage.probe_fsync_us"`
}

// resultFile is what -out writes. Claim stays null: a result file states
// measurements, never a gain.
type resultFile struct {
	Env   envBlock `json:"env"`
	Runs  []record `json:"runs"`
	Claim *string  `json:"claim"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 10, "length of the measured window")
		trace    = flag.String("trace", "0", "0: end-to-end pass, tracing off; 1: traced pass and probes; both")
		out      = flag.String("out", "", "also write env + every run to this result file")
		dir      = flag.String("dir", ".bench_build", "scratch root for WAL directories and trace files")
		runs     = flag.Int("runs", 1, "repeat each run this many times, with seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		manifest = flag.String("manifest", "BENCHMARK.json", "with -compare: where the bounds are")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareFiles(*manifest, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err.Error())
		}
		return
	}

	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else if w, ok := workloadByName(*workload); ok {
		specs = []workloadSpec{w}
	} else {
		fatal(fmt.Sprintf("unknown workload %q (have %s, all)", *workload, strings.Join(workloadNames(), ", ")))
	}
	var passes []bool
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fatal("-trace takes 0, 1 or both")
	}
	if *seconds < 1 || *runs < 1 {
		fatal("-seconds and -runs must be at least 1")
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err.Error())
	}

	file := resultFile{Env: environment(*dir)}
	allCorrect := true
	for _, spec := range specs {
		for i := 0; i < *runs; i++ {
			for _, traced := range passes {
				opts := runOpts{
					seed: *seed + int64(i), window: time.Duration(*seconds) * time.Second,
					warmup: warmup, trace: traced, dir: *dir, keys: keyCount,
				}
				rec, err := runOnce(spec, opts, &file.Env)
				if err != nil {
					fatal(fmt.Sprintf("%s: %v", spec.name, err))
				}
				allCorrect = allCorrect && rec.Correct
				file.Runs = append(file.Runs, rec)
				printRecord(rec)
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err.Error())
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// procsFor is the GOMAXPROCS a workload runs at. The deployment this models
// gives a replica set a handful of cores: min(nproc, 4). In deployment each
// replica is also its own process; here they share one Go scheduler, where a
// replica inside a disk call keeps its P until sysmon takes it back, so that
// with two Ps and two followers on their disks the leader cannot run to take
// their acknowledgements. One more P per durable replica keeps a replica
// that waits for its disk from holding up one that does not.
func procsFor(spec workloadSpec) int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if spec.durable {
		n += spec.replicas
	}
	return n
}

// runOnce executes one pass of one workload and turns it into a record.
func runOnce(spec workloadSpec, opts runOpts, env *envBlock) (record, error) {
	rec := record{Workload: spec.name, Seed: opts.seed, Seconds: int(opts.window / time.Second), GOMAXPROCS: procsFor(spec)}
	runtime.GOMAXPROCS(rec.GOMAXPROCS)
	if opts.trace {
		// The per-layer pass times nothing about set-up; one is enough. The
		// untraced reference window is half the traced one.
		rec.Trace, opts.setups, opts.ref = 1, 1, opts.window/2
	} else {
		opts.setups = 3
	}
	obs, err := execute(spec, opts)
	if err != nil {
		return rec, err
	}
	from, to := obs.wStart, obs.wEnd
	if !opts.trace {
		from, to = measuredSpan(obs)
	}
	rec.Attempted, rec.Failed = countOps(windowOps(obs.ops, from, to))
	rec.Violations = obs.violations
	rec.Correct = len(obs.violations) == 0 && rec.Attempted > 0
	if !opts.trace {
		rec.Metrics = report(endToEnd, endToEndValues(obs))
		return rec, nil
	}
	runtime.GOMAXPROCS(procsFor(singleNodeSpec)) // the probes run at the same setting after every workload
	probes, err := runProbes(opts.dir, opts.seed)
	if err != nil {
		return rec, err
	}
	env.ProbeFsyncUs = probes["storage.probe_fsync_us"]
	lr := perLayerValues(obs, probes)
	rec.Metrics = report(perLayer, lr.values)
	if lr.timelines != nil {
		path := filepath.Join(opts.dir, "trace-"+spec.name+".json")
		if err := writeTrace(path, lr.traced, lr.timelines); err != nil {
			return rec, err
		}
	}
	budget := lr.budget
	fmt.Printf("# %s put budget: %d of %d puts joined (%d retried, %d disordered); stage means sum to %.1f us, traced mean %.1f us, unaccounted share of put time %.4f\n",
		spec.name, budget.Joined, budget.Total, budget.Retried, budget.Disordered, budget.JoinedMeanUs, budget.AllMeanUs, budget.Residual)
	return rec, nil
}

// printRecord prints every metric by name with its unit, then the JSON
// result line the driver reads.
func printRecord(rec record) {
	pass := "end-to-end (tracing off)"
	if rec.Trace == 1 {
		pass = "per-layer (traced pass + probes)"
	}
	fmt.Printf("# %s seed %d, %d s, %s: attempted %d, failed %d, correct %v\n",
		rec.Workload, rec.Seed, rec.Seconds, pass, rec.Attempted, rec.Failed, rec.Correct)
	for _, v := range rec.Violations {
		fmt.Printf("# VIOLATION %s\n", v)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("#   %-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(rec.result)
	if err != nil {
		fatal(err.Error())
	}
	fmt.Println(string(b))
}

// environment fills the env block (the fsync probe is added by the first
// traced run).
func environment(dir string) envBlock {
	env := envBlock{
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Commit:       "unknown",
		TickPeriodMs: float64(tickPeriod) / 1e6,
		DiskMinUs:    float64(diskFloorMin) / 1e3,
		DiskMeanUs:   float64(diskFloorMean) / 1e3,
		WALFS:        filesystemOf(dir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem the WALs are written to; fsync cost,
// and so every durable number, depends on it.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
