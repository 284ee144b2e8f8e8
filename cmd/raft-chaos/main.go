// Command raft-chaos runs seeded chaos schedules against live clusters and
// checks the paper's safety oracles on every run: linearizability of the
// concurrent client history, committed-prefix agreement across replicas,
// at most one leader per term, and monotone terms.
//
// Every run's fault plan is a pure function of its seed, so a failing seed
// replays the identical nemesis timeline and workload:
//
//	raft-chaos -seeds 200 -duration 2s      # sweep seeds 0..199
//	raft-chaos -seed 1337 -v                # replay one seed, print its plan
//	raft-chaos -sim -seeds 500              # deterministic simulation sweep
//	raft-chaos -sim -groups 3 -seeds 500    # multi-group sweep: per-group oracles over a sharded keyspace
//	raft-chaos -sim -seeds 200 -off prevote # catch rate of a knock-out over generated seeds
//
// With -sim each seed runs in the deterministic simulator instead of a live
// cluster: single-threaded on a logical clock, the entire execution (not
// just the fault plan) a pure function of the seed, with the executable
// refinement checker (replica logs vs the Adore cache tree) added to the
// oracle set.
//
// -off NAME removes one guard (r2, r3, prevote, checkquorum, lease-guard) or
// swaps in one mutant (early-stable, fresh-seq; both simulator only) on
// generated seeds. The crafted schedule each knock-out must be caught on is a
// row of the teeth table (internal/chaos/teeth.go, make teeth). With -v each
// run also prints its premise lines, if its events wait for any: when each
// began to wait, and the tick its premise was reached.
//
// Exit status: without -off, non-zero if any seed produced a safety
// violation; with -off, non-zero if no seed did. A harness error fails
// either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/chaos"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 20, "number of seeds to sweep (0..n-1), ignored when -seed is set")
		seed     = flag.Int64("seed", -1, "run exactly this seed (replay mode)")
		duration = flag.Duration("duration", 2*time.Second, "nemesis horizon per run")
		nodes    = flag.Int("nodes", 5, "cluster size")
		clients  = flag.Int("clients", 4, "concurrent workload clients")
		ops      = flag.Int("ops", 32, "operations per client")
		keys     = flag.Int("keys", 8, "distinct keys (bounds per-key history size)")
		mem      = flag.Bool("mem", false, "in-memory WALs instead of file-backed")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel seed runners")
		off      = flag.String("off", "", "knock out the named guard or swap in the named mutant on every seed (an unknown name lists them); violations are then expected")
		sim      = flag.Bool("sim", false, "deterministic simulation instead of a live cluster (adds the refinement oracle)")
		groups   = flag.Int("groups", 1, "raft groups sharing the keyspace (>1 implies -sim; every oracle runs per group)")
		snapThr  = flag.Int("snapshot-threshold", 0, "applied entries between state-machine snapshots (0 = default 64, negative = no compaction)")
		verbose  = flag.Bool("v", false, "print each run's plan, report and premise lines")
	)
	flag.Parse()

	opt := chaos.Options{
		Nodes:             *nodes,
		Clients:           *clients,
		OpsPerClient:      *ops,
		Keys:              *keys,
		Duration:          *duration,
		MemWAL:            *mem,
		SnapshotThreshold: *snapThr,
		Groups:            *groups,
	}
	if *off != "" {
		knockOut, err := chaos.KnockOut(*off)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		knockOut(&opt)
	}
	// Multi-group runs and the disk and client mutants exist only in the
	// deterministic simulator (groups share nothing there, so per-group
	// oracle attribution is exact).
	if *groups > 1 || opt.EarlyStable || opt.FreshSeqRetry {
		*sim = true
	}

	var list []int64
	if *seed >= 0 {
		list = []int64{*seed}
	} else {
		for s := int64(0); s < int64(*seeds); s++ {
			list = append(list, s)
		}
	}

	var (
		mu      sync.Mutex
		failing []int64
		caught  atomic.Int64
		ran     atomic.Int64
	)
	jobs := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < max(1, *workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				sched := chaos.Generate(s, opt)
				run := chaos.Run
				if *sim {
					run = chaos.RunSim
				}
				rep, err := run(sched, opt)
				if err != nil {
					fmt.Fprintf(os.Stderr, "seed %d: harness error: %v\n", s, err)
					mu.Lock()
					failing = append(failing, s)
					mu.Unlock()
					continue
				}
				ran.Add(1)
				if *verbose {
					mu.Lock()
					fmt.Printf("--- seed %d plan ---\n%s%s\n", s, sched, rep)
					for _, p := range rep.Premises {
						fmt.Printf("  premise %s\n", p)
					}
					mu.Unlock()
				}
				if !rep.Ok() {
					caught.Add(1)
					if *off != "" {
						fmt.Printf("seed %d: caught (as expected with -off %s): %s\n", s, *off, rep.Violations[0])
						continue
					}
					mu.Lock()
					failing = append(failing, s)
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "seed %d: SAFETY VIOLATION (replay: raft-chaos%s -seed %d -duration %s%s)\n",
						s, simFlag(*sim), s, *duration, memFlag(*mem))
					for _, v := range rep.Violations {
						fmt.Fprintf(os.Stderr, "  %s\n", v)
					}
				}
			}
		}()
	}
	start := time.Now()
	for _, s := range list {
		jobs <- s
	}
	close(jobs)
	wg.Wait()

	if *off != "" {
		fmt.Printf("%d/%d seeds caught -off %s in %s\n", caught.Load(), ran.Load(), *off, time.Since(start).Round(time.Millisecond))
		if caught.Load() == 0 {
			fmt.Fprintf(os.Stderr, "-off %s but no seed found a violation\n", *off)
			os.Exit(1)
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d seeds failed: %v\n", len(failing), len(list), failing)
		os.Exit(1)
	}
	if *off == "" {
		fmt.Printf("%d seeds clean in %s\n", len(list), time.Since(start).Round(time.Millisecond))
	}
}

func memFlag(mem bool) string {
	if mem {
		return " -mem"
	}
	return ""
}

func simFlag(sim bool) string {
	if sim {
		return " -sim"
	}
	return ""
}
