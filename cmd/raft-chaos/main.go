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
//	raft-chaos -seeds 50 -disable-r2        # teeth check: must find violations
//	raft-chaos -sim -seeds 500              # deterministic simulation sweep
//	raft-chaos -sim -teeth                  # sim teeth: must exit non-zero
//	raft-chaos -teeth -disable-prevote      # election teeth: the rejoin-disruption schedule must be caught
//	raft-chaos -teeth -disable-checkquorum  # election teeth: the immortal stale leader must be caught
//	raft-chaos -sim -groups 3 -seeds 500    # multi-group sweep: per-group oracles over a sharded keyspace
//	raft-chaos -teeth -groups 2             # cross-group wipe teeth: group 1's corruption caught, group 0 clean
//	raft-chaos -teeth -disable-lease-guard  # lease teeth: the stale-lease oracle must fire (exit 1)
//	raft-chaos -teeth -early-stable         # driver-mutant teeth: Stable before the write lands must be caught
//	raft-chaos -fresh-seq-retry -seed 9     # client-mutant teeth: a retry under a fresh seq must be caught
//
// With -sim each seed runs in the deterministic simulator instead of a live
// cluster: single-threaded on a logical clock, the entire execution (not
// just the fault plan) a pure function of the seed, with the executable
// refinement checker (replica logs vs the Adore cache tree) added to the
// oracle set. A bare -teeth implies -disable-r2 but keeps violations as the
// failing exit status, so `raft-chaos [-sim] -teeth` exits 1 exactly when
// the harness still has teeth.
//
// Exit status is non-zero if any seed produced a safety violation (or, with
// -disable-r2/-disable-r3, if none did: a harness that cannot catch a
// reintroduced bug is broken).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/chaos"
	"adore/internal/raft"
)

func main() {
	var (
		seeds     = flag.Int("seeds", 20, "number of seeds to sweep (0..n-1), ignored when -seed is set")
		seed      = flag.Int64("seed", -1, "run exactly this seed (replay mode)")
		duration  = flag.Duration("duration", 2*time.Second, "nemesis horizon per run")
		nodes     = flag.Int("nodes", 5, "cluster size")
		clients   = flag.Int("clients", 4, "concurrent workload clients")
		ops       = flag.Int("ops", 32, "operations per client")
		keys      = flag.Int("keys", 8, "distinct keys (bounds per-key history size)")
		mem       = flag.Bool("mem", false, "in-memory WALs instead of file-backed")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel seed runners")
		disableR2 = flag.Bool("disable-r2", false, "reintroduce the R2 bug (expect violations)")
		disableR3 = flag.Bool("disable-r3", false, "reintroduce the R3 bug (expect violations)")
		disPV     = flag.Bool("disable-prevote", false, "turn off Pre-Vote (with -teeth: run the rejoin-disruption schedule)")
		disCQ     = flag.Bool("disable-checkquorum", false, "turn off CheckQuorum step-down (with -teeth: run the stale-leader schedule)")
		disLG     = flag.Bool("disable-lease-guard", false, "turn off the transfer/reconfig lease invalidation (with -teeth: run the lease-violation schedule; the stale-lease oracle must fire)")
		earlySt   = flag.Bool("early-stable", false, "swap in the simulator's driver mutant that reports Stable before the write lands (with -teeth: run the crash-before-stable schedule; expect violations)")
		freshSeq  = flag.Bool("fresh-seq-retry", false, "swap in the client mutant that re-proposes an Append or CAS under a fresh sequence number once an attempt slice runs out (simulator; expect violations)")
		teeth     = flag.Bool("teeth", false, "run the crafted violation schedule for the disabled guard instead of generated ones")
		sim       = flag.Bool("sim", false, "deterministic simulation instead of a live cluster (adds the refinement oracle)")
		groups    = flag.Int("groups", 1, "raft groups sharing the keyspace (>1 implies -sim; every oracle runs per group)")
		snapThr   = flag.Int("snapshot-threshold", 0, "applied entries between state-machine snapshots (0 = default 64, negative = no compaction)")
		verbose   = flag.Bool("v", false, "print each run's plan and report")
	)
	flag.Parse()

	// Multi-group runs and the disk and client mutants exist only in the
	// deterministic simulator (groups share nothing there, so per-group
	// oracle attribution is exact).
	if *groups > 1 || *earlySt || *freshSeq {
		*sim = true
	}

	// One row per guard a flag can knock out: the crafted schedule that
	// exploits the hole (-teeth runs the first knocked-out row's), whether the
	// oracle that catches it lives in the simulator, which sees link state,
	// and whether knocking the guard out makes violations the EXPECTED outcome
	// — exit 0 on a catch, exit 1 if no seed caught anything (a harness with
	// no teeth). The lease row keeps a catch as the FAILING status: `-teeth
	// -disable-lease-guard` exits 1 exactly when the stale-lease oracle still
	// bites, and the Makefile target negates it.
	guards := []struct {
		off      bool
		schedule func(chaos.Options) *chaos.Schedule
		needsSim bool
		expected bool
	}{
		{*disLG, chaos.LeaseViolationSchedule, true, false},
		{*earlySt, chaos.CrashBeforeStableSchedule, true, true},
		{*freshSeq, nil, true, true}, // generated schedules: no crafted one needed
		{*disPV, chaos.DisruptionSchedule, true, true},
		{*disCQ, chaos.StaleLeaderSchedule, true, true},
		{*disableR2, chaos.R2ViolationSchedule, false, true},
		{*disableR3, chaos.R2ViolationSchedule, false, true},
	}
	var crafted func(chaos.Options) *chaos.Schedule // nil without -teeth: generated schedules
	expectViolations, anyOff := false, false
	for _, g := range guards {
		if !g.off {
			continue
		}
		anyOff = true
		expectViolations = expectViolations || g.expected
		if *teeth {
			if crafted == nil {
				crafted = g.schedule
			}
			*sim = *sim || g.needsSim
		}
	}
	// -teeth with every guard on. Across groups it runs the cross-group
	// storage-wipe schedule: group 1 loses its WAL while group 0's survives
	// (the flat-storage-layout bug the per-group subdirectories prevent);
	// violations are expected, and every one must be attributed to the wiped
	// group — a control-group catch fails the run. Otherwise a bare -teeth
	// implies -disable-r2 but keeps violations as the failing exit status, so
	// it exits non-zero exactly when the oracles still bite.
	wipeTeeth := *teeth && !anyOff && *groups > 1
	switch {
	case wipeTeeth:
		crafted, expectViolations = chaos.CrossGroupWipeSchedule, true
	case *teeth && !anyOff:
		crafted, *disableR2 = chaos.R2ViolationSchedule, true
	}

	opt := chaos.Options{
		Nodes:        *nodes,
		Clients:      *clients,
		OpsPerClient: *ops,
		Keys:         *keys,
		Duration:     *duration,
		MemWAL:       *mem,
		Ablation: raft.Ablation{
			DisableR2:          *disableR2,
			DisableR3:          *disableR3,
			DisablePreVote:     *disPV,
			DisableCheckQuorum: *disCQ,
			DisableLeaseGuard:  *disLG,
		},
		SnapshotThreshold: *snapThr,
		Groups:            *groups,
		EarlyStable:       *earlySt,
		FreshSeqRetry:     *freshSeq,
	}

	if *teeth && *disLG {
		// The stale-lease window is what is left of one election interval
		// after the successor's vote round and first commit round, each of
		// which now crosses a slow disk twice: give it room.
		opt.ElectionTimeoutMin = 40 * time.Millisecond
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
				if crafted != nil {
					sched = crafted(opt)
					sched.Seed = s
				}
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
					mu.Unlock()
				}
				if !rep.Ok() {
					caught.Add(1)
					if expectViolations {
						if wipeTeeth {
							misattributed := false
							for _, v := range rep.Violations {
								if !strings.HasPrefix(v, "g1: ") {
									misattributed = true
									fmt.Fprintf(os.Stderr, "seed %d: violation outside the wiped group: %s\n", s, v)
								}
							}
							if misattributed {
								mu.Lock()
								failing = append(failing, s)
								mu.Unlock()
								continue
							}
						}
						fmt.Printf("seed %d: caught (as expected with guards off): %s\n", s, rep.Violations[0])
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

	if expectViolations {
		fmt.Printf("%d/%d seeds caught the reintroduced bug in %s\n", caught.Load(), ran.Load(), time.Since(start).Round(time.Millisecond))
		if caught.Load() == 0 {
			fmt.Fprintln(os.Stderr, "guards disabled but no seed found a violation: the harness has no teeth")
			os.Exit(1)
		}
		return
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "%d/%d seeds failed: %v\n", len(failing), len(list), failing)
		os.Exit(1)
	}
	fmt.Printf("%d seeds clean in %s\n", len(list), time.Since(start).Round(time.Millisecond))
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
