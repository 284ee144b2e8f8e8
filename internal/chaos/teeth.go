package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file is the teeth table: the guards a run can knock out, and every
// crafted schedule with its options, its knock-out and its verdict.

// knockOuts are the guards a run can remove and the mutants it can swap in,
// by the name raft-chaos -off takes. Each sets one Options field.
var knockOuts = map[string]func(*Options){
	"r2":           func(o *Options) { o.DisableR2 = true },
	"r3":           func(o *Options) { o.DisableR3 = true },
	"prevote":      func(o *Options) { o.DisablePreVote = true },
	"checkquorum":  func(o *Options) { o.DisableCheckQuorum = true },
	"lease-guard":  func(o *Options) { o.DisableLeaseGuard = true },
	"pipeline":     func(o *Options) { o.DisablePipelineGuard = true },
	"early-stable": func(o *Options) { o.EarlyStable = true },
	"fresh-seq":    func(o *Options) { o.FreshSeqRetry = true },
}

// KnockOut returns the knock-out called name.
func KnockOut(name string) (func(*Options), error) {
	if k, ok := knockOuts[name]; ok {
		return k, nil
	}
	var names []string
	for n := range knockOuts {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("chaos: no knock-out %q (one of %s)", name, strings.Join(names, ", "))
}

// A tooth is one crafted schedule and its verdict. With a knock-out, the
// schedule run at opt is clean and the knocked-out run shows a violation
// matching want. Without one, want empty marks a regression that must stay
// clean, and want set marks a schedule that breaks the cluster by itself:
// its one run must show a violation matching want.
type tooth struct {
	name  string
	sched func(Options) *Schedule
	opt   Options
	off   string // a knock-out's name; "" = none
	want  string // a regexp over violations
}

// knockedOut returns the row's options with its knock-out applied.
func (r tooth) knockedOut() Options {
	o := r.opt
	knockOuts[r.off](&o)
	return o
}

const ms = time.Millisecond

// teeth lists the crafted schedules. New rows go at the end: the journal
// fingerprints hash the rows in order.
var teeth = []tooth{
	{"r2", r2ViolationSchedule, Options{Duration: 1200 * ms}, "r2", "diverge|re-applied"},
	{"disruption", disruptionSchedule, Options{Duration: 1500 * ms}, "prevote", "disruption"},
	{"stale-leader", staleLeaderSchedule, Options{Duration: 1500 * ms}, "checkquorum", "stale leader"},
	{"cross-group-wipe", crossGroupWipeSchedule, Options{Duration: 1500 * ms, Groups: 2}, "", "^g1: "},
	// The stale-lease window is what is left of one election interval after
	// the successor's vote round and first commit round, each of which
	// crosses a slow disk twice: give it room.
	{"lease-slow-disk", leaseViolationSchedule, Options{Duration: 1500 * ms, ElectionTimeoutMin: 40 * ms}, "lease-guard", "stale lease"},
	{"lease-instant-disk", leaseViolationSchedule, Options{Duration: 1500 * ms, DiskDelay: -1}, "lease-guard", "stale lease"},
	{"transfer-during-reconfig", transferDuringReconfigSchedule, Options{Duration: 2000 * ms}, "", ""},
	{"stalled-leader-disk", stalledLeaderDiskSchedule, Options{Duration: 2000 * ms}, "checkquorum", "^liveness:"},
	{"crash-before-stable", crashBeforeStableSchedule, Options{Duration: 1500 * ms}, "early-stable", "quorum-durable"},
	{"apply-ahead-of-disk", applyAheadOfDiskSchedule, Options{Duration: 2000 * ms}, "", ""},
	{"stale-suffix-read", staleSuffixReadSchedule, Options{Duration: 2000 * ms}, "", ""},
	// A generated seed: the client mutant re-proposes an Append under a fresh
	// sequence number once an attempt slice runs out, and seed 104 applies one
	// twice.
	{"fresh-seq", func(opt Options) *Schedule { return Generate(104, opt) }, Options{}, "fresh-seq", "not linearizable"},
	{"r3", r3ViolationSchedule, Options{Duration: 1500 * ms}, "r3", "divergence"},
	// The same power cycle, judged at the restarts: the replayed WALs lack
	// the acked writes the crash dropped.
	{"crash-before-stable-replay", crashBeforeStableSchedule, Options{Duration: 1500 * ms}, "early-stable", "^replay: "},
	// A write handed out beside a hung one after the log was cut under it:
	// the hung write lands last and restores the cut entry, and S1's replay
	// lacks the entry it acked.
	{"pipeline-cut", pipelineCutSchedule, Options{Duration: 1500 * ms}, "pipeline", "^replay: S1 "},
}
