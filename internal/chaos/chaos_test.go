package chaos

import (
	"strings"
	"testing"
	"time"

	"adore/internal/types"
)

// TestScheduleDeterminism is the reproducibility contract: the entire
// injected fault plan is a pure function of (seed, options), so two
// generations hash identically and a failing seed printed by CI replays
// the same plan locally.
func TestScheduleDeterminism(t *testing.T) {
	opt := Options{}
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed, opt), Generate(seed, opt)
		if a.Hash() != b.Hash() {
			t.Fatalf("seed %d: two generations differ:\n%s\n--- vs ---\n%s", seed, a, b)
		}
	}
	if Generate(1, opt).Hash() == Generate(2, opt).Hash() {
		t.Fatal("distinct seeds produced identical schedules")
	}
}

// TestScheduleEventsAreExecutable validates the generator's bookkeeping
// over many seeds: every event must be executable when its turn comes —
// restarts target crashed nodes, at most a minority is ever down, partition
// sides are disjoint, heal only fires while partitioned.
func TestScheduleEventsAreExecutable(t *testing.T) {
	opt := Options{Duration: 10 * time.Second} // long horizon = many events
	for seed := int64(0); seed < 200; seed++ {
		s := Generate(seed, opt)
		crashed := map[types.NodeID]bool{}
		partitioned := false
		last := time.Duration(-1)
		for _, e := range s.Events {
			if e.At < last {
				t.Fatalf("seed %d: events out of order at %s", seed, e)
			}
			last = e.At
			switch e.Kind {
			case EvPartition:
				if partitioned {
					t.Fatalf("seed %d: stacked partition: %s", seed, e)
				}
				seen := map[types.NodeID]bool{}
				for _, id := range append(append([]types.NodeID{}, e.A...), e.B...) {
					if seen[id] {
						t.Fatalf("seed %d: node S%d on both sides: %s", seed, id, e)
					}
					seen[id] = true
				}
				partitioned = true
			case EvPartitionLeader, EvIsolate, EvIsolateLeader, EvIsolateFollower:
				if partitioned {
					t.Fatalf("seed %d: stacked partition: %s", seed, e)
				}
				partitioned = true
			case EvPartialPartition:
				if partitioned {
					t.Fatalf("seed %d: stacked partition: %s", seed, e)
				}
				if len(e.A) != 1 || len(e.B) != 1 || e.A[0] == e.B[0] {
					t.Fatalf("seed %d: malformed partial partition: %s", seed, e)
				}
				partitioned = true
			case EvHeal:
				if !partitioned {
					t.Fatalf("seed %d: heal without a partition", seed)
				}
				partitioned = false
			case EvCrash:
				if crashed[e.Node] {
					t.Fatalf("seed %d: double crash of S%d", seed, e.Node)
				}
				crashed[e.Node] = true
				if len(crashed) > maxCrashed(s.Nodes) {
					t.Fatalf("seed %d: %d nodes down at once", seed, len(crashed))
				}
			case EvRestart:
				if !crashed[e.Node] {
					t.Fatalf("seed %d: restart of running S%d", seed, e.Node)
				}
				delete(crashed, e.Node)
			case EvStallDisk:
				if e.For <= 0 || crashed[e.Node] {
					t.Fatalf("seed %d: malformed disk stall: %s", seed, e)
				}
			case EvDropRate, EvReconfigRemove, EvReconfigAdd, EvReconfigShed,
				EvTransferLeader, EvReconfigDropLeader:
				// Always executable.
			default:
				t.Fatalf("seed %d: unknown event kind %v", seed, e.Kind)
			}
		}
	}
}

// TestRunSmoke executes one short seed end to end over in-memory WALs and
// expects a clean report with real work done.
func TestRunSmoke(t *testing.T) {
	rep, err := RunSeed(7, Options{Duration: 700 * time.Millisecond, MemWAL: true, SettleTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a healthy model:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Ops == 0 {
		t.Fatal("no client operations ran")
	}
	t.Log(rep)
}

// TestRunFileWAL is the honest-durability smoke: file-backed WALs with
// torn-write and write-error crash modes in the mix (seed 38's plan
// contains both, plus restarts).
func TestRunFileWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("file-backed chaos run in -short mode")
	}
	rep, err := RunSeed(38, Options{Duration: 1200 * time.Millisecond, SettleTimeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a healthy model:\n%s", strings.Join(rep.Violations, "\n"))
	}
	t.Log(rep)
}

// TestRunReplaysIdenticalPlan runs the same seed twice and compares the
// schedule fingerprints embedded in the reports: the fault plan a seed
// injects is identical run over run (the cluster's internal interleavings
// are not, which is exactly the point — one plan, many schedules, same
// oracles).
func TestRunReplaysIdenticalPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("double chaos run in -short mode")
	}
	opt := Options{Duration: 500 * time.Millisecond, MemWAL: true, SettleTimeout: 15 * time.Second}
	a, err := RunSeed(23, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(23, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("same seed produced different plans: %s vs %s", a.Hash, b.Hash)
	}
	if a.Events != b.Events {
		t.Fatalf("same seed executed different event counts: %d vs %d", a.Events, b.Events)
	}
}

// TestTeethR2 reintroduces the R2 bug (accepting a reconfiguration while an
// earlier one is uncommitted) and checks the harness catches it: a stale
// minority leader asked to shrink the cluster twice ends up with a config
// whose quorum fits inside its partition, commits on a branch the majority
// never saw, and the committed-prefix oracle flags the divergence. The
// control run — same schedule, guards on — must stay clean.
func TestTeethR2(t *testing.T) {
	if testing.Short() {
		t.Skip("teeth run in -short mode")
	}
	opt := Options{Duration: 1200 * time.Millisecond, MemWAL: true, SettleTimeout: 15 * time.Second}
	sched := R2ViolationSchedule(opt)

	broken := opt
	broken.DisableR2 = true
	rep, err := Run(sched, broken)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatal("R2 disabled and the double-shed schedule executed, but no violation was detected — the harness has no teeth")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "divergence") || strings.Contains(v, "re-applied") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a committed-prefix violation, got:\n%s", strings.Join(rep.Violations, "\n"))
	}
	t.Logf("caught: %s", rep.Violations[0])

	control, err := Run(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("guards on, same schedule: unexpected violations:\n%s", strings.Join(control.Violations, "\n"))
	}
}
