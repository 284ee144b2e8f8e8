package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestRunSimMultiGroupSmoke replays generated schedules with the keyspace
// split across several raft groups. Every per-group oracle set must stay
// clean, every group must do real work (the workload generator's keys hash
// onto all shards), and the merged report must account for each group's
// operations.
func TestRunSimMultiGroupSmoke(t *testing.T) {
	for _, groups := range []int{2, 3} {
		for seed := int64(0); seed < 3; seed++ {
			rep, err := RunSimSeed(seed, Options{Groups: groups})
			if err != nil {
				t.Fatalf("groups=%d seed %d: %v", groups, seed, err)
			}
			if !rep.Ok() {
				t.Fatalf("groups=%d seed %d: violations on a healthy model:\n%s\n--- journal ---\n%s",
					groups, seed, strings.Join(rep.Violations, "\n"), rep.Journal)
			}
			if rep.Ops == 0 {
				t.Fatalf("groups=%d seed %d: no client operations ran", groups, seed)
			}
			for g := 0; g < groups; g++ {
				header := []byte("=== group ")
				if !strings.Contains(string(rep.Journal), string(header)) {
					t.Fatalf("groups=%d seed %d: journal has no per-group sections", groups, seed)
				}
			}
		}
	}
}

// TestRunSimMultiGroupDeterministic: the multi-group replay is as
// reproducible as the single-group one — same seed, same group count,
// byte-identical merged journal.
func TestRunSimMultiGroupDeterministic(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond, Groups: 2}
	a, err := RunSimSeed(11, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimSeed(11, opt)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Journal) != string(b.Journal) {
		t.Fatalf("same seed produced different multi-group executions")
	}
	if a.Ops != b.Ops || a.Timeouts != b.Timeouts || a.Faults != b.Faults {
		t.Fatalf("same seed produced different counters: %s vs %s", a, b)
	}
}

// TestSimTeethCrossGroupWipe is the crafted cross-group storage-corruption
// schedule: node S3 crashes and — modeling the flat-storage-layout bug where
// one group's compaction unlinks another group's WAL segments — loses group
// 1's durable state while group 0's survives. S3 restarts blank in group 1,
// votes for a stale-log candidate behind a flipped partition, and the
// committed prefix is overwritten. The per-group oracles must catch the
// divergence in group 1 and ONLY group 1: group 0, whose storage was intact,
// is the control arm and must stay clean. A harness that ran its oracles
// globally instead of per group could not make this distinction.
func TestSimTeethCrossGroupWipe(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond, Groups: 2}
	sched := CrossGroupWipeSchedule(opt)
	rep, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatalf("group 1's WAL was wiped under a flipped partition, but no violation was detected — the per-group oracles have no teeth\n--- journal ---\n%s", rep.Journal)
	}
	var g1 int
	for _, v := range rep.Violations {
		switch {
		case strings.HasPrefix(v, "g1: "):
			g1++
		case strings.HasPrefix(v, "g0: "):
			t.Errorf("control group 0 (storage intact) flagged: %s", v)
		default:
			t.Errorf("violation not attributed to a group: %s", v)
		}
	}
	if g1 == 0 {
		t.Fatalf("violations found but none attributed to the wiped group:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if t.Failed() {
		t.Fatalf("all violations:\n%s\n--- journal ---\n%s", strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	t.Logf("caught %d group-1 violations; first: %s", g1, rep.Violations[0])
}

// TestRunRejectsMultiGroup: the live runner drives one raft group; handed a
// multi-group schedule it must say so and name RunSim, not quietly run a
// single-group cluster under it.
func TestRunRejectsMultiGroup(t *testing.T) {
	opt := Options{Duration: 200 * time.Millisecond, MemWAL: true, Groups: 2}
	rep, err := Run(CrossGroupWipeSchedule(opt), opt)
	if err == nil || !strings.Contains(err.Error(), "RunSim") {
		t.Fatalf("Run with Groups=2: report %v, error %v; want an error naming RunSim", rep, err)
	}
}
