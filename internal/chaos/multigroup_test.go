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

// TestRunRejectsMultiGroup: the live runner drives one raft group; handed a
// multi-group schedule it must say so and name RunSim, not quietly run a
// single-group cluster under it.
func TestRunRejectsMultiGroup(t *testing.T) {
	r := row(t, "cross-group-wipe")
	opt := r.opt
	opt.MemWAL = true
	rep, err := Run(r.sched(opt), opt)
	if err == nil || !strings.Contains(err.Error(), "RunSim") {
		t.Fatalf("Run with Groups=2: report %v, error %v; want an error naming RunSim", rep, err)
	}
}
