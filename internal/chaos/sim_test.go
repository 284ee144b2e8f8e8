package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunSimSmoke replays a handful of generated schedules in the
// deterministic simulator and expects clean reports with real work done.
func TestRunSimSmoke(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rep, err := RunSimSeed(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: violations on a healthy model:\n%s\n--- journal ---\n%s",
				seed, strings.Join(rep.Violations, "\n"), rep.Journal)
		}
		if rep.Ops == 0 {
			t.Fatalf("seed %d: no client operations ran", seed)
		}
		if len(rep.Journal) == 0 {
			t.Fatalf("seed %d: empty journal", seed)
		}
	}
}

// TestRunSimDeterministic is the tentpole's reproducibility contract: the
// same seed replayed twice produces byte-identical journals — not just the
// same fault plan, the same execution.
func TestRunSimDeterministic(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond}
	a, err := RunSimSeed(11, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimSeed(11, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Journal, b.Journal) {
		t.Fatalf("same seed produced different executions:\n--- run A ---\n%s\n--- run B ---\n%s", a.Journal, b.Journal)
	}
	if a.Ops != b.Ops || a.Timeouts != b.Timeouts || a.Faults != b.Faults {
		t.Fatalf("same seed produced different counters: %s vs %s", a, b)
	}
}

// TestStaleSuffixRead: a deposed leader holding an uncommitted suffix serves
// forwarded reads before its log is repaired, and every oracle stays silent
// — the commit index on the read replies is not believed over entries the
// replica never matched against the new leader. (A learnCommit that clamps
// to lastIndex instead of leaderMatch commits the stale suffix here:
// committed-prefix divergence at two indexes plus a refinement fork,
// EXPERIMENTS.md E15 and E28.)
func TestStaleSuffixRead(t *testing.T) {
	r := row(t, "stale-suffix-read")
	rep, err := RunSim(r.sched(r.opt), r.opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations:\n%s\n--- journal ---\n%s", strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	// The premise: a read was parked on the ex-leader while its log was
	// unrepaired, so it returns in the tick that replica first applies again
	// after the heal.
	var ex, tick string
	healed, parked := false, false
	for _, line := range strings.Split(string(rep.Journal), "\n") {
		f := strings.Fields(line) // t=000503 S3 disk stalled ... | t=000728 S3 commit 34..42 | t=000728 client 1 op 13 get("k3") ok
		switch {
		case len(f) >= 4 && f[2] == "disk" && f[3] == "stalled":
			ex = f[1]
		case len(f) == 2 && f[1] == "heal":
			healed = true
		case healed && tick == "" && len(f) >= 3 && f[1] == ex && f[2] == "commit":
			tick = f[0]
		case tick != "" && len(f) >= 6 && f[0] == tick && f[1] == "client" && strings.HasPrefix(f[5], "get("):
			parked = true
		}
	}
	if !parked {
		t.Fatalf("no read waited on the ex-leader's unrepaired log; the schedule lost its premise\n--- journal ---\n%s", rep.Journal)
	}
}
