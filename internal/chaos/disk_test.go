package chaos

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCrashBeforeStable power-cycles a 3-node cluster with every disk frozen
// mid-write. With the real driver nothing those writes were backing had been
// released, so losing them loses no acked put: every oracle stays silent.
// The EarlyStable mutant — a disk that acks the write when it starts —
// must be caught: it acked and applied entries no disk held.
func TestCrashBeforeStable(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond}
	sched := CrashBeforeStableSchedule(opt)

	control, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("the real driver lost something across the power cycle:\n%s\n--- journal ---\n%s",
			strings.Join(control.Violations, "\n"), control.Journal)
	}
	if !strings.Contains(string(control.Journal), "in-flight write cut") {
		t.Fatalf("no write was in flight at the crash; the schedule lost its premise\n--- journal ---\n%s", control.Journal)
	}

	mutant := opt
	mutant.EarlyStable = true
	rep, err := RunSim(sched, mutant)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Fatalf("Stable was reported before the write landed and a power cycle lost the write, but no oracle noticed\n--- journal ---\n%s", rep.Journal)
	}
	t.Logf("caught: %s", rep.Violations[0])
	// The quorum-durable oracle reads the disks, not the cores, so it needs no
	// power cycle to see the lie: it fires while every node is still up.
	j := string(rep.Journal)
	caught, crash := strings.Index(j, "quorum-durable violation"), strings.Index(j, "crash (clean)")
	if caught < 0 || crash < 0 || caught > crash {
		t.Fatalf("the quorum-durable oracle did not fire before the power cycle (violations: %v)\n--- journal ---\n%s", rep.Violations, j)
	}
}

// TestApplyAheadOfDisk replays the crafted apply ⊆ committed plan: follower S3
// applies what S1+S2 made durable while its own disk is frozen, loses all of
// it to a power cycle, and restarts from its shorter WAL with a fresh state
// machine. Every oracle must stay silent in both arms — without compaction S3
// is handed the very same entries again; with it S3 also folds entries its WAL
// never held into a local image, and recovers from images throughout.
func TestApplyAheadOfDisk(t *testing.T) {
	down := regexp.MustCompile(`S3 down: applied through (\d+), disk through (\d+)`)
	commit := regexp.MustCompile(`S3 commit (\d+)\.\.(\d+)`)
	snap := regexp.MustCompile(`S3 snapshot@(\d+) \(disk through (\d+)\)`)
	atoi := func(s string) int {
		n, _ := strconv.Atoi(s) // only ever handed a \d+ capture
		return n
	}
	run := func(t *testing.T, threshold int) string {
		opt := Options{Duration: 2 * time.Second, SnapshotThreshold: threshold}
		rep, err := RunSim(ApplyAheadOfDiskSchedule(opt), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("violations:\n%s\n--- journal ---\n%s", strings.Join(rep.Violations, "\n"), rep.Journal)
		}
		return string(rep.Journal)
	}

	t.Run("the same entries again", func(t *testing.T) {
		j := run(t, -1)
		m := down.FindStringSubmatch(j)
		if m == nil {
			t.Fatalf("S3 never went down\n--- journal ---\n%s", j)
		}
		applied, disk := atoi(m[1]), atoi(m[2])
		if applied <= disk {
			t.Fatalf("S3 went down with applied %d, disk %d: it never applied ahead of its disk; the schedule lost its premise\n--- journal ---\n%s", applied, disk, j)
		}
		// After the restart the apply stream resumes at or below what the disk
		// kept and runs, gap-free, through what was applied before.
		after := j[strings.Index(j, "S3 restart"):]
		if k := strings.Index(after, "S3 crash"); k >= 0 {
			after = after[:k] // the second power cycle starts over
		}
		next := 0
		for _, c := range commit.FindAllStringSubmatch(after, -1) {
			from, to := atoi(c[1]), atoi(c[2])
			if next == 0 {
				if from > disk+1 {
					t.Fatalf("restarted S3 resumed applying at %d, above its disk (%d)+1\n--- journal ---\n%s", from, disk, j)
				}
			} else if from != next {
				t.Fatalf("restarted S3 applied %d after %d\n--- journal ---\n%s", from, next-1, j)
			}
			next = to + 1
		}
		if next <= applied {
			t.Fatalf("restarted S3 re-applied only through %d of the %d it had applied\n--- journal ---\n%s", next-1, applied, j)
		}
	})

	t.Run("an image over entries the WAL never held", func(t *testing.T) {
		j := run(t, 8)
		above := 0
		for _, m := range snap.FindAllStringSubmatch(j, -1) {
			if atoi(m[1]) > atoi(m[2]) {
				above++
			}
		}
		if above == 0 {
			t.Fatalf("S3 never compacted above its disk; the schedule lost its premise\n--- journal ---\n%s", j)
		}
		if m := down.FindStringSubmatch(j); m == nil || atoi(m[1]) <= atoi(m[2]) {
			t.Fatalf("S3 did not go down ahead of its disk (%v); the schedule lost its premise\n--- journal ---\n%s", m, j)
		}
		t.Logf("%d compactions above the disk", above)
	})
}

// TestTeethStalledLeaderDisk freezes the leader's disk under an untouched
// network. With the stalled-disk step-down (part of CheckQuorum) a healthy
// replica takes over and commits within the liveness bound; knocked out, the
// stalled leader heartbeats forever, the followers stay sticky, nothing
// commits, and the liveness oracle fires.
func TestTeethStalledLeaderDisk(t *testing.T) {
	opt := Options{Duration: 2 * time.Second}
	sched := StalledLeaderDiskSchedule(opt)

	control, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("violations with the step-down on:\n%s\n--- journal ---\n%s",
			strings.Join(control.Violations, "\n"), control.Journal)
	}
	if control.Stats.StepDowns == 0 {
		t.Fatalf("the stalled leader never stepped down; the schedule lost its premise\n--- journal ---\n%s", control.Journal)
	}

	broken := opt
	broken.DisableCheckQuorum = true
	rep, err := RunSim(sched, broken)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.HasPrefix(v, "liveness:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("step-down knocked out and the leader's disk frozen, but the liveness oracle stayed silent (violations: %v)\n--- journal ---\n%s",
			rep.Violations, rep.Journal)
	}
}

// TestSlowDiskSweepUsesTheDisk guards the sweeps' premise: generated
// schedules run with writes in flight across ticks and with disk stalls in
// the nemesis mix.
func TestSlowDiskSweepUsesTheDisk(t *testing.T) {
	stalls := 0
	for seed := int64(0); seed < 20; seed++ {
		for _, e := range Generate(seed, Options{}).Events {
			if e.Kind == EvStallDisk {
				stalls++
			}
		}
	}
	if stalls == 0 {
		t.Fatal("20 generated schedules contain no disk stall")
	}
	var opt Options
	opt.defaults()
	if opt.diskDelayTicks() == 0 {
		t.Fatal("simulated sweeps run with instantaneous disks by default")
	}
}
