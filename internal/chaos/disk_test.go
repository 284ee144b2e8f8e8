package chaos

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

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
		r := row(t, "apply-ahead-of-disk")
		opt := r.opt
		opt.SnapshotThreshold = threshold
		rep, err := RunSim(r.sched(opt), opt)
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
