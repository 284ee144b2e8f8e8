package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestCrashBeforeStable power-cycles a 3-node cluster with every disk frozen
// mid-write. With the real driver nothing those writes were backing had been
// released, so losing them loses no acked put: every oracle stays silent.
// The EarlyStable driver mutant — Stable reported when the write starts —
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
