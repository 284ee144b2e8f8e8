package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adore/internal/types"
)

// TestTeethPreVote reintroduces election disruption (Pre-Vote disabled) and
// checks the harness catches it: a follower isolated for ten election
// intervals inflates its term with futile campaigns, rejoins, and deposes a
// perfectly healthy leader — the disruption oracle must flag it. The
// control run — same schedule, Pre-Vote on — must stay clean: the isolated
// node's rounds are term-neutral and the heal is a non-event.
func TestTeethPreVote(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond}
	sched := DisruptionSchedule(opt)

	broken := opt
	broken.DisablePreVote = true
	rep, err := RunSim(sched, broken)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "disruption") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Pre-Vote disabled and the rejoin schedule executed, but the disruption oracle stayed silent; violations:\n%s\n--- journal ---\n%s",
			strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	t.Logf("caught: %s", rep.Violations[0])

	control, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("guards on, same schedule: unexpected violations:\n%s\n--- journal ---\n%s",
			strings.Join(control.Violations, "\n"), control.Journal)
	}
	if control.Stats.TermBumps >= rep.Stats.TermBumps {
		t.Fatalf("Pre-Vote on should bump terms less than off: %d (on) vs %d (off)",
			control.Stats.TermBumps, rep.Stats.TermBumps)
	}
}

// TestTeethCheckQuorum reintroduces the immortal minority leader
// (CheckQuorum disabled) and checks the stale-leader oracle catches it: a
// leader cut into a minority keeps claiming leadership long after losing
// quorum contact. The control run steps down within an election interval
// and stays clean.
func TestTeethCheckQuorum(t *testing.T) {
	opt := Options{Duration: 1500 * time.Millisecond}
	sched := StaleLeaderSchedule(opt)

	broken := opt
	broken.DisableCheckQuorum = true
	rep, err := RunSim(sched, broken)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "stale leader") {
			found = true
		}
	}
	if !found {
		t.Fatalf("CheckQuorum disabled and the stale-leader schedule executed, but the oracle stayed silent; violations:\n%s\n--- journal ---\n%s",
			strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	t.Logf("caught: %s", rep.Violations[0])

	control, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !control.Ok() {
		t.Fatalf("guards on, same schedule: unexpected violations:\n%s\n--- journal ---\n%s",
			strings.Join(control.Violations, "\n"), control.Journal)
	}
	if control.Stats.StepDowns == 0 {
		t.Fatal("guards on: the partitioned leader never recorded a CheckQuorum step-down")
	}
}

// TestReconfigShedViaTransfer replays the transfer-under-churn schedule —
// two membership changes that each shed the sitting leader, plus an
// explicit handoff — and requires every leadership change to be a graceful
// transfer: the journal must show transfer campaigns and zero
// timeout-triggered campaigns.
func TestReconfigShedViaTransfer(t *testing.T) {
	opt := Options{Duration: 2 * time.Second}
	sched := TransferDuringReconfigSchedule(opt)
	rep, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a healthy model:\n%s\n--- journal ---\n%s",
			strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	if !bytes.Contains(rep.Journal, []byte("campaign (transfer)")) {
		t.Fatalf("no transfer campaign in the journal — the drop-leader reconfigs did not hand off\n--- journal ---\n%s", rep.Journal)
	}
	if bytes.Contains(rep.Journal, []byte("campaign (timeout)")) {
		t.Fatalf("timeout-triggered campaign during graceful handoffs\n--- journal ---\n%s", rep.Journal)
	}
	if rep.Stats.TransfersStarted < 2 {
		t.Fatalf("expected at least 2 transfers (two drop-leader reconfigs), got %d", rep.Stats.TransfersStarted)
	}
	if rep.Ops == 0 {
		t.Fatal("no client operations ran")
	}
}

// TestPartialPartitionStability runs a live cluster through an asymmetric
// link fault — one node can hear the cluster but not be heard — and
// expects a clean report: Pre-Vote and CheckQuorum turn the historical
// disruption scenario into a non-event.
func TestPartialPartitionStability(t *testing.T) {
	if testing.Short() {
		t.Skip("live chaos run in -short mode")
	}
	opt := Options{
		Duration:      1200 * time.Millisecond,
		MemWAL:        true,
		OpTimeout:     800 * time.Millisecond, // generous: ops span the fault window
		SettleTimeout: 15 * time.Second,
		Keys:          16,
	}
	opt.defaults()
	d := opt.Duration
	sched := &Schedule{
		Seed:  -9,
		Nodes: opt.Nodes,
		Events: []Event{
			{At: d * 25 / 100, Kind: EvPartialPartition, A: []types.NodeID{2}, B: []types.NodeID{3}},
			{At: d * 70 / 100, Kind: EvHeal},
		},
		Scripts: Generate(3, opt).Scripts,
	}
	rep, err := Run(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations under a one-way link fault:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Ops == 0 {
		t.Fatal("no client operations ran")
	}
	t.Log(rep)
}

// TestDisruptionSweep is the election-robustness regression sweep: 200
// generated schedules — now including partial partitions, leader/follower
// isolation, transfers, and drop-leader reconfigs — replayed in the
// deterministic simulator with all guards on. The disruption and
// stale-leader oracles must stay silent on every seed.
func TestDisruptionSweep(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		rep, err := RunSimSeed(seed, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: violations with all guards on:\n%s\n--- journal ---\n%s",
				seed, strings.Join(rep.Violations, "\n"), rep.Journal)
		}
	}
}

// TestTeethLeaseGuard reintroduces the stale-lease hazard (the
// transfer/reconfig lease invalidation removed) and checks the stale-lease
// oracle catches it: a deafened old leader — inbound links cut, outbound
// intact — keeps a "valid" lease on acks banked before the cut while its
// transferred-away successor commits past it. The control run — same
// schedule, guard on — must stay clean: the lease dies the instant the
// transfer starts and cannot revive while deafened.
func TestTeethLeaseGuard(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		// The tuning the oracle was written at: instantaneous disks.
		{"instant-disk", Options{Duration: 1500 * time.Millisecond, DiskDelay: -1}},
		// Slow disks (the sweeps' default): an election interval with room
		// for a vote round and a commit round, each crossing a disk twice,
		// inside the old leader's lease window.
		{"slow-disk", Options{Duration: 1500 * time.Millisecond, ElectionTimeoutMin: 40 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tc.opt
			sched := LeaseViolationSchedule(opt)

			broken := opt
			broken.DisableLeaseGuard = true
			rep, err := RunSim(sched, broken)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, v := range rep.Violations {
				if strings.Contains(v, "stale lease") {
					found = true
				}
			}
			if !found {
				t.Fatalf("lease guard disabled and the deafen+transfer schedule executed, but the stale-lease oracle stayed silent; violations:\n%s\n--- journal ---\n%s",
					strings.Join(rep.Violations, "\n"), rep.Journal)
			}
			t.Logf("caught: %s", rep.Violations[0])

			control, err := RunSim(sched, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !control.Ok() {
				t.Fatalf("guard on, same schedule: unexpected violations:\n%s\n--- journal ---\n%s",
					strings.Join(control.Violations, "\n"), control.Journal)
			}
		})
	}
}
