package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adore/internal/types"
)

// TestReconfigShedViaTransfer replays the transfer-under-churn schedule —
// two membership changes that each shed the sitting leader, plus an
// explicit handoff — and requires every leadership change to be a graceful
// transfer: the journal must show transfer campaigns and zero
// timeout-triggered campaigns.
func TestReconfigShedViaTransfer(t *testing.T) {
	r := row(t, "transfer-during-reconfig")
	rep, err := RunSim(r.sched(r.opt), r.opt)
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
