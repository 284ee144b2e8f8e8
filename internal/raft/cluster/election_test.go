package cluster

import (
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// rejoinScenario isolates a follower for ten election intervals, runs
// proposals through the stable majority, heals, and keeps proposing. It
// returns the leader's (id, term) before the isolation and after the heal
// settles. With Pre-Vote + sticky leaders the rejoin must be a non-event;
// with Pre-Vote disabled the rejoining node's inflated term deposes the
// leader (the contrast subtest below).
func rejoinScenario(t *testing.T, disablePreVote bool) (before, after struct {
	id   types.NodeID
	term types.Time
}) {
	t.Helper()
	const et = 15 * time.Millisecond
	c := New(Options{
		N:                  5,
		Seed:               61,
		ElectionTimeoutMin: et,
		Ablation:           raft.Ablation{DisablePreVote: disablePreVote},
	})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}
	// Let the leader establish itself before we measure its term.
	time.Sleep(4 * et)
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader after settle")
	}
	before.id = l.ID()
	before.term = l.Snapshot().Term

	// Isolate a follower and let it stew for ten election intervals —
	// plenty of futile campaigns (term-bumping ones if Pre-Vote is off).
	victim := types.NodeID(1)
	if victim == before.id {
		victim = 2
	}
	c.Net.Isolate(victim)
	time.Sleep(10 * et)

	// The 4-node majority must keep serving throughout the heal window:
	// proposals spanning the rejoin must not time out.
	c.Net.Heal()
	for i := 0; i < 8; i++ {
		if _, err := c.Propose([]byte(fmt.Sprintf("heal-%d", i)), timeout); err != nil {
			t.Fatalf("proposal %d across the rejoin failed: %v", i, err)
		}
		time.Sleep(et / 3)
	}
	// Give any disruption (or its repair) time to play out, then read the
	// final leader.
	time.Sleep(6 * et)
	deadline := time.Now().Add(timeout)
	for {
		if l := c.Leader(); l != nil {
			after.id = l.ID()
			after.term = l.Snapshot().Term
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatal("no leader after heal")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerRejoinDoesNotDisrupt is the cluster-level Pre-Vote regression:
// a follower cut off for ten election intervals rejoins without deposing
// the leader — same leader, same term, and no proposal timed out while it
// rejoined.
func TestFollowerRejoinDoesNotDisrupt(t *testing.T) {
	before, after := rejoinScenario(t, false)
	if after.id != before.id || after.term != before.term {
		t.Fatalf("rejoin disrupted leadership: S%d term %d -> S%d term %d",
			before.id, before.term, after.id, after.term)
	}
}

// TestFollowerRejoinDisruptsWithoutPreVote is the contrast run: the same
// scenario with Pre-Vote disabled must show the historical disruption — the
// isolated follower's term-bumping campaigns force a term change on rejoin.
// (It proves the regression test above is load-bearing, not vacuous.)
func TestFollowerRejoinDisruptsWithoutPreVote(t *testing.T) {
	if testing.Short() {
		t.Skip("contrast run in -short mode")
	}
	before, after := rejoinScenario(t, true)
	if after.term == before.term {
		t.Fatalf("Pre-Vote disabled but the rejoin left term %d unchanged — the scenario no longer exercises disruption", before.term)
	}
	t.Logf("disruption reproduced: S%d term %d -> S%d term %d", before.id, before.term, after.id, after.term)
}

// TestTransferLeader exercises the explicit handoff at cluster level: the
// leader transfers to a named voter, the target wins a transfer election
// within an election interval or two, and proposals keep working.
func TestTransferLeader(t *testing.T) {
	c := New(Options{N: 3, Seed: 67, ElectionTimeoutMin: 15 * time.Millisecond})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader")
	}
	// Commit something so followers can be caught up.
	if _, err := c.Propose([]byte("pre"), timeout); err != nil {
		t.Fatal(err)
	}
	to := l.Snapshot().Members.Remove(l.ID()).Slice()[0]
	if err := l.TransferLeader(to); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for {
		if nl := c.Leader(); nl != nil && nl.ID() == to {
			if nl.Snapshot().Role == raft.Leader {
				break
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("S%d never took over leadership from S%d", to, l.ID())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Propose([]byte("post"), timeout); err != nil {
		t.Fatalf("proposal after transfer: %v", err)
	}
}
