package cluster

import (
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

const timeout = 5 * time.Second

func TestClusterElectionAndPropose(t *testing.T) {
	c := New(Options{N: 3, Seed: 5})
	defer c.Stop()
	id, err := c.WaitForLeader(timeout)
	if err != nil {
		t.Fatal(err)
	}
	if c.Node(id) == nil {
		t.Fatal("leader node not found")
	}
	idx, err := c.Propose([]byte("hello"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(id, idx, timeout); err != nil {
		t.Fatal(err)
	}
	// The applied stream records the command.
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		msgs := c.Applied(id)
		for _, m := range msgs {
			if m.Kind == raft.EntryCommand && string(m.Command) == "hello" {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("command never applied")
}

func TestClusterDefaults(t *testing.T) {
	c := New(Options{}) // N and Seed default
	defer c.Stop()
	if len(c.Nodes()) != 3 {
		t.Errorf("%d nodes, want default 3", len(c.Nodes()))
	}
}

func TestClusterReconfigureHelper(t *testing.T) {
	c := New(Options{N: 3, Seed: 8})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}
	c.StartNode(4, []types.NodeID{1, 2, 3, 4})
	idx, err := c.Reconfigure(types.Range(1, 4), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(4, idx, timeout); err != nil {
		t.Fatal(err)
	}
	if got := c.Leader().Snapshot().Members; !got.Equal(types.Range(1, 4)) {
		t.Errorf("members = %v", got)
	}
}

func TestWaitCommitTimesOut(t *testing.T) {
	c := New(Options{N: 3, Seed: 9})
	defer c.Stop()
	if err := c.WaitCommit(1, 9999, 50*time.Millisecond); err == nil {
		t.Error("WaitCommit should time out for an unreachable index")
	}
}

// TestFollowerReadDoesNotWaitForHeartbeat: a follower that forwards a read
// right after a put learns from the read reply that the put is committed; it
// does not sit on an entry it already holds until the next append names it.
// With a 500 ms heartbeat (the leader broadcasts on every 500 ms tick)
// nothing else can tell the follower within the 100 ms budget.
func TestFollowerReadDoesNotWaitForHeartbeat(t *testing.T) {
	c := New(Options{N: 3, Seed: 7, ElectionTimeoutMin: 3 * time.Second}) // a 500 ms tick
	defer c.Stop()
	// Run S1's election clock by hand instead of waiting 0.5–3 s for it.
	for deadline := time.Now().Add(timeout); c.Leader() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no leader")
		}
		c.Node(1).Tick()
	}
	leader := c.Leader().ID()
	var f *raft.Node
	for _, n := range c.Nodes() {
		if n.ID() != leader {
			f = n
			break
		}
	}
	// Propose answers once the leader applied the put, which one follower's
	// ack is enough for: the read needs f to know its leader first.
	for deadline := time.Now().Add(timeout); f.Snapshot().Leader != leader; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("S%d never learned its leader S%d", f.ID(), leader)
		}
	}
	for round := 0; round < 3; round++ {
		idx, err := c.Propose([]byte("x"), timeout)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WaitCommit(leader, idx, timeout); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		ridx, err := f.FollowerReadIndex(timeout)
		if err != nil {
			t.Fatalf("round %d: FollowerReadIndex: %v", round, err)
		}
		if ridx < idx {
			t.Fatalf("round %d: read index %d below the committed put at %d", round, ridx, idx)
		}
		if err := c.WaitCommit(f.ID(), ridx, timeout); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("round %d: follower read took %v: it waited for an append to learn the commit index", round, d)
		}
	}
}
