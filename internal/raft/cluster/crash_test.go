package cluster

import (
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestCrashRestartRecoversState crashes a follower and the leader in turn;
// with persistent storage both recover their logs and the cluster's
// committed data survives.
func TestCrashRestartRecoversState(t *testing.T) {
	stores := map[types.NodeID]*raft.MemStorage{}
	c := New(Options{N: 3, Seed: 21, StorageFor: func(_ raft.GroupID, id types.NodeID) raft.Storage {
		if stores[id] == nil {
			stores[id] = raft.NewMemStorage()
		}
		return stores[id]
	}})
	defer c.Stop()

	lid, err := c.WaitForLeader(timeout)
	if err != nil {
		t.Fatal(err)
	}
	var idx int
	for i := 0; i < 5; i++ {
		idx, err = c.Propose([]byte(fmt.Sprintf("v%d", i)), timeout)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, idx, timeout); err != nil {
			t.Fatal(err)
		}
	}

	// Crash a follower, keep writing, restart it: it must catch up from
	// its persisted log rather than from scratch.
	var follower types.NodeID
	for _, id := range []types.NodeID{1, 2, 3} {
		if id != lid {
			follower = id
			break
		}
	}
	c.CrashNode(follower)
	idx2, err := c.Propose([]byte("while-down"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(lid, idx2, timeout); err != nil {
		t.Fatal(err)
	}
	n := c.RestartNode(follower, []types.NodeID{1, 2, 3})
	if err := c.WaitCommit(follower, idx2, timeout); err != nil {
		t.Fatal(err)
	}
	if n.Snapshot().Term == 0 {
		t.Error("restarted node lost its persisted term")
	}

	// Crash the leader: a replacement emerges, commits survive, and the
	// restarted ex-leader rejoins as a follower with its log intact.
	c.CrashNode(lid)
	deadline := time.Now().Add(timeout)
	for c.Leader() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Leader() == nil {
		t.Fatal("no replacement leader after crash")
	}
	idx3, err := c.Propose([]byte("after-leader-crash"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	c.RestartNode(lid, []types.NodeID{1, 2, 3})
	if err := c.WaitCommit(lid, idx3, timeout); err != nil {
		t.Fatal(err)
	}
}

// TestRestartWithoutStorageStartsFresh documents the volatile default.
func TestRestartWithoutStorageStartsFresh(t *testing.T) {
	c := New(Options{N: 3, Seed: 25})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("x"), timeout)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, idx, timeout); err != nil {
			t.Fatal(err)
		}
	}
	c.CrashNode(3)
	n := c.RestartNode(3, []types.NodeID{1, 2, 3})
	// Volatile restart: empty log until re-replicated, but it must still
	// converge via normal replication.
	if err := c.WaitCommit(3, idx, timeout); err != nil {
		t.Fatal(err)
	}
	_ = n
}
