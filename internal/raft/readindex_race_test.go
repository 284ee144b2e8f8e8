package raft_test

import (
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
)

// TestReadIndexNotLeaderRace hammers ReadIndex on followers while the
// leader's heartbeats update their last-known-leader field. The not-leader
// error path used to read n.leader after releasing the mutex, which the
// race detector flags the moment a heartbeat lands mid-format; this test
// fails under -race on that code path.
func TestReadIndexNotLeaderRace(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.WaitForLeader(waitLeader); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, n := range c.Nodes() {
		if n.Snapshot().Role == raft.Leader {
			continue
		}
		wg.Add(1)
		go func(n *raft.Node) {
			defer wg.Done()
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				// Followers always take the not-leader error path.
				_, _ = n.ReadIndex(time.Millisecond)
			}
		}(n)
	}
	// Keep the leader proposing so heartbeats (which rewrite each
	// follower's leader field) flow continuously.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		_, _ = c.Propose([]byte("tick"), 50*time.Millisecond)
	}
	wg.Wait()
}
