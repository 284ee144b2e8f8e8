package raft_test

import (
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/raftcore"
	"adore/internal/types"
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

// sentTransport hands every message a node sends to the test.
type sentTransport chan raft.Message

func (s sentTransport) Send(m raft.Message) { s <- m }
func (s sentTransport) Close() error        { return nil }

// next returns the next message of type typ the node sent.
func next(sent sentTransport, typ raftcore.MessageType) raft.Message {
	for {
		if m := <-sent; m.Type == typ {
			return m
		}
	}
}

// TestReadBarrierIDsNeverRepeatAcrossRestarts: a reply to a forwarded read
// barrier can outlive the incarnation that opened it (over TCP the leader's
// per-peer queue keeps it while the follower restarts and flushes it on
// redial). Replies are matched on their id alone, so if the next incarnation
// reused the id, the stale reply would answer its new barrier with an index
// that may miss a write acked before the new read began. The node never
// ticks: the test is its only input.
func TestReadBarrierIDsNeverRepeatAcrossRestarts(t *testing.T) {
	var stale raft.Message // the reply owed to the first incarnation
	for incarnation := 1; incarnation <= 2; incarnation++ {
		inbox, sent := make(chan raft.Message, 4), make(sentTransport, 16)
		n := raft.StartNode(raft.Options{ID: 2, Members: []types.NodeID{1, 2, 3}, Transport: sent, Inbox: inbox})
		defer n.Stop()
		// S1 leads term 1: once the node acks its heartbeat it knows.
		inbox <- raft.Message{Type: raft.MsgAppendEntries, From: 1, To: 2, Term: 1}
		next(sent, raft.MsgAppendResponse)
		got := make(chan int, 1)
		go func() {
			idx, err := n.FollowerReadIndex(5 * time.Second)
			if err != nil {
				idx = -1
			}
			got <- idx
		}()
		req := next(sent, raftcore.MsgReadIndexRequest)
		reply := raft.Message{Type: raftcore.MsgReadIndexResponse, From: 1, To: 2, Term: 1,
			ReadCtx: req.ReadCtx, Success: true}
		if incarnation == 1 {
			stale = reply
			stale.MatchIndex = 7
			n.Stop()
			continue
		}
		inbox <- stale
		reply.MatchIndex = 9
		inbox <- reply
		if idx := <-got; idx != 9 {
			t.Fatalf("the restarted node's barrier resolved at %d, want 9 from its own reply (7 is the reply owed to its previous incarnation)", idx)
		}
	}
}
