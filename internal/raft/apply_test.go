package raft_test

import (
	"fmt"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/types"
)

// bareSM is a state machine with no lock of its own: the node may capture it
// only between two OnApply calls, never beside one.
type bareSM struct {
	applied  int
	ends     map[int]bool // the last index of every batch apply returned from
	captures int
	torn     []int // capture indexes no returned batch ended at
}

func (s *bareSM) apply(batch []raft.ApplyMsg) {
	for _, m := range batch {
		s.applied = m.Index
	}
	s.ends[s.applied] = true
}

func (s *bareSM) SaveSnapshot() ([]byte, int, error) {
	s.captures++
	if !s.ends[s.applied] {
		s.torn = append(s.torn, s.applied)
	}
	return []byte(fmt.Sprint(s.applied)), s.applied, nil
}

// TestCaptureOrderedWithApply: the node takes each compaction image on the
// apply goroutine, right after the batch that reached the requested index.
// The race detector flags a capture that runs beside an apply, and every
// capture must sit at the end of a batch OnApply already returned from.
func TestCaptureOrderedWithApply(t *testing.T) {
	sm := &bareSM{ends: map[int]bool{}}
	n := startOneNode(t, multiraft.Options{
		StateMachineFor:   func(raft.GroupID) raft.StateMachine { return sm },
		SnapshotThreshold: 64,
		OnApply:           func(_ raft.GroupID, batch []raft.ApplyMsg) { sm.apply(batch) },
	})
	const total, wave = 3000, 100
	last := 0
	for done := 0; done < total; done += wave {
		ps := make([]*raft.Proposal, wave)
		for i := range ps {
			ps[i] = n.ProposeAsync([]byte(fmt.Sprintf("op-%d", done+i)))
		}
		for _, p := range ps {
			idx, _, err := p.Wait()
			if err != nil {
				t.Fatalf("propose: %v", err)
			}
			last = max(last, idx)
		}
	}
	n.Stop()
	if sm.applied != last {
		t.Fatalf("applied through %d after Stop, want %d", sm.applied, last)
	}
	if sm.captures == 0 {
		t.Fatalf("no capture in %d entries at threshold 64", last)
	}
	if len(sm.torn) > 0 {
		t.Fatalf("%d of %d captures inside a batch, at %v", len(sm.torn), sm.captures, sm.torn)
	}
}

// TestStopDrainsApplyStream: once a bare node's Stop returns, OnApply has
// seen every batch the node handed out, even with the stream backed up
// behind a slow state machine.
func TestStopDrainsApplyStream(t *testing.T) {
	seen := 0 // written by the apply goroutine; read after Stop
	n := raft.StartNode(raft.Options{
		ID: 1, Members: []types.NodeID{1},
		Transport: make(sentTransport, 16), Inbox: make(chan raft.Message),
		OnApply: func(batch []raft.ApplyMsg) {
			time.Sleep(time.Millisecond)
			seen = batch[len(batch)-1].Index
		},
	})
	defer n.Stop()
	for i := 0; i < 4*raft.ElectionTicks && n.Snapshot().Role != raft.Leader; i++ {
		n.Tick()
	}
	if n.Snapshot().Role != raft.Leader {
		t.Fatal("single node did not elect itself")
	}
	last := 0
	for i := 0; i < 200; i++ {
		idx, _, err := n.ProposeAsync([]byte("x")).Wait()
		if err != nil {
			t.Fatalf("propose: %v", err)
		}
		last = idx
	}
	if n.Snapshot().CommitIndex < last {
		t.Fatalf("commit %d below the last acked index %d", n.Snapshot().CommitIndex, last)
	}
	n.Stop()
	if seen != last {
		t.Fatalf("OnApply saw through %d when Stop returned, want %d", seen, last)
	}
}
