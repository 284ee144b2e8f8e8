package raft_test

import (
	"errors"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/types"
)

// This file pins when a proposal resolves: once its node has applied the
// proposal's index (OnApply returned for the batch that holds it), with the
// verdict of the entry applied there, and not at any earlier point of the
// write path — not when the leader's disk holds the entry, and not when the
// leadership it was made under is lost after that.

// TestWriteResolvesAfterApply: an OnApply that blocks in the batch holding a
// proposal's index keeps the proposal's Wait from returning.
func TestWriteResolvesAfterApply(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	n := startOneNode(t, multiraft.Options{OnApply: func(_ raft.GroupID, batch []raft.ApplyMsg) {
		for _, m := range batch {
			if string(m.Command) == "gated" {
				close(entered)
				<-gate
			}
		}
	}})
	p := n.ProposeAsync([]byte("gated"))
	select {
	case <-entered:
	case <-time.After(2 * time.Second):
		close(gate)
		t.Fatal("the proposal's batch never reached OnApply")
	}
	select {
	case <-p.Done():
		t.Error("Wait returned while OnApply was still applying the proposal's batch")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	if _, _, err := p.Wait(); err != nil {
		t.Fatalf("Wait after OnApply returned: %v", err)
	}
}

// TestVolatileStopFailsPendingProposals: a volatile node runs no write lane,
// so Stop itself must fail the proposals it holds. The isolated leader's
// entry is stable at once and can never commit; Stop fails it with
// ErrStopped.
func TestVolatileStopFailsPendingProposals(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose([]byte("warm"), waitLeader); err != nil {
		t.Fatal(err)
	}
	L := c.Node(lid)
	c.Net.Isolate(lid)
	before := L.Snapshot().LastIndex
	p := L.ProposeAsync([]byte("never-commits"))
	for deadline := time.Now().Add(2 * time.Second); L.Snapshot().StableIndex <= before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the isolated leader never appended the proposal")
		}
	}
	c.CrashNode(lid) // stops the node
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Stop left a volatile node's pending proposal unresolved")
	}
	if _, _, err := p.Wait(); !errors.Is(err, raft.ErrStopped) {
		t.Fatalf("pending proposal at a stopped volatile node: err = %v, want ErrStopped", err)
	}
}

// TestDurableProposalOutlivesLeadership: a proposal whose entry was durable
// on its leader when the leader lost its leadership does not fail with the
// loss; it resolves once its index applies there, with the verdict of the
// entry the successor put at it.
func TestDurableProposalOutlivesLeadership(t *testing.T) {
	// Both followers hold the entry in a blocked write when the leader is
	// cut off; once their disks return, one of them leads and commits it.
	t.Run("a successor commits it", func(t *testing.T) {
		lc := startLaneCluster(t, nil, raft.Ablation{})
		lid := lc.leader(t)
		L, others := lc.nodes[lid], lc.others(lid)
		lc.warm(t, lid)
		for _, id := range others {
			lc.st[id].hold()
		}
		p := L.ProposeAsync([]byte("outlives"))
		for _, id := range others {
			select {
			case <-lc.st[id].entered:
			case <-time.After(2 * time.Second):
				t.Fatalf("%s never started the write of the proposal's entry", id)
			}
		}
		idx := L.Snapshot().StableIndex // shipped once the leader's own disk held it
		lc.net.Partition([]types.NodeID{lid}, others)
		for _, id := range others {
			lc.st[id].release()
		}
		lc.awaitDeposed(t, lid, p)
		if got, _, err := p.Wait(); err != nil || got != idx {
			t.Fatalf("after the heal: Wait = %d, %v; want %d applied", got, err, idx)
		}
	})

	// Nobody hears of the entry: the successor's no-op takes its index.
	t.Run("a successor overwrites it", func(t *testing.T) {
		lc := startLaneCluster(t, nil, raft.Ablation{})
		lid := lc.leader(t)
		L := lc.nodes[lid]
		lc.warm(t, lid)
		lc.net.Isolate(lid)
		before := L.Snapshot().LastIndex
		p := L.ProposeAsync([]byte("overwritten"))
		for deadline := time.Now().Add(2 * time.Second); L.Snapshot().StableIndex <= before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the isolated leader never made the proposal durable")
			}
		}
		lc.awaitDeposed(t, lid, p)
		if got, _, err := p.Wait(); !errors.Is(err, raft.ErrNotApplied) || got != before+1 {
			t.Fatalf("after the heal: Wait = %d, %v; want %d, ErrNotApplied", got, err, before+1)
		}
	})
}

// others lists the lane cluster's nodes other than id.
func (lc *laneCluster) others(id types.NodeID) []types.NodeID {
	var out []types.NodeID
	for o := range lc.nodes {
		if o != id {
			out = append(out, o)
		}
	}
	return out
}

// awaitDeposed waits, with old cut off, until old has lost its leadership
// and another node leads with the entry after old's last one committed, and
// checks that p, old's durable proposal, is still waiting; then it heals the
// network.
func (lc *laneCluster) awaitDeposed(t *testing.T, old types.NodeID, p *raft.Proposal) {
	t.Helper()
	last := lc.nodes[old].Snapshot().LastIndex
	deadline := time.Now().Add(waitLeader)
	for {
		successor := false
		for id, n := range lc.nodes {
			if s := n.Snapshot(); id != old && s.Role == raft.Leader && s.CommitIndex >= last {
				successor = true
			}
		}
		if successor && lc.nodes[old].Snapshot().Role != raft.Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s kept its leadership, or no successor committed through %d", old, last)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-p.Done():
		_, _, err := p.Wait()
		t.Fatalf("a durable proposal resolved (%v) before its index applied at its deposed leader", err)
	default:
	}
	lc.net.Heal()
}
