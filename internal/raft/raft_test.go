package raft_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

const waitLeader = 5 * time.Second

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Options{N: n, Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Seed: 42})
	t.Cleanup(c.Stop)
	return c
}

func TestElectsLeader(t *testing.T) {
	c := newCluster(t, 3)
	id, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if id == types.NoNode {
		t.Fatal("no leader id")
	}
	// Exactly one leader at the highest term once things settle.
	time.Sleep(50 * time.Millisecond)
	leaders := 0
	var topTerm types.Time
	for _, n := range c.Nodes() {
		s := n.Snapshot()
		if s.Term > topTerm {
			topTerm = s.Term
			leaders = 0
		}
		if s.Role == raft.Leader && s.Term == topTerm {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders at the top term", leaders)
	}
}

func TestReplicatesCommands(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.WaitForLeader(waitLeader); err != nil {
		t.Fatal(err)
	}
	var lastIdx int
	for i := 0; i < 5; i++ {
		idx, err := c.Propose([]byte(fmt.Sprintf("cmd-%d", i)), waitLeader)
		if err != nil {
			t.Fatal(err)
		}
		lastIdx = idx
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, lastIdx, waitLeader); err != nil {
			t.Fatal(err)
		}
	}
	// Applied command streams agree across nodes.
	ref := commandsOf(c.Applied(1))
	if len(ref) != 5 {
		t.Fatalf("leader applied %d commands, want 5", len(ref))
	}
	for _, id := range []types.NodeID{2, 3} {
		got := commandsOf(c.Applied(id))
		if len(got) != len(ref) {
			t.Fatalf("%s applied %d commands, want %d", id, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s applied %q at %d, want %q", id, got[i], i, ref[i])
			}
		}
	}
}

func commandsOf(msgs []raft.ApplyMsg) []string {
	var out []string
	for _, m := range msgs {
		if m.Kind == raft.EntryCommand {
			out = append(out, string(m.Command))
		}
	}
	return out
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.ID() == lid {
			continue
		}
		if _, _, err := n.ProposeAsync([]byte("x")).Wait(); !errors.Is(err, raft.ErrNotLeader) {
			// The follower may have just won a newer election; accept that.
			if n.Snapshot().Role != raft.Leader {
				t.Fatalf("follower %s accepted a proposal: %v", n.ID(), err)
			}
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("before"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, idx, waitLeader); err != nil {
			t.Fatal(err)
		}
	}
	// Cut the leader off; a new leader must emerge among the rest.
	c.Net.Isolate(lid)
	deadline := time.Now().Add(waitLeader)
	var newLeader types.NodeID
	for time.Now().Before(deadline) {
		for _, n := range c.Nodes() {
			if n.ID() == lid {
				continue
			}
			if n.Snapshot().Role == raft.Leader {
				newLeader = n.ID()
			}
		}
		if newLeader != types.NoNode {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if newLeader == types.NoNode {
		t.Fatal("no new leader after isolating the old one")
	}
	// The new leader still has the committed command and can extend.
	idx2, _, err := c.Node(newLeader).ProposeAsync([]byte("after")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if id == lid {
			continue
		}
		if err := c.WaitCommit(id, idx2, waitLeader); err != nil {
			t.Fatal(err)
		}
	}
	// Heal: the old leader catches up.
	c.Net.Heal()
	if err := c.WaitCommit(lid, idx2, waitLeader); err != nil {
		t.Fatal(err)
	}
	a, b := commandsOf(c.Applied(lid)), commandsOf(c.Applied(newLeader))
	if len(a) != len(b) {
		t.Fatalf("logs diverged after heal: %v vs %v", a, b)
	}
}

func TestLossyNetworkStillCommits(t *testing.T) {
	c := newCluster(t, 3)
	c.Net.SetDropRate(0.15)
	if _, err := c.WaitForLeader(waitLeader); err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("lossy"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, idx, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReconfigAddServer(t *testing.T) {
	c := newCluster(t, 3)
	if _, err := c.WaitForLeader(waitLeader); err != nil {
		t.Fatal(err)
	}
	// Start the fresh node first so it can receive traffic.
	c.StartNode(4, []types.NodeID{1, 2, 3, 4})
	idx, err := c.Reconfigure(types.Range(1, 4), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []types.NodeID{1, 2, 3, 4} {
		if err := c.WaitCommit(id, idx, waitLeader); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Leader().Snapshot().Members; !got.Equal(types.Range(1, 4)) {
		t.Fatalf("membership = %v, want {S1..S4}", got)
	}
	// Commands still flow in the larger cluster.
	idx2, err := c.Propose([]byte("post-grow"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(4, idx2, waitLeader); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigRemoveServer(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	// Remove a follower.
	var victim types.NodeID
	for _, id := range []types.NodeID{1, 2, 3} {
		if id != lid {
			victim = id
			break
		}
	}
	idx, err := c.Reconfigure(types.Range(1, 3).Remove(victim), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(lid, idx, waitLeader); err != nil {
		t.Fatal(err)
	}
	// The two-node cluster still commits.
	idx2, err := c.Propose([]byte("post-shrink"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(lid, idx2, waitLeader); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigGuardsRuntime(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	leader := c.Node(lid)
	// R1: multi-node change rejected outright.
	if _, _, err := leader.ProposeConfig(types.NewNodeSet(1, 4, 5)); !errors.Is(err, raft.ErrBadMembership) {
		t.Errorf("multi-node change: %v", err)
	}
	if _, _, err := leader.ProposeConfig(types.NodeSet{}); !errors.Is(err, raft.ErrBadMembership) {
		t.Errorf("empty membership: %v", err)
	}
	// Wait for the no-op to commit so R3 passes, then test R2.
	if _, err := c.Reconfigure(types.Range(1, 4), waitLeader); err != nil {
		t.Fatal(err)
	}
	// Immediately propose another change: R2 must reject until committed.
	_, _, err = leader.ProposeConfig(types.Range(1, 5))
	if err != nil && !errors.Is(err, raft.ErrReconfigPending) && !errors.Is(err, raft.ErrNotLeader) {
		t.Errorf("second reconfig error = %v, want ErrReconfigPending (or already committed)", err)
	}
}

func TestRemovedLeaderStepsDown(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	// The leader removes itself.
	idx, err := c.Reconfigure(types.Range(1, 3).Remove(lid), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	_ = idx
	// A different leader must eventually emerge.
	deadline := time.Now().Add(waitLeader)
	for time.Now().Before(deadline) {
		if l := c.Leader(); l != nil && l.ID() != lid {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no replacement leader after self-removal")
}

// TestProposeConfigHandsOffOwnRemoval drives `raft-kv removeserver <leader>`:
// the change that removes the leader is proposed straight at it. The leader
// refuses and hands off; the retry at whoever leads commits the change under
// a survivor, which won leadership by one transfer campaign rather than by a
// pre-vote after an election timeout.
func TestProposeConfigHandsOffOwnRemoval(t *testing.T) {
	c := cluster.New(cluster.Options{N: 3, Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond,
		ElectionTimeoutMin: 150 * time.Millisecond, Seed: 42})
	t.Cleanup(c.Stop)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("x"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if err := c.WaitCommit(n.ID(), idx, waitLeader); err != nil {
			t.Fatal(err)
		}
	}
	before := map[types.NodeID]raft.Counters{}
	for _, n := range c.Nodes() {
		before[n.ID()] = n.Snapshot().Counters
	}

	target := types.Range(1, 3).Remove(lid)
	if _, _, err := c.Node(lid).ProposeConfig(target); !errors.Is(err, raft.ErrTransferInProgress) {
		t.Fatalf("ProposeConfig removing the leader S%d: %v, want ErrTransferInProgress", lid, err)
	}
	var by types.NodeID
	for deadline := time.Now().Add(waitLeader); by == types.NoNode; time.Sleep(time.Millisecond) {
		if !time.Now().Before(deadline) {
			t.Fatal("the change never landed at a successor")
		}
		if l := c.Leader(); l != nil {
			if idx, _, err = l.ProposeConfig(target); err == nil {
				by = l.ID()
			}
		}
	}
	if !target.Contains(by) {
		t.Fatalf("the change was accepted by S%d, outside %s", by, target)
	}
	if err := c.WaitCommit(by, idx, waitLeader); err != nil {
		t.Fatal(err)
	}
	transfers := false
	for _, id := range target.Slice() {
		after := c.Node(id).Snapshot().Counters
		transfers = transfers || after.TransferElections > before[id].TransferElections
		if after.PreVotesWon != before[id].PreVotesWon {
			t.Errorf("S%d won %d pre-votes across the removal, want none", id, after.PreVotesWon-before[id].PreVotesWon)
		}
	}
	if !transfers {
		t.Error("no survivor campaigned by transfer")
	}
}

func TestR3DisabledAllowsEarlyReconfig(t *testing.T) {
	// With R3 disabled (the buggy algorithm), a fresh leader may
	// reconfigure before committing anything in its term.
	c := cluster.New(cluster.Options{N: 3, Ablation: raft.Ablation{DisableR3: true}, Seed: 7})
	defer c.Stop()
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	// Immediately after winning, commit index may lag the no-op; R3 off
	// means the proposal goes straight in (R1/R2 still enforced).
	_, _, err = c.Node(lid).ProposeConfig(types.Range(1, 4).Remove(4).Add(4))
	if err != nil && !errors.Is(err, raft.ErrReconfigPending) {
		t.Fatalf("reconfig with R3 disabled failed: %v", err)
	}
}

func TestReadIndexLinearizationBarrier(t *testing.T) {
	c := newCluster(t, 3)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("x"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(lid, idx, waitLeader); err != nil {
		t.Fatal(err)
	}
	// Every replica's read — the leader's own, and each follower's forwarded
	// one — returns an index at or above the committed write.
	for _, n := range c.Nodes() {
		ri, err := n.FollowerReadIndex(waitLeader)
		if err != nil {
			t.Fatalf("%s: %v", n.ID(), err)
		}
		if ri < idx {
			t.Fatalf("%s: read index %d below committed %d", n.ID(), ri, idx)
		}
	}
}

func TestReadIndexFailsWhenIsolated(t *testing.T) {
	// Leases off: a lease may rightly answer inside its window, so the
	// barrier is what is under test.
	c := cluster.New(cluster.Options{N: 3, Latency: 200 * time.Microsecond, Jitter: 300 * time.Microsecond, Seed: 42,
		Ablation: raft.Ablation{DisableLeaseRead: true}})
	t.Cleanup(c.Stop)
	lid, err := c.WaitForLeader(waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Isolate(lid)
	// The isolated leader cannot confirm leadership: the barrier must not
	// succeed (it times out or fails once the node learns of a new term).
	if _, err := c.Node(lid).FollowerReadIndex(300 * time.Millisecond); err == nil {
		t.Fatal("isolated leader confirmed a ReadIndex barrier")
	}
	c.Net.Heal()
}

// TestSingleNodeClusterCommits is a regression test: a one-member
// configuration must commit without any append responses (there are no
// peers to respond).
func TestSingleNodeClusterCommits(t *testing.T) {
	c := newCluster(t, 1)
	if _, err := c.WaitForLeader(waitLeader); err != nil {
		t.Fatal(err)
	}
	idx, err := c.Propose([]byte("solo"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(1, idx, waitLeader); err != nil {
		t.Fatal(err)
	}
	// A read on a singleton is immediate (it is its own quorum).
	if _, err := c.Node(1).FollowerReadIndex(time.Second); err != nil {
		t.Fatal(err)
	}
	// And it can grow into a real cluster.
	c.StartNode(2, []types.NodeID{1, 2})
	if _, err := c.Reconfigure(types.Range(1, 2), waitLeader); err != nil {
		t.Fatal(err)
	}
	idx2, err := c.Propose([]byte("pair"), waitLeader)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(2, idx2, waitLeader); err != nil {
		t.Fatal(err)
	}
}
