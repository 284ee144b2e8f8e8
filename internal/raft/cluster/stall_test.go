package cluster

import (
	"errors"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestStalledLeaderDiskLosesLeadership: heartbeats no longer wait for the
// leader's disk, so a leader whose fsync hangs would otherwise keep its
// followers sticky forever while committing nothing. The core's stalled-disk
// step-down must hand over instead: the in-flight proposal fails with the
// retryable ErrLeaderStepdown, a healthy replica leads within three election
// intervals of the step-down, commits resume, and the stalled node rejoins
// as a follower when the stall clears.
func TestStalledLeaderDiskLosesLeadership(t *testing.T) {
	const et = 50 * time.Millisecond
	faults := map[types.NodeID]*raft.FaultFS{}
	for id := types.NodeID(1); id <= 3; id++ {
		faults[id] = raft.NewFaultFS(raft.NewMemFS())
	}
	c := New(Options{
		N: 3, Seed: 7, ElectionTimeoutMin: et,
		StorageFor: reopenWALs(t, func(id types.NodeID) raft.FS { return faults[id] }),
	})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose([]byte("before"), timeout); err != nil {
		t.Fatal(err)
	}
	old := c.Leader()
	if old == nil {
		t.Fatal("no leader after the first commit")
	}
	term0 := old.Snapshot().Term

	// Every write on the leader now hangs for 12 election intervals.
	const stall = 12 * et
	faults[old.ID()].SetStall(stall)
	stalledAt := time.Now()
	p := old.ProposeAsync([]byte("stuck"))

	// The stalled leader's future fails with the step-down error well before
	// the write returns.
	select {
	case <-p.Done():
	case <-time.After(stall / 2):
		t.Fatalf("the stalled leader never failed its in-flight proposal (no step-down within %s)", stall/2)
	}
	if _, _, err := p.Wait(); !errors.Is(err, raft.ErrLeaderStepdown) {
		t.Fatalf("in-flight proposal on the stalled leader: err = %v, want ErrLeaderStepdown", err)
	}
	steppedDown := time.Now()
	if d := steppedDown.Sub(stalledAt); d > 3*et {
		t.Fatalf("step-down took %s, want about one election interval (%s)", d, et)
	}

	// A healthy replica leads within three election intervals.
	var next *raft.Node
	for next == nil {
		if time.Since(steppedDown) > 3*2*et { // timeouts are drawn from [et, 2et)
			t.Fatalf("no new leader %s after the step-down", time.Since(steppedDown))
		}
		for _, n := range c.Nodes() {
			if s := n.Snapshot(); n.ID() != old.ID() && s.Role == raft.Leader && s.Term > term0 {
				next = n
			}
		}
		time.Sleep(time.Millisecond)
	}
	// Commits resume on the healthy majority while the disk is still hung.
	idx, _, err := next.ProposeAsync([]byte("after")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCommit(next.ID(), idx, timeout); err != nil {
		t.Fatal(err)
	}
	if time.Since(stalledAt) >= stall {
		t.Skip("the machine was too slow: the stall cleared before commits were observed")
	}

	// The stall clears (the hung write returns, later ones are fast): the
	// old leader rejoins as a follower and catches up.
	faults[old.ID()].SetStall(0)
	deadline := time.Now().Add(stall + timeout)
	for {
		s := old.Snapshot()
		if s.Role == raft.Follower && s.Leader == next.ID() && s.CommitIndex >= idx {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stalled node did not rejoin: role=%s leader=%s commit=%d (want follower of %s at ≥ %d)",
				s.Role, s.Leader, s.CommitIndex, next.ID(), idx)
		}
		time.Sleep(time.Millisecond)
	}
	if err := old.Snapshot().Err; err != nil {
		t.Fatalf("a stall is not a failure, but the node fail-stopped: %v", err)
	}
}
