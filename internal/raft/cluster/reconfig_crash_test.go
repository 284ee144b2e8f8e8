package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestCrashDuringPendingReconfig crashes the leader while a configuration
// entry is appended but not yet committed (the exact window R2 polices) and
// checks the cluster recovers to the committed configuration: the pending
// change dies with the deposed leader, every replica — including the
// restarted one — converges on the same membership, and the guards still
// accept a fresh, legitimate reconfiguration afterwards.
//
// The "remove" case leaves a pending shrink of the initial five nodes; the
// "add" case first commits a removal and leaves a pending re-add, so both
// directions of the single-node delta cross the crash.
func TestCrashDuringPendingReconfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  bool
	}{
		{name: "pending-remove", add: false},
		{name: "pending-add", add: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// DisableCheckQuorum: the test deliberately isolates the leader and
			// then examines R2 at that stale leader; CheckQuorum would step it
			// down (correctly) before the assertion could run.
			c := New(Options{N: 5, Seed: 77, Ablation: raft.Ablation{DisableCheckQuorum: true}, StorageFor: reopenWALs(t, memDisk)})
			defer c.Stop()

			lid, err := c.WaitForLeader(timeout)
			if err != nil {
				t.Fatal(err)
			}
			// Propose returns once the leader applied the entry; R3 below
			// needs it committed.
			widx, err := c.Propose([]byte("warmup"), timeout)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WaitCommit(lid, widx, timeout); err != nil {
				t.Fatal(err)
			}

			// victim is the node the pending change adds or removes: the
			// highest ID that is not the leader.
			victim := types.NodeID(5)
			if victim == lid {
				victim = 4
			}
			if tc.add {
				// Commit the removal first so the pending change can re-add.
				idx, err := c.Reconfigure(c.Leader().Snapshot().Members.Remove(victim), timeout)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.WaitCommit(lid, idx, timeout); err != nil {
					t.Fatal(err)
				}
			}

			// Cut the leader off alone, then propose the config change at
			// it: R1–R3 accept it (nothing else in flight, current-term
			// entry committed), but a quorum is unreachable, so the entry
			// stays pending in the deposed leader's log forever.
			leader := c.Node(lid)
			var rest []types.NodeID
			for id := types.NodeID(1); id <= 5; id++ {
				if id != lid {
					rest = append(rest, id)
				}
			}
			c.Net.Partition([]types.NodeID{lid}, rest)
			target := leader.Snapshot().Members
			if tc.add {
				target = target.Add(victim)
			} else {
				target = target.Remove(victim)
			}
			// ProposeConfig answers once the change applies at the leader,
			// which the partition forbids: it waits in the background, and
			// the change's hot effect on the leader's membership shows R1–R3
			// accepted it.
			pending := make(chan error, 1)
			go func() {
				_, _, err := leader.ProposeConfig(target)
				pending <- err
			}()
			for deadline := time.Now().Add(timeout); !leader.Snapshot().Members.Equal(target); time.Sleep(time.Millisecond) {
				select {
				case err := <-pending:
					t.Fatalf("pending config answered %v before it could commit", err)
				default:
				}
				if time.Now().After(deadline) {
					t.Fatal("the leader never appended the config change")
				}
			}
			pendingIdx := leader.Snapshot().LastIndex // nothing else is proposed at the isolated leader
			time.Sleep(100 * time.Millisecond)
			if ci := leader.Snapshot().CommitIndex; ci >= pendingIdx {
				t.Fatalf("config entry committed (index %d ≥ %d) despite the partition", ci, pendingIdx)
			}
			// R2 must hold at the stale leader: a second change is rejected
			// while the first is uncommitted.
			if _, _, err := leader.ProposeConfig(leader.Snapshot().Members.Remove(rest[0])); !errors.Is(err, raft.ErrReconfigPending) {
				t.Fatalf("second config while pending: err = %v, want ErrReconfigPending", err)
			}

			// The leader dies with the change still pending, which fails it
			// with ErrStopped; the majority side moves on without ever
			// seeing it.
			c.CrashNode(lid)
			if err := <-pending; !errors.Is(err, raft.ErrStopped) {
				t.Fatalf("pending config at the crashed leader: err = %v, want ErrStopped", err)
			}
			c.Net.Heal()
			deadline := time.Now().Add(timeout)
			for c.Leader() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			newLeader := c.Leader()
			if newLeader == nil {
				t.Fatal("no replacement leader after the crash")
			}
			idx, err := c.Propose([]byte("after-crash"), timeout)
			if err != nil {
				t.Fatal(err)
			}

			// The restarted ex-leader must abandon its pending change and
			// converge to the committed configuration.
			c.RestartNode(lid, []types.NodeID{1, 2, 3, 4, 5})
			if err := c.WaitCommit(lid, idx, timeout); err != nil {
				t.Fatal(err)
			}
			committed := newLeader.Snapshot().Members
			if tc.add && committed.Contains(victim) {
				t.Fatalf("pending add of S%d leaked into the committed config %s", victim, committed)
			}
			if !tc.add && !committed.Contains(victim) {
				t.Fatalf("pending remove of S%d leaked into the committed config %s", victim, committed)
			}
			if got := c.Node(lid).Snapshot().Members; !got.Equal(committed) {
				t.Fatalf("restarted node's config %s != committed config %s", got, committed)
			}

			// R2/R3 still function after recovery: a fresh change is
			// accepted, commits, and every member converges on it.
			final := committed.Remove(victim)
			if tc.add {
				final = committed.Add(victim)
			}
			fidx, err := c.Reconfigure(final, timeout)
			if err != nil {
				t.Fatalf("post-recovery reconfigure: %v", err)
			}
			for _, id := range final.Slice() {
				if err := c.WaitCommit(id, fidx, timeout); err != nil {
					t.Fatal(err)
				}
				if got := c.Node(id).Snapshot().Members; !got.Equal(final) {
					t.Fatalf("S%d config %s != %s after recovery reconfig", id, got, final)
				}
			}
		})
	}
}

// TestFollowerCrashDuringPendingReconfig crashes a follower while a config
// entry is in flight: the change must still commit (the follower was not
// needed for quorum), and the restarted follower must catch up to it.
func TestFollowerCrashDuringPendingReconfig(t *testing.T) {
	c := New(Options{N: 5, Seed: 79, StorageFor: reopenWALs(t, memDisk)})
	defer c.Stop()

	lid, err := c.WaitForLeader(timeout)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Propose([]byte("warmup"), timeout); err != nil {
		t.Fatal(err)
	}
	var follower types.NodeID = 5
	if follower == lid {
		follower = 4
	}
	var removed types.NodeID = 1
	for removed == lid || removed == follower {
		removed++
	}

	// Crash the follower, then run the reconfiguration while it is down.
	c.CrashNode(follower)
	target := c.Node(lid).Snapshot().Members.Remove(removed)
	idx, err := c.Reconfigure(target, timeout)
	if err != nil {
		t.Fatalf("reconfigure with a crashed follower: %v", err)
	}
	if err := c.WaitCommit(lid, idx, timeout); err != nil {
		t.Fatal(err)
	}

	c.RestartNode(follower, []types.NodeID{1, 2, 3, 4, 5})
	if err := c.WaitCommit(follower, idx, timeout); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(follower).Snapshot().Members; !got.Equal(target) {
		t.Fatalf("restarted follower's config %s != committed %s", got, target)
	}
	// And the cluster still makes progress with it back.
	if _, err := c.Propose([]byte(fmt.Sprintf("post-%d", idx)), timeout); err != nil {
		t.Fatal(err)
	}
}
