package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// TestProposalCoveredBySnapshot: a deposed leader's durable proposals are
// committed by its successor, which then compacts its log past them, so the
// deposed leader learns their fate from an installed snapshot instead of
// from the entries. A bare proposal fails with raft.ErrCompacted, and
// Replica.Write, whose proposal did the same, answers from the dedup table
// the image restored.
func TestProposalCoveredBySnapshot(t *testing.T) {
	const threshold = 4
	r := startService(t, 1, cluster.Options{Seed: 23, SnapshotThreshold: threshold})
	lid, err := r.Cluster.WaitForLeader(opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("warm", "x", opTimeout); err != nil {
		t.Fatal(err)
	}
	replica := func(id types.NodeID) Replica {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.servers[id].Replica("k")
	}
	L := replica(lid)
	var others []types.NodeID
	for _, id := range r.replicas() {
		if id != lid {
			others = append(others, id)
		}
	}
	// The followers hear the leader, which hears nothing back: its entries
	// reach them, but it commits none and steps down.
	for _, id := range others {
		r.Cluster.Net.BlockOneWay(id, lid)
	}
	before := L.Node.Snapshot().LastIndex
	bare := L.Node.ProposeAsync(Command{Op: OpPut, Key: "k", Value: "bare", Client: 1001, Seq: 1}.Encode())
	type answer struct {
		res Result
		err error
	}
	written := make(chan answer, 1)
	go func() {
		res, err := L.Write(Command{Op: OpPut, Key: "k2", Value: "kv", Client: 1002, Seq: 1}, opTimeout)
		written <- answer{res, err}
	}()
	for deadline := time.Now().Add(opTimeout); ; time.Sleep(time.Millisecond) {
		successor := false
		for _, id := range others {
			if s := replica(id).Node.Snapshot(); s.Role == raft.Leader && s.CommitIndex >= before+2 {
				successor = true
			}
		}
		if successor && L.Node.Snapshot().Role != raft.Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no successor committed the deposed leader's two entries")
		}
	}
	// The successor compacts well past both entries before the old leader
	// hears from it again.
	for i := 0; i < 5*threshold; i++ {
		if err := r.Put(fmt.Sprintf("fill-%d", i), "v", opTimeout); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-bare.Done():
		_, _, err := bare.Wait()
		t.Fatalf("the bare proposal resolved (%v) while its deposed leader was cut off", err)
	default:
	}
	r.Cluster.Net.Heal()
	if _, _, err := bare.Wait(); !errors.Is(err, raft.ErrCompacted) {
		t.Fatalf("bare proposal under the installed snapshot: err = %v, want ErrCompacted", err)
	}
	if v, _ := L.Store.LocalGet("k"); v != "bare" {
		t.Fatalf("the restored image holds k = %q, want the committed %q", v, "bare")
	}
	if a := <-written; a.err != nil || a.res.Value != "kv" {
		t.Fatalf("Write under the installed snapshot = %+v, %v; want the dedup table's kv", a.res, a.err)
	}
}
