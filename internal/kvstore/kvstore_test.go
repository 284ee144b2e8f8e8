package kvstore

import (
	"fmt"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

const opTimeout = 10 * time.Second

func applyCmd(t *testing.T, s *Store, idx int, c Command) {
	t.Helper()
	s.Apply(raft.ApplyMsg{Index: idx, Kind: raft.EntryCommand, Command: c.Encode()})
}

func TestStoreBasicOps(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	if v, ok := s.LocalGet("a"); !ok || v != "1" {
		t.Errorf("get a = %q %v", v, ok)
	}
	applyCmd(t, s, 2, Command{Op: OpAppend, Key: "a", Value: "2", Client: 1, Seq: 2})
	if v, _ := s.LocalGet("a"); v != "12" {
		t.Errorf("append: %q", v)
	}
	applyCmd(t, s, 3, Command{Op: OpCAS, Key: "a", Old: "12", Value: "x", Client: 1, Seq: 3})
	if v, _ := s.LocalGet("a"); v != "x" {
		t.Errorf("cas: %q", v)
	}
	applyCmd(t, s, 4, Command{Op: OpCAS, Key: "a", Old: "wrong", Value: "y", Client: 1, Seq: 4})
	if v, _ := s.LocalGet("a"); v != "x" {
		t.Errorf("failed cas must not write: %q", v)
	}
	applyCmd(t, s, 5, Command{Op: OpDelete, Key: "a", Client: 1, Seq: 5})
	if _, ok := s.LocalGet("a"); ok {
		t.Error("delete did not remove the key")
	}
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestStoreDeduplicatesRetries(t *testing.T) {
	s := NewStore()
	cmd := Command{Op: OpAppend, Key: "k", Value: "x", Client: 9, Seq: 1}
	applyCmd(t, s, 1, cmd)
	applyCmd(t, s, 2, cmd) // retried proposal applied twice by raft
	if v, _ := s.LocalGet("k"); v != "x" {
		t.Errorf("duplicate applied: %q", v)
	}
}

func TestStoreWaiters(t *testing.T) {
	s := NewStore()
	ch := s.wait(1, 5, 1)
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "v", Client: 5, Seq: 1})
	wr := <-ch
	if !wr.mine || wr.res.Value != "v" {
		t.Errorf("waiter result = %+v", wr)
	}
	// A waiter whose index was taken by someone else's command.
	ch2 := s.wait(2, 5, 2)
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "b", Value: "w", Client: 77, Seq: 1})
	if wr := <-ch2; wr.mine {
		t.Error("foreign command reported as mine")
	}
	// A waiter registered after its index applied resolves immediately.
	ch3 := s.wait(1, 5, 1)
	if wr := <-ch3; !wr.mine {
		t.Error("late waiter did not resolve from the dedup table")
	}
}

// TestStoreWaitApplied: readers blocked on the apply cursor are woken by the
// Apply that lands their index (not a poll), an index already applied
// returns at once, and a wait that hits its deadline reports false.
func TestStoreWaitApplied(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	if !s.WaitApplied(1, time.Now()) {
		t.Fatal("index 1 is applied: want true without waiting")
	}

	const readers = 8
	done := make(chan bool, readers)
	for i := 0; i < readers; i++ {
		go func() { done <- s.WaitApplied(3, time.Now().Add(opTimeout)) }()
	}
	for s.waitingAt(3) < readers { // every reader is parked on the cursor
		time.Sleep(100 * time.Microsecond)
	}
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "a", Value: "2", Client: 1, Seq: 2})
	select {
	case <-done:
		t.Fatal("a waiter for index 3 returned at index 2")
	default:
	}
	applyCmd(t, s, 3, Command{Op: OpPut, Key: "a", Value: "3", Client: 1, Seq: 3})
	for i := 0; i < readers; i++ {
		if !<-done {
			t.Fatal("WaitApplied(3) = false after index 3 applied")
		}
	}

	if s.WaitApplied(9, time.Now().Add(5*time.Millisecond)) {
		t.Fatal("WaitApplied(9) = true with the cursor at 3")
	}
}

func (s *Store) waitingAt(idx int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters[idx])
}

func TestStoreIgnoresNonCommands(t *testing.T) {
	s := NewStore()
	ch := s.wait(1, 1, 1)
	s.Apply(raft.ApplyMsg{Index: 1, Kind: raft.EntryNoOp})
	if wr := <-ch; wr.mine {
		t.Error("no-op resolved as a command")
	}
	if s.Len() != 0 {
		t.Error("no-op mutated the store")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	snap := s.Snapshot()
	snap["a"] = "mutated"
	if v, _ := s.LocalGet("a"); v != "1" {
		t.Error("snapshot shares storage")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Command{Op: OpCAS, Key: "k", Value: "v", Old: "o", Client: 3, Seq: 7}
	out, err := DecodeCommand(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v vs %+v", out, in)
	}
	if _, err := DecodeCommand([]byte("not json")); err == nil {
		t.Error("garbage decoded successfully")
	}
}

func TestReplicatedEndToEnd(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 200 * time.Microsecond, Seed: 11})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opTimeout); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("name", "adore", opTimeout); err != nil {
		t.Fatal(err)
	}
	v, ok, err := r.Get("name", opTimeout)
	if err != nil || !ok || v != "adore" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	swapped, err := r.CAS("name", "adore", "adore2", opTimeout)
	if err != nil || !swapped {
		t.Fatalf("cas: %v %v", swapped, err)
	}
	if v, err := r.Append("name", "!", opTimeout); err != nil || v != "adore2!" {
		t.Fatalf("append = %q %v", v, err)
	}
	found, err := r.Delete("name", opTimeout)
	if err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := r.Get("name", opTimeout); ok {
		t.Error("key survived delete")
	}
}

func TestReplicatedAllReplicasConverge(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 100 * time.Microsecond, Seed: 13})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opTimeout); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := r.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), opTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// A final linearizable read ensures everything committed; then wait
	// for followers to apply.
	if _, _, err := r.Get("k19", opTimeout); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(opTimeout)
	for time.Now().Before(deadline) {
		if r.Store(1).Len() == 20 && r.Store(2).Len() == 20 && r.Store(3).Len() == 20 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range []types.NodeID{1, 2, 3} {
		st := r.Store(id)
		if st.Len() != 20 {
			t.Fatalf("%s has %d keys, want 20", id, st.Len())
		}
	}
	// All snapshots identical.
	ref := r.Store(1).Snapshot()
	for _, id := range []types.NodeID{2, 3} {
		snap := r.Store(id).Snapshot()
		for k, v := range ref {
			if snap[k] != v {
				t.Fatalf("%s diverges at %q: %q vs %q", id, k, snap[k], v)
			}
		}
	}
}

func TestReplicatedSurvivesLeaderLoss(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 100 * time.Microsecond, Seed: 17})
	defer r.Stop()
	lid, err := r.Cluster.WaitForLeader(opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", "v1", opTimeout); err != nil {
		t.Fatal(err)
	}
	r.Cluster.Net.Isolate(lid)
	// Writes keep working through the new leader.
	if err := r.Put("k", "v2", opTimeout); err != nil {
		t.Fatal(err)
	}
	v, ok, err := r.Get("k", opTimeout)
	if err != nil || !ok || v != "v2" {
		t.Fatalf("after failover: %q %v %v", v, ok, err)
	}
	r.Cluster.Net.Heal()
}

func TestReplicatedUnderReconfiguration(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 100 * time.Microsecond, Seed: 19})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opTimeout); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("pre", "1", opTimeout); err != nil {
		t.Fatal(err)
	}
	// Grow to 4 while serving writes.
	r.Cluster.StartNode(4, []types.NodeID{1, 2, 3, 4})
	if _, err := r.Cluster.Reconfigure(types.Range(1, 4), opTimeout); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("during", "2", opTimeout); err != nil {
		t.Fatal(err)
	}
	// Shrink back to 3.
	if _, err := r.Cluster.Reconfigure(types.Range(1, 3), opTimeout); err != nil {
		t.Fatal(err)
	}
	if err := r.Put("post", "3", opTimeout); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"pre", "during", "post"} {
		if _, ok, err := r.Get(k, opTimeout); err != nil || !ok {
			t.Fatalf("key %q lost across reconfiguration (%v)", k, err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "b", Value: "2", Client: 1, Seq: 2})
	img, applied, err := s.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("snapshot applied index = %d, want 2", applied)
	}
	fresh := NewStore()
	if err := fresh.LoadSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.LocalGet("a"); !ok || v != "1" {
		t.Errorf("restored a = %q %v", v, ok)
	}
	if fresh.AppliedIndex() != 2 {
		t.Errorf("restored applied = %d", fresh.AppliedIndex())
	}
	// Dedup table survives: re-applying an old command is a no-op.
	applyCmd(t, fresh, 3, Command{Op: OpPut, Key: "a", Value: "STALE", Client: 1, Seq: 1})
	if v, _ := fresh.LocalGet("a"); v != "1" {
		t.Errorf("dedup lost across snapshot: %q", v)
	}
	if err := fresh.LoadSnapshot([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestFastGetObservesPrecedingWrites(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 100 * time.Microsecond, Seed: 37})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opTimeout); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		val := fmt.Sprintf("v%d", i)
		if err := r.Put("k", val, opTimeout); err != nil {
			t.Fatal(err)
		}
		// A FastGet issued after the Put returned must see it (or newer).
		v, ok, err := r.FastGet("k", opTimeout)
		if err != nil || !ok {
			t.Fatalf("FastGet: %q %v %v", v, ok, err)
		}
		if v != val {
			t.Fatalf("FastGet observed %q after Put(%q) returned", v, val)
		}
	}
	// FastGet on a missing key.
	if _, ok, err := r.FastGet("missing", opTimeout); err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

func TestFastGetSurvivesLeaderChange(t *testing.T) {
	r := NewReplicated(cluster.Options{N: 3, Latency: 100 * time.Microsecond, Seed: 41})
	defer r.Stop()
	lid, err := r.Cluster.WaitForLeader(opTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", "before", opTimeout); err != nil {
		t.Fatal(err)
	}
	r.Cluster.Net.Isolate(lid)
	defer r.Cluster.Net.Heal()
	v, ok, err := r.FastGet("k", opTimeout)
	if err != nil || !ok || v != "before" {
		t.Fatalf("FastGet after failover: %q %v %v", v, ok, err)
	}
}
