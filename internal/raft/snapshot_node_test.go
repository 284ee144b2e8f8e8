package raft_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
)

// startSnapshotNode launches a one-node raft with a state machine wired
// for compaction: the apply stream feeds the store, and the node captures
// it whenever the applied distance crosses threshold.
func startSnapshotNode(t testing.TB, storage raft.Storage, st *kvstore.Store, threshold int) *raft.Node {
	t.Helper()
	return startOneNode(t, multiraft.Options{
		StorageFor:        func(raft.GroupID) raft.Storage { return storage },
		StateMachineFor:   func(raft.GroupID) raft.StateMachine { return st },
		SnapshotThreshold: threshold,
		OnApply: func(_ raft.GroupID, batch []raft.ApplyMsg) {
			for _, msg := range batch {
				st.Apply(msg)
			}
		},
	})
}

// waitLeading waits for the one-node cluster n to lead again after a
// step-down.
func waitLeading(t *testing.T, n *raft.Node) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); n.Snapshot().Role != raft.Leader; {
		if time.Now().After(deadline) {
			t.Fatal("the node did not lead again within 10s of a step-down")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALBoundedBySnapshots is the tentpole's acceptance bound: with
// SnapshotThreshold=1000, a long proposal history must leave a WAL whose
// replay is bounded by the threshold, not by history length — restart
// loads one snapshot plus at most ~threshold entries, and compacted
// segments are actually unlinked from disk.
func TestWALBoundedBySnapshots(t *testing.T) {
	total := 50000
	if testing.Short() {
		total = 5000
	}
	const threshold = 1000

	dir := t.TempDir()
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := kvstore.NewStore()
	n := startSnapshotNode(t, fs, st, threshold)

	// Waves of concurrent async proposals: the flush loop group-commits
	// them, so this runs at fsync-per-batch, not fsync-per-entry. The one
	// voter counts itself only through its disk, so an fsync slower than an
	// election interval steps it down; like a client, the test then waits
	// for it to lead again and proposes what failed once more.
	const wave = 512
	handles := make([]*raft.Proposal, 0, wave)
	for done := 0; done < total; {
		handles = handles[:0]
		for i := 0; i < wave && done+i < total; i++ {
			handles = append(handles, n.ProposeAsync([]byte(fmt.Sprintf("op-%d", done+i))))
		}
		for i, h := range handles {
			for {
				_, _, err := h.Wait()
				if err == nil {
					break
				}
				if !errors.Is(err, raft.ErrLeaderStepdown) && !errors.Is(err, raft.ErrNotLeader) {
					t.Fatalf("propose: %v", err)
				}
				waitLeading(t, n)
				h = n.ProposeAsync([]byte(fmt.Sprintf("op-%d", done+i)))
			}
		}
		done += len(handles)
	}

	// Let the apply stream and the final compactions settle: the policy
	// keeps firing until fewer than threshold entries sit above the base.
	deadline := time.Now().Add(60 * time.Second)
	settled := false
	for time.Now().Before(deadline) {
		_, _, log, err := fs.Load()
		if err != nil {
			t.Fatal(err)
		}
		if st.AppliedIndex() >= total+1 && len(log) < threshold {
			settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !settled {
		_, snap, log, _ := fs.Load()
		t.Fatalf("WAL never settled below the threshold: applied %d, base %d, %d live entries",
			st.AppliedIndex(), snap.Index, len(log))
	}

	n.Stop()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovery is one snapshot load plus a bounded suffix replay.
	re, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatalf("recovery after %d proposals: %v", total, err)
	}
	defer re.Close()
	_, snap, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) >= threshold {
		t.Fatalf("restart replays %d entries; want < %d (snapshots did not bound the WAL)", len(log), threshold)
	}
	if snap.Index+len(log) < total+1 {
		t.Fatalf("history truncated: base %d + %d entries < %d committed", snap.Index, len(log), total+1)
	}
	if snap.Index < total+1-threshold {
		t.Fatalf("snapshot base %d lags the tail by more than the threshold (%d committed)", snap.Index, total+1)
	}

	// Disk-level bound: compacted segments are unlinked, not retained.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	// Live suffix spans at most 2 pre-compaction segments, plus the
	// snapshot rotation and the reopen rotation.
	if len(segs) > 4 {
		t.Fatalf("%d WAL segments on disk after compaction: %v", len(segs), segs)
	}
	// The image lives in a segment's base record: the directory holds
	// nothing but segments.
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != len(segs) {
		t.Fatalf("WAL directory holds %d files, %d of them segments: %v", len(des), len(segs), des)
	}
}

// failFirstSnapshot fails the first SaveSnapshot with err (the node's write
// lane is its one caller) and passes every other call through.
type failFirstSnapshot struct {
	raft.Storage
	err error
}

func (s *failFirstSnapshot) SaveSnapshot(snap raft.LogSnapshot) error {
	if err := s.err; err != nil {
		s.err = nil
		return err
	}
	return s.Storage.SaveSnapshot(snap)
}

// TestNodeSnapshotPersistFailStop injects a write error into the
// snapshot persist underneath a live node: the driver must fail-stop
// (surface the error, halt the node) instead of dropping the error and
// truncating a WAL whose replacement image never landed.
func TestNodeSnapshotPersistFailStop(t *testing.T) {
	fa := &failFirstSnapshot{Storage: openWAL(t, raft.NewMemFS()), err: fmt.Errorf("injected snapshot error")}
	st := kvstore.NewStore()
	n := startSnapshotNode(t, fa, st, 8)

	for i := 0; i < 32; i++ {
		if _, _, err := n.ProposeAsync([]byte(fmt.Sprintf("op-%d", i))).Wait(); err != nil {
			break // node already failed stopped: proposals are rejected
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && n.Snapshot().Err == nil {
		time.Sleep(time.Millisecond)
	}
	err := n.Snapshot().Err
	if err == nil {
		t.Fatal("node survived a snapshot persist failure")
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("fail-stop error does not name the snapshot persist: %v", err)
	}
}
