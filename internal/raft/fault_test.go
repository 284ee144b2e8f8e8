package raft_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"adore/internal/raft"
)

// TestFaultStorageInjectsOneShotErrors checks that an armed fault fires on
// exactly one call, never reaches the inner store, and then disarms.
func TestFaultStorageInjectsOneShotErrors(t *testing.T) {
	inner := raft.NewMemStorage()
	fs := raft.NewFaultStorage(inner)

	boom := errors.New("disk on fire")
	fs.FailNextSaveEntries(boom)
	if err := fs.SaveEntries(1, []raft.LogEntry{{Term: 1}}); !errors.Is(err, boom) {
		t.Fatalf("SaveEntries error = %v, want %v", err, boom)
	}
	if _, _, log, _ := inner.Load(); len(log) != 0 {
		t.Fatalf("failed write reached the inner store: %d entries", len(log))
	}
	// One-shot: the next write goes through.
	if err := fs.SaveEntries(1, []raft.LogEntry{{Term: 1}}); err != nil {
		t.Fatalf("second SaveEntries: %v", err)
	}

	fs.FailNextSaveState(boom)
	if err := fs.SaveState(raft.HardState{Term: 7}); !errors.Is(err, boom) {
		t.Fatalf("SaveState error = %v, want %v", err, boom)
	}
	if hs, _, _, _ := inner.Load(); hs.Term != 0 {
		t.Fatalf("failed state write reached the inner store: term %d", hs.Term)
	}
	if err := fs.SaveState(raft.HardState{Term: 7}); err != nil {
		t.Fatalf("second SaveState: %v", err)
	}
	if got := fs.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

// TestFaultStorageTornWriteReplaysDurablePrefix writes through to a real
// file WAL, tears the final frame, and checks that recovery (a fresh
// FileStorage over the same path) sees exactly the longest durable prefix.
func TestFaultStorageTornWriteReplaysDurablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	inner, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := raft.NewFaultStorage(inner)

	durable := []raft.LogEntry{
		{Term: 1, Kind: raft.EntryNoOp},
		{Term: 1, Kind: raft.EntryCommand, Command: []byte("a")},
	}
	if err := fs.SaveState(raft.HardState{Term: 1, VotedFor: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveEntries(1, durable); err != nil {
		t.Fatal(err)
	}

	fs.TearNextWrite()
	err = fs.SaveEntries(3, []raft.LogEntry{{Term: 1, Kind: raft.EntryCommand, Command: []byte("torn")}})
	if !errors.Is(err, raft.ErrTornWrite) {
		t.Fatalf("torn SaveEntries error = %v, want ErrTornWrite", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hs, _, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 1 || hs.VotedFor != 1 {
		t.Fatalf("recovered hard state %+v, want term 1 vote 1", hs)
	}
	if len(log) != len(durable) {
		t.Fatalf("recovered %d entries, want the %d durable ones", len(log), len(durable))
	}
	if string(log[1].Command) != "a" {
		t.Fatalf("recovered entry 2 = %q", log[1].Command)
	}
}

// TestStorageErrorFailStopsNode wounds a leader's WAL and checks the node
// fail-stops explicitly: the propose fails with ErrStorageFailed, Done()
// closes, and StorageErr reports the cause — instead of the old behavior
// of panicking the whole process (or, worse, acking unpersisted state).
func TestStorageErrorFailStopsNode(t *testing.T) {
	fs := raft.NewFaultStorage(raft.NewMemStorage())
	n := startSingleNode(t, fs)

	if _, _, err := n.ProposeAsync([]byte("healthy")).Wait(); err != nil {
		t.Fatalf("healthy propose: %v", err)
	}

	fs.FailNextSaveEntries(errors.New("EIO"))
	_, _, err := n.ProposeAsync([]byte("doomed")).Wait()
	if !errors.Is(err, raft.ErrStorageFailed) {
		t.Fatalf("propose after wound: err = %v, want ErrStorageFailed", err)
	}
	select {
	case <-n.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("wounded node did not halt")
	}
	if n.Snapshot().Err == nil {
		t.Fatal("StorageErr() = nil after fail-stop")
	}
	// Subsequent client calls fail cleanly rather than hanging.
	if _, _, err := n.ProposeAsync([]byte("late")).Wait(); err == nil {
		t.Fatal("propose on a halted node succeeded")
	}
	if _, _, err := n.ProposeAsync([]byte("late-async")).Wait(); err == nil {
		t.Fatal("async propose on a halted node succeeded")
	}
}

// TestGroupCommitFailStop wounds the WAL under the batched path: every
// future in the doomed batch must resolve with ErrStorageFailed (no waiter
// hangs), and the node must halt.
func TestGroupCommitFailStop(t *testing.T) {
	fs := raft.NewFaultStorage(raft.NewMemStorage())
	n := startSingleNode(t, fs)

	if _, _, err := n.ProposeAsync([]byte("healthy")).Wait(); err != nil {
		t.Fatalf("healthy async propose: %v", err)
	}

	fs.FailNextSaveEntries(errors.New("EIO"))
	props := make([]*raft.Proposal, 4)
	for i := range props {
		props[i] = n.ProposeAsync([]byte(fmt.Sprintf("doomed-%d", i)))
	}
	failed := 0
	for _, p := range props {
		select {
		case <-p.Done():
			if _, _, err := p.Wait(); err != nil {
				failed++
			}
		case <-time.After(2 * time.Second):
			t.Fatal("proposal future never resolved after storage failure")
		}
	}
	if failed == 0 {
		t.Fatal("no proposal failed despite the wounded WAL")
	}
	select {
	case <-n.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("node did not halt after group-commit storage failure")
	}
}

// TestTornCrashNodeRestartsFromDurablePrefix runs a node over a torn WAL:
// the entry whose frame tore is lost, the node halts, and a restart over
// the same file recovers the durable prefix only.
func TestTornCrashNodeRestartsFromDurablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	inner, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	fs := raft.NewFaultStorage(inner)
	n := startSingleNode(t, fs)

	var lastIdx int
	for i := 0; i < 3; i++ {
		if lastIdx, _, err = n.ProposeAsync([]byte(fmt.Sprintf("v%d", i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	fs.TearNextWrite()
	if _, _, err := n.ProposeAsync([]byte("torn")).Wait(); !errors.Is(err, raft.ErrStorageFailed) {
		t.Fatalf("torn propose err = %v, want ErrStorageFailed", err)
	}
	n.Stop()
	inner.Close()

	re, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	n2 := startSingleNode(t, re)
	deadline := time.Now().Add(5 * time.Second)
	for n2.Snapshot().CommitIndex < lastIdx && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := n2.Snapshot().CommitIndex; got < lastIdx {
		t.Fatalf("restarted node commit index %d, want ≥ %d", got, lastIdx)
	}
	if n2.Snapshot().Err != nil {
		t.Fatalf("restarted node unexpectedly wounded: %v", n2.Snapshot().Err)
	}
}
