package raft_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"adore/internal/raft"
)

// TestFaultFSInjectsOneShotErrors checks that an armed write error fires on
// exactly one write, never reaches the inner file system, and then disarms,
// and that the disk counts it.
func TestFaultFSInjectsOneShotErrors(t *testing.T) {
	disk := raft.NewFaultFS(raft.NewMemFS())
	st := openWAL(t, disk)

	boom := errors.New("disk on fire")
	disk.FailNextWrite(boom)
	if err := st.SaveEntries(1, []raft.LogEntry{{Term: 1}}); !errors.Is(err, boom) {
		t.Fatalf("SaveEntries error = %v, want %v", err, boom)
	}
	// A reopen writes its segment through the disarmed fault and replays
	// nothing of the failed write.
	re := openWAL(t, disk)
	if _, _, log, _ := re.Load(); len(log) != 0 {
		t.Fatalf("failed write reached the disk: %d entries", len(log))
	}
	if err := re.SaveEntries(1, []raft.LogEntry{{Term: 1}}); err != nil {
		t.Fatalf("SaveEntries after the fault fired: %v", err)
	}
	if got := disk.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

// TestStorageErrorFailStopsNode wounds a leader's WAL and checks the node
// fail-stops explicitly: the propose fails with ErrStorageFailed, Done()
// closes, and StorageErr reports the cause — instead of the old behavior
// of panicking the whole process (or, worse, acking unpersisted state).
func TestStorageErrorFailStopsNode(t *testing.T) {
	disk := raft.NewFaultFS(raft.NewMemFS())
	n := startSingleNode(t, openWAL(t, disk))

	if _, _, err := n.ProposeAsync([]byte("healthy")).Wait(); err != nil {
		t.Fatalf("healthy propose: %v", err)
	}

	disk.FailNextWrite(errors.New("EIO"))
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
	disk := raft.NewFaultFS(raft.NewMemFS())
	n := startSingleNode(t, openWAL(t, disk))

	if _, _, err := n.ProposeAsync([]byte("healthy")).Wait(); err != nil {
		t.Fatalf("healthy async propose: %v", err)
	}

	disk.FailNextWrite(errors.New("EIO"))
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

// TestTornCrashNodeRestartsFromDurablePrefix runs a node over a torn WAL on
// real files: the power goes a few bytes into the next write, the entry whose
// frame tore is lost, the node halts, and a restart over the same directory
// recovers the durable prefix only.
func TestTornCrashNodeRestartsFromDurablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	disk := raft.NewFaultFS(raft.OSFS)
	inner, err := raft.OpenFileStorageOn(disk, path)
	if err != nil {
		t.Fatal(err)
	}
	n := startSingleNode(t, inner)

	var lastIdx int
	for i := 0; i < 3; i++ {
		if lastIdx, _, err = n.ProposeAsync([]byte(fmt.Sprintf("v%d", i))).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	disk.CutAfter(5)
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
