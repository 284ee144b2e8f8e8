package raft_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// slowStorage delays every SaveEntries so concurrent proposals pile up
// behind the flush in progress — forcing the group-commit path to batch.
type slowStorage struct {
	raft.Storage
	delay time.Duration
}

func (s *slowStorage) SaveEntries(firstIndex int, entries []raft.LogEntry) error {
	time.Sleep(s.delay)
	return s.Storage.SaveEntries(firstIndex, entries)
}

// openWAL opens a FileStorage in directory "wal" on disk.
func openWAL(t testing.TB, disk raft.FS) *raft.FileStorage {
	t.Helper()
	st, err := raft.OpenFileStorageOn(disk, "wal")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startSingleNode launches a one-node raft whose apply stream is drained and
// waits for it to elect itself.
func startSingleNode(t testing.TB, storage raft.Storage) *raft.Node {
	t.Helper()
	return startOneNode(t, multiraft.Options{
		StorageFor: func(raft.GroupID) raft.Storage { return storage },
		OnApply:    func(raft.GroupID, []raft.ApplyMsg) {},
	})
}

// startOneNode runs node 1 of the one-member cluster {1} on a one-group
// multiraft.Host over a zero-latency memory network, configured by opts
// otherwise, and waits for it to elect itself.
func startOneNode(t testing.TB, opts multiraft.Options) *raft.Node {
	t.Helper()
	net := transport.NewMemNetwork(0, 0, 1)
	opts.ID, opts.Members = 1, []types.NodeID{1}
	opts.Transport = transport.HostTransport{Net: net, ID: 1}
	h, err := multiraft.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	n := h.Node(0)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.Snapshot().Role == raft.Leader {
			return n
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("single node did not elect itself")
	return nil
}

// TestProposeAsyncGroupCommit drives 32 concurrent proposers through the
// batched path over a deliberately slow storage and asserts (a) every
// proposal lands at a distinct contiguous index, and (b) the number of
// WAL frames written is far below the number of proposals — i.e. the
// flush loop actually coalesced concurrent callers into group commits.
func TestProposeAsyncGroupCommit(t *testing.T) {
	n := startSingleNode(t, &slowStorage{Storage: openWAL(t, raft.NewMemFS()), delay: 2 * time.Millisecond})
	base := n.Snapshot().Counters.EntryWrites

	const workers = 32
	const perWorker = 8
	var mu sync.Mutex
	indexes := make(map[int]string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cmd := fmt.Sprintf("w%d-%d", w, i)
				idx, _, err := n.ProposeAsync([]byte(cmd)).Wait()
				if err != nil {
					t.Errorf("propose %s: %v", cmd, err)
					return
				}
				mu.Lock()
				if prev, dup := indexes[idx]; dup {
					t.Errorf("index %d assigned to both %s and %s", idx, prev, cmd)
				}
				indexes[idx] = cmd
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	total := workers * perWorker
	if len(indexes) != total {
		t.Fatalf("got %d distinct indexes, want %d", len(indexes), total)
	}
	frames := n.Snapshot().Counters.EntryWrites - base
	if frames >= uint64(total)/2 {
		t.Errorf("%d WAL frames for %d proposals: group commit did not coalesce", frames, total)
	}
	t.Logf("%d proposals in %d WAL frames (%.2f frames/op)", total, frames, float64(frames)/float64(total))
}

// TestProposeAsyncOnFollowerFails mirrors the synchronous contract: a
// non-leader fails the future with ErrNotLeader.
func TestProposeAsyncOnFollowerFails(t *testing.T) {
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
			if n.Snapshot().Role != raft.Leader {
				t.Fatalf("follower %s accepted an async proposal: %v", n.ID(), err)
			}
		}
	}
}

// TestProposeAsyncAfterStop fails fast instead of hanging.
func TestProposeAsyncAfterStop(t *testing.T) {
	n := startSingleNode(t, nil)
	n.Stop()
	_, _, err := n.ProposeAsync([]byte("late")).Wait()
	if !errors.Is(err, raft.ErrStopped) && !errors.Is(err, raft.ErrNotLeader) {
		t.Fatalf("propose after stop: err = %v", err)
	}
}

// TestGroupCommitDurableAfterCrash is the batched-WAL durability contract:
// concurrent proposers stream commands through ProposeAsync while the node
// is stopped mid-flight; on recovery, every proposal that was ACKED must
// be present in the reopened WAL at its assigned index. Proposals failed
// with ErrStopped/ErrNotLeader carry no durability promise.
func TestGroupCommitDurableAfterCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	fs, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	n := startSingleNode(t, fs)

	const workers = 16
	var mu sync.Mutex
	acked := make(map[int]string)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				cmd := fmt.Sprintf("w%d-%d", w, i)
				idx, _, err := n.ProposeAsync([]byte(cmd)).Wait()
				if err != nil {
					return // stop raced the proposal: no durability promise
				}
				mu.Lock()
				acked[idx] = cmd
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond) // let batches form and flush
	close(stop)
	n.Stop() // hard stop with proposals in flight
	wg.Wait()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if len(acked) == 0 {
		t.Fatal("no proposals were acked before the crash")
	}

	re, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, _, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	for idx, cmd := range acked {
		if idx > len(log) {
			t.Fatalf("acked index %d (%s) missing: recovered log ends at %d", idx, cmd, len(log))
		}
		if got := string(log[idx-1].Command); got != cmd {
			t.Fatalf("index %d: recovered %q, acked %q", idx, got, cmd)
		}
	}
	t.Logf("%d acked proposals all recovered (log length %d)", len(acked), len(log))
}
