package transport

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// tcpSM is a minimal state machine for the TCP catch-up test: it tracks
// the applied index, serves snapshot images that encode the index they
// were captured at, and records whether it was ever restored from one.
type tcpSM struct {
	mu       sync.Mutex
	applied  int
	restored bool
	imgIndex int // index decoded from the restored image
	restEdge int // index the restore message carried
}

func (s *tcpSM) AppliedIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

func (s *tcpSM) SaveSnapshot() ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(strconv.Itoa(s.applied)), s.applied, nil
}

func (s *tcpSM) consume(batch []raft.ApplyMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range batch {
		if m.Kind == raft.EntrySnapshot {
			s.restored = true
			s.restEdge = m.Index
			s.imgIndex, _ = strconv.Atoi(string(m.Command))
		}
		s.applied = m.Index
	}
}

func (s *tcpSM) snapshotRestore() (bool, int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored, s.restEdge, s.imgIndex
}

// startTCPNode boots one raft node over a real TCP transport on a
// loopback ephemeral port, pumping the transport inbox and the apply
// stream. Peers are wired up by the caller via SetPeer.
func startTCPNode(t *testing.T, id types.NodeID, members []types.NodeID, sm *tcpSM, storage raft.Storage) (*raft.Node, *TCPTransport) {
	t.Helper()
	inbox := make(chan raft.Message, 1024)
	tr, err := NewTCPTransport(id, "127.0.0.1:0", nil, inbox)
	if err != nil {
		t.Fatalf("S%d: listen: %v", id, err)
	}
	n := raft.StartNode(raft.Options{
		ID:                 id,
		Members:            members,
		Transport:          tr,
		Storage:            storage,
		StateMachine:       sm,
		SnapshotThreshold:  8,
		ElectionTimeoutMin: 50 * time.Millisecond,
	})
	go func() {
		for m := range inbox {
			select {
			case n.Inbox() <- m:
			case <-n.Done():
				return
			}
		}
	}()
	go func() {
		for batch := range n.ApplyCh() {
			sm.consume(batch)
		}
	}()
	return n, tr
}

// TestTCPSnapshotCatchup drives the full snapshot catch-up path over a
// real TCP transport: two nodes commit far past the compaction threshold,
// then a third joins with an empty log — every entry it needs below the
// leader's base is gone, so the leader must stream a chunked
// InstallSnapshot over the wire and the joiner must restore from it and
// converge.
func TestTCPSnapshotCatchup(t *testing.T) {
	members := []types.NodeID{1, 2, 3}
	sm1, sm2, sm3 := &tcpSM{}, &tcpSM{}, &tcpSM{}
	cs1 := &raft.CountingStorage{Inner: raft.NewMemStorage()}
	cs2 := &raft.CountingStorage{Inner: raft.NewMemStorage()}
	n1, t1 := startTCPNode(t, 1, members, sm1, cs1)
	defer n1.Stop()
	n2, t2 := startTCPNode(t, 2, members, sm2, cs2)
	defer n2.Stop()
	t1.SetPeer(2, t2.Addr())
	t2.SetPeer(1, t1.Addr())

	deadline := time.Now().Add(15 * time.Second)
	var leader *raft.Node
	var leaderCS *raft.CountingStorage
	for time.Now().Before(deadline) && leader == nil {
		for i, n := range []*raft.Node{n1, n2} {
			if n.Snapshot().Role == raft.Leader {
				leader = n
				leaderCS = []*raft.CountingStorage{cs1, cs2}[i]
			}
		}
		time.Sleep(time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader elected over TCP")
	}

	const total = 40 // threshold 8: the leader compacts several times
	for i := 0; i < total; i++ {
		if _, _, err := leader.ProposeAsync([]byte(fmt.Sprintf("cmd-%d", i))).Wait(); err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
	}
	var committed int
	for time.Now().Before(deadline) {
		committed = leader.Snapshot().CommitIndex
		if committed > total && leaderCS.SnapshotSaves() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if committed <= total {
		t.Fatalf("leader committed only %d of %d proposals", committed, total)
	}
	if leaderCS.SnapshotSaves() == 0 {
		t.Fatal("leader never compacted; the joiner below would catch up through the log")
	}

	// The joiner starts empty: its whole history lives below the leader's
	// base, so catch-up MUST go through InstallSnapshot.
	n3, t3 := startTCPNode(t, 3, members, sm3, raft.NewMemStorage())
	defer n3.Stop()
	t3.SetPeer(1, t1.Addr())
	t3.SetPeer(2, t2.Addr())
	t1.SetPeer(3, t3.Addr())
	t2.SetPeer(3, t3.Addr())

	for time.Now().Before(deadline) {
		if n3.Snapshot().CommitIndex >= committed && sm3.AppliedIndex() >= committed {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := n3.Snapshot().CommitIndex; got < committed {
		t.Fatalf("joiner commit index %d never reached the leader's %d", got, committed)
	}
	restored, edge, imgIdx := sm3.snapshotRestore()
	if !restored {
		t.Fatal("joiner state machine was never restored from a snapshot")
	}
	if imgIdx != edge {
		t.Fatalf("restored image was captured at index %d but delivered at index %d", imgIdx, edge)
	}
	if sm3.AppliedIndex() < committed {
		t.Fatalf("joiner applied through %d, leader committed %d", sm3.AppliedIndex(), committed)
	}
}
