// The tests in this file run raft nodes on one-group multiraft hosts over
// real TCP transports. They are an external test package: multiraft's own
// tests import this package.
package transport_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
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

// startTCPNode boots one raft node on a one-group host over a real TCP
// transport on a loopback ephemeral port, feeding the apply stream to sm.
// Peers are wired up by the caller via SetPeer.
func startTCPNode(t *testing.T, id types.NodeID, members []types.NodeID, sm *tcpSM, storage raft.Storage) (*raft.Node, *transport.TCPTransport) {
	t.Helper()
	tr, err := transport.NewTCPTransport(id, "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatalf("S%d: listen: %v", id, err)
	}
	t.Cleanup(func() { tr.Close() })
	h, err := multiraft.Start(multiraft.Options{
		ID:                 id,
		Members:            members,
		Transport:          tr,
		StorageFor:         func(raft.GroupID) raft.Storage { return storage },
		StateMachineFor:    func(raft.GroupID) raft.StateMachine { return sm },
		SnapshotThreshold:  8,
		ElectionTimeoutMin: 50 * time.Millisecond,
		OnApply:            func(_ raft.GroupID, batch []raft.ApplyMsg) { sm.consume(batch) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h.Node(0), tr
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
	n1, t1 := startTCPNode(t, 1, members, sm1, raft.NewMemStorage())
	defer n1.Stop()
	n2, t2 := startTCPNode(t, 2, members, sm2, raft.NewMemStorage())
	defer n2.Stop()
	t1.SetPeer(2, t2.Addr())
	t2.SetPeer(1, t1.Addr())

	deadline := time.Now().Add(15 * time.Second)
	var leader *raft.Node
	for time.Now().Before(deadline) && leader == nil {
		for _, n := range []*raft.Node{n1, n2} {
			if n.Snapshot().Role == raft.Leader {
				leader = n
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
	var compactions uint64
	for time.Now().Before(deadline) {
		s := leader.Snapshot()
		committed, compactions = s.CommitIndex, s.Counters.SnapshotWrites
		if committed > total && compactions > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if committed <= total {
		t.Fatalf("leader committed only %d of %d proposals", committed, total)
	}
	if compactions == 0 {
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

// TestTCPCluster runs a real 3-node raft cluster over TCP loopback: the
// executable-protocol deployment path of §7.
func TestTCPCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cluster test in -short mode")
	}
	ids := []types.NodeID{1, 2, 3}
	trs := map[types.NodeID]*transport.TCPTransport{}
	for _, id := range ids {
		tr, err := transport.NewTCPTransport(id, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trs[id] = tr
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b {
				trs[a].SetPeer(b, trs[b].Addr())
			}
		}
	}
	nodes := map[types.NodeID]*raft.Node{}
	for _, id := range ids {
		h, err := multiraft.Start(multiraft.Options{ID: id, Members: ids, Transport: trs[id], Seed: int64(id),
			OnApply: func(raft.GroupID, []raft.ApplyMsg) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer h.Stop()
		nodes[id] = h.Node(0)
	}

	var leader *raft.Node
	deadline := time.Now().Add(10 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		for _, n := range nodes {
			if n.Snapshot().Role == raft.Leader {
				leader = n
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if leader == nil {
		t.Fatal("no leader over TCP")
	}
	var idx int
	for i := 0; i < 10; i++ {
		var err error
		idx, _, err = leader.ProposeAsync([]byte(fmt.Sprintf("tcp-%d", i))).Wait()
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, n := range nodes {
			if n.Snapshot().CommitIndex < idx {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("commands did not commit on all nodes over TCP")
}
