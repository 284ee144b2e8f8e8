package transport

import (
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

func TestMemNetworkDelivers(t *testing.T) {
	net := NewMemNetwork(0, 0, 1)
	inbox := make(chan raft.Message, 8)
	net.AttachGroup(2, 0, inbox)
	ep := net.AttachGroup(1, 0, make(chan raft.Message, 8))
	ep.Send(raft.Message{Type: raft.MsgVoteRequest, To: 2, Term: 1})
	select {
	case m := <-inbox:
		if m.From != 1 || m.To != 2 || m.Term != 1 {
			t.Errorf("delivered %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestMemNetworkLatency(t *testing.T) {
	net := NewMemNetwork(20*time.Millisecond, 0, 1)
	inbox := make(chan raft.Message, 8)
	net.AttachGroup(2, 0, inbox)
	ep := net.AttachGroup(1, 0, make(chan raft.Message, 8))
	start := time.Now()
	ep.Send(raft.Message{To: 2})
	select {
	case <-inbox:
		if d := time.Since(start); d < 15*time.Millisecond {
			t.Errorf("delivered after %v, want ≥ ~20ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestMemNetworkDrop(t *testing.T) {
	net := NewMemNetwork(0, 0, 1)
	net.SetDropRate(1.0)
	inbox := make(chan raft.Message, 8)
	net.AttachGroup(2, 0, inbox)
	ep := net.AttachGroup(1, 0, make(chan raft.Message, 8))
	ep.Send(raft.Message{To: 2})
	select {
	case <-inbox:
		t.Fatal("message delivered despite 100% drop rate")
	case <-time.After(50 * time.Millisecond):
	}
	if _, dropped := net.Counters(); dropped == 0 {
		t.Error("drop not counted")
	}
}

func TestMemNetworkPartitionAndHeal(t *testing.T) {
	net := NewMemNetwork(0, 0, 1)
	inbox := make(chan raft.Message, 8)
	net.AttachGroup(2, 0, inbox)
	ep := net.AttachGroup(1, 0, make(chan raft.Message, 8))
	net.Partition([]types.NodeID{1}, []types.NodeID{2})
	ep.Send(raft.Message{To: 2})
	select {
	case <-inbox:
		t.Fatal("message crossed a partition")
	case <-time.After(30 * time.Millisecond):
	}
	net.Heal()
	ep.Send(raft.Message{To: 2})
	select {
	case <-inbox:
	case <-time.After(time.Second):
		t.Fatal("message not delivered after heal")
	}
}

func TestMemNetworkIsolate(t *testing.T) {
	net := NewMemNetwork(0, 0, 1)
	in2 := make(chan raft.Message, 8)
	in3 := make(chan raft.Message, 8)
	net.AttachGroup(2, 0, in2)
	net.AttachGroup(3, 0, in3)
	ep := net.AttachGroup(1, 0, make(chan raft.Message, 8))
	net.Isolate(1)
	ep.Send(raft.Message{To: 2})
	ep.Send(raft.Message{To: 3})
	time.Sleep(30 * time.Millisecond)
	if len(in2)+len(in3) != 0 {
		t.Fatal("isolated node reached peers")
	}
	// Traffic between the others still flows.
	ep2 := net.AttachGroup(2, 0, in2)
	ep2.Send(raft.Message{To: 3})
	select {
	case <-in3:
	case <-time.After(time.Second):
		t.Fatal("unrelated traffic blocked by Isolate")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	in1 := make(chan raft.Message, 8)
	in2 := make(chan raft.Message, 8)
	t1, err := NewTCPTransport(1, "127.0.0.1:0", nil, in1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := NewTCPTransport(2, "127.0.0.1:0", nil, in2)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	t1.SetPeer(2, t2.Addr())
	t2.SetPeer(1, t1.Addr())

	t1.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: 3,
		Entries: []raft.LogEntry{{Term: 3, Kind: raft.EntryCommand, Command: []byte("hello")}}})
	select {
	case m := <-in2:
		if m.From != 1 || m.Term != 3 || len(m.Entries) != 1 || string(m.Entries[0].Command) != "hello" {
			t.Errorf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP message not delivered")
	}
	// And the reverse direction.
	t2.Send(raft.Message{Type: raft.MsgAppendResponse, To: 1, Term: 3, Success: true, MatchIndex: 1})
	select {
	case m := <-in1:
		if !m.Success || m.MatchIndex != 1 {
			t.Errorf("received %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TCP response not delivered")
	}
}

func TestTCPTransportUnknownPeerDropsSilently(t *testing.T) {
	in := make(chan raft.Message, 8)
	tr, err := NewTCPTransport(1, "127.0.0.1:0", nil, in)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Send(raft.Message{To: 99}) // no peer registered: must not panic
}

// TestTCPSendNeverBlocks sends a burst at a peer that is not listening:
// Send must return immediately every time (the dial happens on the
// background reconnector, not the caller), and once the per-peer queue
// fills the overflow must be counted, not silently lost and not blocked on.
func TestTCPSendNeverBlocks(t *testing.T) {
	in := make(chan raft.Message, 8)
	tr, err := NewTCPTransport(1, "127.0.0.1:0", nil, in)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Reserve an address with nobody behind it.
	dead, err := NewTCPTransport(9, "127.0.0.1:0", nil, make(chan raft.Message, 1))
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr()
	dead.Close()
	tr.SetPeer(2, addr)

	const burst = 3 * sendQueueSize
	start := time.Now()
	for i := 0; i < burst; i++ {
		tr.Send(raft.Message{To: 2, Term: types.Time(i)})
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("burst of %d sends to a down peer took %v — Send is blocking on the network", burst, d)
	}
	if dropped, _ := tr.Counters(); dropped == 0 {
		t.Fatal("queue overflow to a down peer was not counted")
	}
}

// TestTCPReconnectsAfterPeerRestart kills a peer and brings it back on the
// same address: the background reconnector's backoff loop must pick the
// connection back up without any SetPeer call.
func TestTCPReconnectsAfterPeerRestart(t *testing.T) {
	in1 := make(chan raft.Message, 8)
	t1, err := NewTCPTransport(1, "127.0.0.1:0", nil, in1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	in2 := make(chan raft.Message, 8)
	t2, err := NewTCPTransport(2, "127.0.0.1:0", nil, in2)
	if err != nil {
		t.Fatal(err)
	}
	addr := t2.Addr()
	t1.SetPeer(2, addr)

	t1.Send(raft.Message{To: 2, Term: 1})
	select {
	case <-in2:
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery before the restart")
	}

	// Peer goes down; sends queue or drop but never block.
	t2.Close()
	for i := 0; i < 10; i++ {
		t1.Send(raft.Message{To: 2, Term: 2})
		time.Sleep(10 * time.Millisecond)
	}

	// Peer comes back on the same address.
	in2b := make(chan raft.Message, 64)
	t2b, err := NewTCPTransport(2, addr, nil, in2b)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		t1.Send(raft.Message{To: 2, Term: 3})
		select {
		case <-in2b:
			return // reconnected
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("sender never reconnected to the restarted peer")
}

// TestTCPInboxBackpressureShedsAfterBoundedWait wedges the receiving node (a
// full inbox nobody drains): the reader must wait its bounded slice and then
// shed with a count — not block forever, not drop instantly without trace.
func TestTCPInboxBackpressureShedsAfterBoundedWait(t *testing.T) {
	in2 := make(chan raft.Message, 1) // tiny inbox, never drained
	t2, err := NewTCPTransport(2, "127.0.0.1:0", nil, in2)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	in1 := make(chan raft.Message, 1)
	t1, err := NewTCPTransport(1, "127.0.0.1:0", nil, in1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t1.SetPeer(2, t2.Addr())

	for i := 0; i < 64; i++ {
		t1.Send(raft.Message{To: 2, Term: types.Time(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, shed := t2.Counters(); shed > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, shed := t2.Counters()
	t.Fatalf("wedged inbox: shed = %d, want > 0", shed)
}
