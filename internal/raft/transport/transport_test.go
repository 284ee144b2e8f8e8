package transport

import (
	"net"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// memNodes joins each id to n with every id as a peer, and returns each
// node's transport and group-0 inbox.
func memNodes(t *testing.T, n *MemNet, ids ...types.NodeID) (map[types.NodeID]*TCPTransport, map[types.NodeID]chan raft.Message) {
	t.Helper()
	trs := make(map[types.NodeID]*TCPTransport, len(ids))
	ins := make(map[types.NodeID]chan raft.Message, len(ids))
	for _, id := range ids {
		ins[id] = make(chan raft.Message, 256)
		tr, err := n.Join(id, ids, ins[id])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[id] = tr
	}
	return trs, ins
}

// expectNone fails if anything reaches inbox within d.
func expectNone(t *testing.T, inbox chan raft.Message, d time.Duration, what string) {
	t.Helper()
	select {
	case m := <-inbox:
		t.Fatalf("%s: %+v delivered", what, m)
	case <-time.After(d):
	}
}

// expectTerm fails unless the next message to reach inbox within a second
// carries term.
func expectTerm(t *testing.T, inbox chan raft.Message, term types.Time, what string) {
	t.Helper()
	select {
	case m := <-inbox:
		if m.Term != term {
			t.Fatalf("%s: got term %d, want %d", what, m.Term, term)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s: nothing delivered", what)
	}
}

func TestMemNetDelivers(t *testing.T) {
	trs, ins := memNodes(t, NewMemNet(0, 0, 1), 1, 2)
	trs[1].Send(raft.Message{Type: raft.MsgVoteRequest, To: 2, Term: 1})
	select {
	case m := <-ins[2]:
		if m.From != 1 || m.To != 2 || m.Term != 1 {
			t.Errorf("delivered %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestMemNetLatency(t *testing.T) {
	trs, ins := memNodes(t, NewMemNet(20*time.Millisecond, 0, 1), 1, 2)
	start := time.Now()
	trs[1].Send(raft.Message{To: 2})
	select {
	case <-ins[2]:
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Errorf("delivered after %v, want ≥ 20ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

// TestMemNetDrop: at drop rate 1 every write resets its connection, so
// nothing arrives, every envelope is charged as dropped, and the sender
// redials for the next write.
func TestMemNetDrop(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	trs, ins := memNodes(t, n, 1, 2)
	n.SetDropRate(1.0)
	trs[1].Send(raft.Message{To: 2})
	waitCond(t, func() bool { dropped, _ := trs[1].Counters(); return dropped == 1 }, "the reset write charged")
	trs[1].Send(raft.Message{To: 2})
	waitCond(t, func() bool { dropped, _ := trs[1].Counters(); return dropped == 2 }, "the second reset write charged")
	if got := trs[1].Reconnects(); got != 1 {
		t.Errorf("reconnects = %d, want 1 (a redial after the first reset)", got)
	}
	expectNone(t, ins[2], 0, "100% drop rate")
}

func TestMemNetPartitionAndHeal(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	trs, ins := memNodes(t, n, 1, 2)
	n.Partition([]types.NodeID{1}, []types.NodeID{2})
	trs[1].Send(raft.Message{To: 2, Term: 1})
	expectNone(t, ins[2], 30*time.Millisecond, "a partition")
	n.Heal()
	trs[1].Send(raft.Message{To: 2, Term: 2})
	expectTerm(t, ins[2], 2, "after heal")
}

func TestMemNetIsolate(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	trs, ins := memNodes(t, n, 1, 2, 3)
	n.Isolate(1)
	trs[1].Send(raft.Message{To: 2})
	trs[1].Send(raft.Message{To: 3})
	time.Sleep(30 * time.Millisecond)
	if len(ins[2])+len(ins[3]) != 0 {
		t.Fatal("isolated node reached peers")
	}
	// Traffic between the others still flows.
	trs[2].Send(raft.Message{To: 3, Term: 7})
	expectTerm(t, ins[3], 7, "unrelated traffic under Isolate")
}

// TestMemNetNeverReorders: under jitter far above the gap between sends,
// every message still arrives, in the order it was sent — a connection is
// one in-order stream, whatever each write's delay.
func TestMemNetNeverReorders(t *testing.T) {
	trs, ins := memNodes(t, NewMemNet(time.Millisecond, 5*time.Millisecond, 1), 1, 2)
	const count = 200
	for i := 1; i <= count; i++ {
		trs[1].Send(raft.Message{To: 2, Term: types.Time(i)})
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond) // spread the sends over many writes
		}
	}
	for i := 1; i <= count; i++ {
		expectTerm(t, ins[2], types.Time(i), "in-order delivery")
	}
}

// tapNet reports the byte count of every write its connections finish.
type tapNet struct {
	Network
	wrote chan int
}

func (n tapNet) Dial(network, addr string) (net.Conn, error) {
	c, err := n.Network.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return tapConn{c, n.wrote}, nil
}

type tapConn struct {
	net.Conn
	wrote chan int
}

func (c tapConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wrote <- n
	return n, err
}

// TestMemNetBlockedDirectionLosesWholeWrites: while 1→2 is blocked, every
// write from 1 is discarded whole and 2 still reaches 1; after the heal the
// same connection carries the next frame intact — no partial frame ever
// reached 2, and 1 never redialled.
func TestMemNetBlockedDirectionLosesWholeWrites(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	in1, in2 := make(chan raft.Message, 64), make(chan raft.Message, 64)
	wrote := make(chan int, 64)
	t1, err := NewTCPTransportOn(tapNet{n.view(1), wrote}, 1, "S1", map[types.NodeID]string{2: "S2"}, in1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := n.Join(2, []types.NodeID{1}, in2)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()

	t1.Send(raft.Message{To: 2, Term: 1})
	expectTerm(t, in2, 1, "before the block")
	<-wrote

	n.BlockOneWay(1, 2)
	var want int
	for i := 0; i < 8; i++ {
		m := raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: 100, Entries: []raft.LogEntry{{Term: 100, Command: make([]byte, 100*i)}}}
		t1.Send(m)
		m.From = 1
		want += len(raft.AppendEnvelope(nil, raft.Envelope{Msg: m}))
	}
	for got := 0; got < want; {
		select {
		case n := <-wrote:
			got += n
		case <-time.After(time.Second):
			t.Fatalf("the sender wrote %d of %d bytes", got, want)
		}
	}
	t2.Send(raft.Message{To: 1, Term: 2})
	expectTerm(t, in1, 2, "the open direction")

	n.Heal()
	t1.Send(raft.Message{To: 2, Term: 3})
	expectTerm(t, in2, 3, "after heal") // nothing of the blocked writes came first
	if r := t1.Reconnects(); r != 0 {
		t.Errorf("reconnects = %d: the heal needed a redial", r)
	}
	if dropped, _ := t1.Counters(); dropped != 0 {
		t.Errorf("dropped = %d: a blocked write looks sent to its sender", dropped)
	}
}

// TestMemNetRedialsRestartedListener: a peer whose transport closed comes
// back under the same name, and the sender's backoff redials it with no
// SetPeer call. The test logs how long the redial took.
func TestMemNetRedialsRestartedListener(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	trs, ins := memNodes(t, n, 1, 2)
	trs[1].Send(raft.Message{To: 2, Term: 1})
	expectTerm(t, ins[2], 1, "before the restart")

	trs[2].Close()
	down := time.Now()
	// The first write after the close fails; every dial after it is refused
	// until the listener is back.
	for i := 0; i < 10; i++ {
		trs[1].Send(raft.Message{To: 2, Term: 2})
		time.Sleep(10 * time.Millisecond)
	}

	in2b := make(chan raft.Message, 64)
	t2b, err := n.Join(2, nil, in2b)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	up := time.Now()
	deadline := up.Add(10 * time.Second)
	for time.Now().Before(deadline) {
		trs[1].Send(raft.Message{To: 2, Term: 3})
		select {
		case <-in2b:
			t.Logf("redialled %v after the listener came back (down for %v)",
				time.Since(up).Round(time.Millisecond), up.Sub(down).Round(time.Millisecond))
			if trs[1].Reconnects() == 0 {
				t.Error("delivery resumed without a counted reconnect")
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("sender never redialled the restarted listener")
}

// dialNet reports the outcome of every dial its network makes: the time of
// each refused one on refused, of each one that connected on connected.
type dialNet struct {
	Network
	refused, connected chan time.Time
}

func (n dialNet) Dial(network, addr string) (net.Conn, error) {
	c, err := n.Network.Dial(network, addr)
	if err != nil {
		n.refused <- time.Now()
	} else {
		n.connected <- time.Now()
	}
	return c, err
}

// TestHeardPeerEndsDialBackoff: a sender whose backoff toward a crashed peer
// has grown past 640 ms redials as soon as the restarted peer's first
// envelope arrives, not when its timer fires.
func TestHeardPeerEndsDialBackoff(t *testing.T) {
	n := NewMemNet(0, 0, 1)
	dials := dialNet{n.view(1), make(chan time.Time, 16), make(chan time.Time, 16)}
	in1 := make(chan raft.Message, 64)
	t1, err := NewTCPTransportOn(dials, 1, "S1", map[types.NodeID]string{2: "S2"}, in1)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	// S2 is down: the queued envelope keeps S1's sender dialling, and each
	// refusal doubles its backoff, from 20 ms. After the 7th the next delay
	// is drawn from [640 ms, 1280 ms] (internal/backoff).
	t1.Send(raft.Message{To: 2, Term: 1})
	var last time.Time
	for i := 0; i < 7; i++ {
		select {
		case last = <-dials.refused:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d dials refused, want 7", i)
		}
	}

	in2 := make(chan raft.Message, 64)
	t2, err := n.Join(2, []types.NodeID{1}, in2)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	t2.Send(raft.Message{To: 1, Term: 2})
	expectTerm(t, in1, 2, "the restarted peer's first envelope")
	select {
	case at := <-dials.connected:
		if d := at.Sub(last); d >= 640*time.Millisecond {
			t.Fatalf("redialled %v after the last refusal: the timer, not the peer's envelope", d)
		}
	case <-dials.refused:
		t.Fatal("the backoff timer fired before the wake")
	case <-time.After(640 * time.Millisecond):
		t.Fatal("no redial within 640 ms of the peer's envelope")
	}
	expectTerm(t, in2, 1, "the envelope queued while S2 was down")
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
