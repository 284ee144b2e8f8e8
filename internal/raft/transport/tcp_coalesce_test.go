package transport

import (
	"net"
	"sync/atomic"
	"testing"

	"adore/internal/raft"
	"adore/internal/types"
)

// gatedNet listens on an in-memory network and dials connections whose
// every write fails: a write first reports its length on entered and then
// waits for release, so the test decides what is queued while it runs. Dials
// after the second are refused, and each dial reports its number on dials.
type gatedNet struct {
	Network
	entered chan int
	release chan struct{}
	dials   chan int32
	n       atomic.Int32
}

func (g *gatedNet) Dial(_, addr string) (net.Conn, error) {
	n := g.n.Add(1)
	g.dials <- n
	if n > 2 {
		return nil, errRefused
	}
	return gatedConn{g: g}, nil
}

type gatedConn struct {
	net.Conn // only Write and Close are called
	g        *gatedNet
}

func (c gatedConn) Write(b []byte) (int, error) {
	c.g.entered <- len(b)
	<-c.g.release
	return 0, errReset
}

func (c gatedConn) Close() error { return nil }

// TestTCPCoalescedWriteFailureChargesEveryEnvelope: the sender lays every
// envelope it finds queued into one write, so one failed write loses several
// envelopes of several groups — and each must be charged, to its own group.
// The first write carries one envelope and is held while a burst of both
// groups' envelopes queues behind it; it fails, the sender redials, lays the
// whole burst into its second write, and that fails too. A third dial
// happens only after the second write's envelopes are charged, so the
// counters are read at a fixed point, with no wait on the scheduler.
func TestTCPCoalescedWriteFailureChargesEveryEnvelope(t *testing.T) {
	g := &gatedNet{
		Network: NewMemNet(0, 0, 1).view(1),
		entered: make(chan int),
		release: make(chan struct{}),
		dials:   make(chan int32, 3),
	}
	in := make(chan raft.Message, 1)
	t1, err := NewTCPTransportOn(g, 1, "S1", map[types.NodeID]string{2: "S2"}, in)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	ep0 := t1.Endpoint(0, in)
	ep1 := t1.Endpoint(1, make(chan raft.Message, 1))
	frame := func(grp raft.GroupID, term types.Time) int {
		m := raft.Message{Type: raft.MsgAppendEntries, From: 1, To: 2, Term: term}
		return len(raft.AppendEnvelope(nil, raft.Envelope{Group: grp, Msg: m}))
	}

	ep0.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g0Base})
	if n, want := <-g.entered, frame(0, g0Base); n != want {
		t.Fatalf("first write holds %d bytes, want one envelope's %d", n, want)
	}
	const perBurst = 64
	burst := 0
	for i := 0; i < perBurst/2; i++ {
		ep0.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g0Base})
		ep1.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g1Base})
		burst += frame(0, g0Base) + frame(1, g1Base)
	}
	g.release <- struct{}{}
	if n := <-g.entered; n != burst {
		t.Fatalf("second write holds %d bytes, want the whole burst's %d", n, burst)
	}
	ep0.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g0Base}) // takes the third dial
	g.release <- struct{}{}
	for n := range g.dials {
		if n == 3 {
			break
		}
	}

	dropped, _ := t1.Counters()
	if dropped != 1+perBurst || t1.Reconnects() != 1 {
		t.Fatalf("dropped %d with %d reconnects, want %d with 1", dropped, t1.Reconnects(), 1+perBurst)
	}
	if dropped <= t1.Reconnects()+1 {
		t.Fatalf("dropped %d, reconnects %d: no failed write was charged for more than one envelope", dropped, t1.Reconnects())
	}
	// The groups alternate in the queue, so the multi-envelope loss hits
	// both; and the per-group counters account for every drop, no more, no
	// less.
	_, d0, _ := t1.GroupCounters(0)
	_, d1, _ := t1.GroupCounters(1)
	if d0 != 1+perBurst/2 || d1 != perBurst/2 || d0+d1 != dropped {
		t.Fatalf("group drops %d + %d, transport %d: want %d + %d", d0, d1, dropped, 1+perBurst/2, perBurst/2)
	}
}
