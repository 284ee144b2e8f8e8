package transport

import (
	"net"
	"runtime"
	"testing"
	"time"

	"adore/internal/raft"
)

// TestTCPCoalescedWriteFailureChargesEveryEnvelope: the sender lays every
// envelope it finds queued into one write, so one failed write loses several
// envelopes of several groups — and each must be charged, to its own group.
// The peer here accepts and immediately resets every connection, so writes
// keep failing; the only other source of drops (a full queue) is ruled out by
// sending fewer envelopes in total than the queue holds. Every write failure
// is followed by at least one re-dial before the next, so more drops than
// dials means some failed write was charged for more than one envelope.
func TestTCPCoalescedWriteFailureChargesEveryEnvelope(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.(*net.TCPConn).SetLinger(0) // close with RST: the sender's next write fails
			c.Close()
		}
	}()

	in := make(chan raft.Message, 1)
	t1, err := NewTCPTransport(1, "127.0.0.1:0", nil, in)
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	ep0 := t1.Endpoint(0, in)
	ep1 := t1.Endpoint(1, make(chan raft.Message, 1))
	t1.SetPeer(2, ln.Addr().String())

	const bursts, perBurst = 15, 64
	if bursts*perBurst >= sendQueueSize {
		t.Fatal("the test must not be able to fill the send queue")
	}
	// On one P a burst is fully queued before the sender goroutine gets to
	// run, so the write that meets the reset carries the whole burst; with
	// more, the sender usually wakes in time to take the first envelope alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for b := 0; b < bursts; b++ {
		for i := 0; i < perBurst/2; i++ {
			ep0.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g0Base})
			ep1.Send(raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: g1Base})
		}
		time.Sleep(2 * time.Millisecond) // let the reset land before the next burst
	}
	waitCond(t, func() bool {
		dropped, _ := t1.Counters()
		return dropped > t1.Reconnects()+1
	}, "a failed write charged for more than one envelope")

	// The groups alternate in the queue, so a multi-envelope loss hits both;
	// and the per-group counters account for every drop, no more, no less.
	waitCond(t, func() bool {
		dropped, _ := t1.Counters()
		_, d0, _ := t1.GroupCounters(0)
		_, d1, _ := t1.GroupCounters(1)
		return d0 > 0 && d1 > 0 && d0+d1 == dropped
	}, "per-group drop counters to add up to the transport's")
}
