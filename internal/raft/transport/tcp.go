// Package transport carries raft envelopes between nodes: TCPTransport frames
// them with raft.AppendEnvelope over connections per peer, with reconnect,
// write coalescing and per-group inbox shedding. It is the one transport of
// every runtime: cmd/raft-kv and the benchmark run it on the operating
// system's network (OSNet), and every in-process cluster runs it on a MemNet,
// an in-memory network with the faults beneath the connections.
package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/backoff"
	"adore/internal/raft"
	"adore/internal/types"
)

const (
	// sendQueueSize bounds each peer's outbound queue. When the peer is
	// unreachable the queue fills and further sends are dropped (counted);
	// the protocol's retries make that safe.
	sendQueueSize = 1024
	// dialBackoffMin/Max bound the reconnector's exponential backoff.
	dialBackoffMin = 20 * time.Millisecond
	dialBackoffMax = 2 * time.Second
	// inboxWait is how long an inbound reader waits on a congested inbox
	// before shedding the message. Bounded (not infinite) so one slow node
	// cannot stall a peer's reader goroutine indefinitely; non-zero so a
	// short apply hiccup causes backpressure instead of silent loss.
	inboxWait = 5 * time.Millisecond
	// coalesceBytes bounds one write: a sender that finds more envelopes
	// already queued lays them into the same buffer until it holds this
	// much. Larger than a typical append batch, small enough that one write
	// never monopolises the connection. It is also the receiver's read size.
	coalesceBytes = 64 << 10
	// maxRetainedBuf is the largest codec buffer a connection keeps between
	// messages; one oversized message (a long catch-up append) does not pin
	// its high-water mark for the life of the connection.
	maxRetainedBuf = 1 << 20
)

// TCPTransport carries raft envelopes over TCP as length-prefixed binary
// frames (raft.AppendEnvelope / raft.DecodeEnvelope): on OSNet in a
// deployment (cmd/raft-kv), on a MemNet in the in-process clusters.
//
// The transport is a group multiplexer: one connection and one background
// reconnector per peer carry traffic for every raft group the process
// hosts. Each group registers its inbox via Endpoint(g, inbox); inbound
// envelopes are demultiplexed by their GroupID into that group's inbox.
// The single-inbox NewTCPTransport API registers group 0.
//
// Sends never block on the network: each peer has a background sender
// goroutine that owns the connection, redials with capped exponential
// backoff plus jitter when the peer is down, and drains a bounded queue
// shared by all groups, coalescing whatever is already queued into one write
// (it never waits for more). Send enqueues or — when the queue is full or the
// peer unknown — drops and counts (per group). Inbound messages get a
// bounded wait on a congested inbox before being shed (counted per group),
// so one group's slow consumer backpressures its own sender without
// silently losing the other groups' traffic.
type TCPTransport struct {
	id types.NodeID
	nw Network
	ln net.Listener

	mu      sync.Mutex
	inboxes map[raft.GroupID]chan<- raft.Message // guarded by mu
	peers   map[types.NodeID]string              // guarded by mu
	senders map[types.NodeID]*peerSender         // guarded by mu
	inbound map[net.Conn]struct{}                // guarded by mu
	groups  map[raft.GroupID]*groupCounters      // guarded by mu (counters themselves atomic)
	closed  bool                                 // guarded by mu
	wg      sync.WaitGroup

	dropped    atomic.Uint64 // outbound: queue full, unknown peer, or write failure
	shed       atomic.Uint64 // inbound: inbox still full after the bounded wait
	reconnects atomic.Uint64 // successful re-dials after a connection was lost
}

// groupCounters are the per-group slices of the transport's backpressure
// counters: the reconnector counters split by the group whose traffic they
// charge. A multiplexing bug (one group's congestion or socket loss
// bleeding into another) shows up as the wrong group's counter moving.
type groupCounters struct {
	delivered atomic.Uint64 // inbound envelopes handed to the group's inbox
	dropped   atomic.Uint64 // outbound envelopes dropped for this group
	shed      atomic.Uint64 // inbound envelopes shed after the bounded wait
}

// peerSender owns one peer's connection. All fields are set at construction;
// the loop goroutine is the only user of the connection itself.
type peerSender struct {
	t     *TCPTransport
	addr  string
	queue chan raft.Envelope
	stop  chan struct{}
	wake  chan struct{} // the peer was heard from: redial now, not at the backoff's end
	once  sync.Once
}

// NewTCPTransport starts listening on addr and delivers inbound group-0
// messages to inbox. peers maps node IDs to addresses (this node's own
// entry is ignored). Additional groups attach via Endpoint.
func NewTCPTransport(id types.NodeID, addr string, peers map[types.NodeID]string, inbox chan<- raft.Message) (*TCPTransport, error) {
	return NewTCPTransportOn(OSNet, id, addr, peers, inbox)
}

// NewTCPTransportOn is NewTCPTransport on the network nw: it listens and
// dials only through nw.
func NewTCPTransportOn(nw Network, id types.NodeID, addr string, peers map[types.NodeID]string, inbox chan<- raft.Message) (*TCPTransport, error) {
	ln, err := nw.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	peerAddrs := make(map[types.NodeID]string, len(peers))
	for pid, paddr := range peers {
		peerAddrs[pid] = paddr
	}
	inboxes := make(map[raft.GroupID]chan<- raft.Message)
	if inbox != nil {
		inboxes[0] = inbox
	}
	t := &TCPTransport{
		id:      id,
		nw:      nw,
		ln:      ln,
		inboxes: inboxes,
		peers:   peerAddrs,
		senders: make(map[types.NodeID]*peerSender),
		inbound: make(map[net.Conn]struct{}),
		groups:  make(map[raft.GroupID]*groupCounters),
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Addr returns the transport's bound address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Counters returns how many outbound messages were dropped (full queue,
// unknown peer, or write failure) and how many inbound messages were shed
// after the bounded inbox wait, summed over all groups.
func (t *TCPTransport) Counters() (dropped, shed uint64) {
	return t.dropped.Load(), t.shed.Load()
}

// GroupCounters returns one group's slice of the transport counters:
// inbound envelopes delivered to its inbox, outbound envelopes dropped,
// and inbound envelopes shed on a congested inbox.
func (t *TCPTransport) GroupCounters(g raft.GroupID) (delivered, dropped, shed uint64) {
	gc := t.group(g)
	return gc.delivered.Load(), gc.dropped.Load(), gc.shed.Load()
}

// Reconnects returns how many times a peer sender successfully re-dialed
// after losing an established connection.
func (t *TCPTransport) Reconnects() uint64 { return t.reconnects.Load() }

// group returns g's counter block, creating it on first touch.
func (t *TCPTransport) group(g raft.GroupID) *groupCounters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.groupLocked(g)
}

func (t *TCPTransport) groupLocked(g raft.GroupID) *groupCounters {
	gc := t.groups[g]
	if gc == nil {
		gc = &groupCounters{}
		t.groups[g] = gc
	}
	return gc
}

// route is the receive path's one locked lookup per inbound envelope: group
// g's inbox (nil when none is registered) and counter block, and whether
// the transport has closed.
func (t *TCPTransport) route(g raft.GroupID) (inbox chan<- raft.Message, gc *groupCounters, closed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.inboxes[g], t.groupLocked(g), t.closed
}

// Endpoint registers inbox as group g's demux target and returns a
// raft.Transport that stamps g on every send. Closing the endpoint
// unregisters only that group — the shared listener, connections, and the
// other groups' traffic are untouched (a node stopping one group must not
// sever the rest).
func (t *TCPTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	t.mu.Lock()
	t.inboxes[g] = inbox
	t.mu.Unlock()
	return &tcpEndpoint{t: t, group: g}
}

// tcpEndpoint is one group's view of the shared transport.
type tcpEndpoint struct {
	t     *TCPTransport
	group raft.GroupID
}

// Send implements raft.Transport.
func (e *tcpEndpoint) Send(m raft.Message) { e.t.send(e.group, m) }

// Close implements raft.Transport: detach this group's inbox only.
func (e *tcpEndpoint) Close() error {
	e.t.mu.Lock()
	delete(e.t.inboxes, e.group)
	e.t.mu.Unlock()
	return nil
}

// SetPeer registers or updates a peer's address (e.g. after AddServer). An
// existing sender for the peer is torn down; the next Send spawns a fresh
// one against the new address.
func (t *TCPTransport) SetPeer(id types.NodeID, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[id] = addr
	if ps := t.senders[id]; ps != nil {
		ps.shutdown()
		delete(t.senders, id)
	}
}

func (t *TCPTransport) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.receive(conn)
	}
}

func (t *TCPTransport) receive(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.inbound[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, coalesceBytes)
	var buf []byte
	timer := time.NewTimer(inboxWait)
	defer timer.Stop()
	for heard := false; ; heard = true {
		body, err := raft.ReadFrame(br, buf)
		if err != nil {
			return
		}
		env, err := raft.DecodeEnvelope(body)
		if err != nil {
			return // a malformed frame poisons the stream: drop the connection
		}
		if !heard {
			t.wake(env.Msg.From)
		}
		if buf = body; cap(buf) > maxRetainedBuf {
			buf = nil
		}
		inbox, gc, closed := t.route(env.Group)
		if closed {
			return
		}
		if inbox == nil {
			// No inbox registered for this group (not hosted here, or its
			// node already stopped): shed, charged to the envelope's group.
			t.shed.Add(1)
			gc.shed.Add(1)
			continue
		}
		select {
		case inbox <- env.Msg:
			gc.delivered.Add(1)
			continue
		default:
		}
		// Congested inbox: wait a bounded slice — TCP stops reading, the
		// peer backpressures — then shed rather than wedge the reader. The
		// wait stalls this connection only; other peers' connections (and
		// so other nodes' traffic) keep flowing.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(inboxWait)
		select {
		case inbox <- env.Msg:
			gc.delivered.Add(1)
		case <-timer.C:
			t.shed.Add(1)
			gc.shed.Add(1)
		}
	}
}

// wake nudges the sender toward a peer that was just heard from out of its
// dial backoff: a peer that dials in is up, so the sender need not wait out
// a delay that may have grown to seconds while the peer was down. It never
// blocks. A sender that is connected keeps the nudge, which cuts short at
// most one later wait: one early redial.
func (t *TCPTransport) wake(id types.NodeID) {
	t.mu.Lock()
	ps := t.senders[id]
	t.mu.Unlock()
	if ps != nil {
		select {
		case ps.wake <- struct{}{}:
		default:
		}
	}
}

// Send implements raft.Transport for the transport itself: group 0, the
// single-group compatibility path.
func (t *TCPTransport) Send(m raft.Message) { t.send(0, m) }

// send queues one envelope toward m.To: best-effort, never blocking on the
// network. The message is queued to the peer's sender (spawned on first
// use) or dropped with a count if the queue is full.
func (t *TCPTransport) send(g raft.GroupID, m raft.Message) {
	m.From = t.id
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	ps := t.senders[m.To]
	if ps == nil {
		addr, ok := t.peers[m.To]
		if !ok {
			t.mu.Unlock()
			t.drop(g)
			return
		}
		ps = &peerSender{
			t:     t,
			addr:  addr,
			queue: make(chan raft.Envelope, sendQueueSize),
			stop:  make(chan struct{}),
			wake:  make(chan struct{}, 1),
		}
		t.senders[m.To] = ps
		t.wg.Add(1)
		go ps.loop()
	}
	t.mu.Unlock()
	select {
	case ps.queue <- raft.Envelope{Group: g, Msg: m}:
	default:
		t.drop(g)
	}
}

// drop charges one lost outbound envelope to the transport and to its group.
func (t *TCPTransport) drop(g raft.GroupID) {
	t.dropped.Add(1)
	t.group(g).dropped.Add(1)
}

// shutdown stops the sender's loop (idempotent; safe under t.mu).
func (ps *peerSender) shutdown() {
	ps.once.Do(func() { close(ps.stop) })
}

// loop drains the queue, (re)dialing as needed. Dial failures back off
// exponentially with jitter up to a cap, cut short when the peer is heard
// from (wake); while disconnected the queue fills and Send sheds load at the
// enqueue side.
func (ps *peerSender) loop() {
	defer ps.t.wg.Done()
	var conn net.Conn
	var buf []byte            // the frames of one write
	var groups []raft.GroupID // the group of each envelope in buf
	everConnected := false
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// frame lays env into buf as the next frame of the pending write.
	frame := func(env raft.Envelope) {
		mark := len(buf)
		buf = raft.AppendEnvelope(buf, env)
		if int64(len(buf)-mark) > raft.MaxFrameLen {
			buf = buf[:mark] // its length does not fit the prefix
			ps.t.drop(env.Group)
			return
		}
		groups = append(groups, env.Group)
	}
	redial := backoff.New(dialBackoffMin, dialBackoffMax, backoff.NextSeed())
	// One timer for every dial back-off: under go 1.22 a time.After left
	// behind by the stop case stays allocated until it fires.
	retry := time.NewTimer(0)
	<-retry.C
	defer retry.Stop()
	for {
		select {
		case <-ps.stop:
			return
		case env := <-ps.queue:
			for conn == nil {
				c, err := ps.t.nw.Dial("tcp", ps.addr)
				if err == nil {
					conn = c
					redial.Reset()
					if everConnected {
						ps.t.reconnects.Add(1)
					}
					everConnected = true
					break
				}
				retry.Reset(redial.Delay()) // stopped or drained: the only receives are below
				select {
				case <-ps.stop:
					return
				case <-retry.C:
				case <-ps.wake:
					if !retry.Stop() {
						select { // fired meanwhile: drain it for the next Reset
						case <-retry.C:
						default:
						}
					}
				}
			}
			// One write carries env and whatever else is ALREADY queued. The
			// drain never blocks, so a lone envelope leaves exactly as early
			// as it would alone.
			buf, groups = buf[:0], groups[:0]
			frame(env)
		drain:
			for len(buf) < coalesceBytes {
				select {
				case more := <-ps.queue:
					frame(more)
				default:
					break drain
				}
			}
			if _, err := conn.Write(buf); err != nil {
				conn.Close()
				conn = nil
				// Every envelope of the write is lost; the protocol retries.
				for _, g := range groups {
					ps.t.drop(g)
				}
			}
			if cap(buf) > maxRetainedBuf {
				buf = nil
			}
		}
	}
}

// Close shuts the whole multiplexer down: listener, every peer sender, and
// every inbound connection. Per-group endpoints do NOT call this — their
// Close only detaches the group — so it runs once, from whoever owns the
// transport (the host or the serving binary).
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	senders := t.senders
	t.senders = map[types.NodeID]*peerSender{}
	inbound := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	err := t.ln.Close()
	for _, ps := range senders {
		ps.shutdown()
	}
	for _, c := range inbound {
		c.Close() // unblocks the receive goroutines' Decode
	}
	t.wg.Wait()
	return err
}
