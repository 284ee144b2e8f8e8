package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// Network is the connection layer a TCPTransport runs on: OSNet in
// production, one node's view of a MemNet in the in-process clusters and
// tests. It holds exactly the two calls the transport makes.
type Network interface {
	Listen(network, addr string) (net.Listener, error)
	Dial(network, addr string) (net.Conn, error)
}

// OSNet is the operating system's network.
var OSNet Network = osNet{}

type osNet struct{}

func (osNet) Listen(network, addr string) (net.Listener, error) { return net.Listen(network, addr) }
func (osNet) Dial(network, addr string) (net.Conn, error)       { return net.Dial(network, addr) }

// streamWrites bounds the writes one direction of a MemNet connection holds,
// in flight or unread, like a socket buffer: a writer that finds it full
// waits for the reader.
const streamWrites = 64

var (
	errRefused    = errors.New("transport: connection refused")
	errReset      = errors.New("transport: connection reset")
	errNoDeadline = errors.New("transport: MemNet connections have no deadlines")
)

// MemNet is an in-memory network with no ports. Listeners are found by name,
// and a connection is a pair of buffered, in-order byte streams. Each node
// reaches the network through its own view (Join starts its transport on
// it), so every connection knows the link it crosses, and the faults act on
// links, beneath the transport:
//
//   - latency and jitter delay each write, in order per stream (a stream
//     never reorders);
//   - a blocked direction discards whole writes; the sender writes whole
//     frames, so framing survives, and a heal needs no redial;
//   - loss resets the connection with probability p per write, which drives
//     the transport's reconnect path.
//
// Dials are never blocked: a partition cuts what a connection carries, not
// whether one opens. All methods are safe for concurrent use.
type MemNet struct {
	latency, jitter time.Duration

	mu        sync.Mutex
	listeners map[string]*memListener  // guarded by mu
	nodes     []types.NodeID           // every node that has had a view; guarded by mu
	blocked   map[[2]types.NodeID]bool // guarded by mu
	dropRate  float64                  // guarded by mu
	rng       *rand.Rand               // guarded by mu
}

// NewMemNet returns an empty network whose writes take latency plus a
// uniform draw in [0, jitter) to arrive.
func NewMemNet(latency, jitter time.Duration, seed int64) *MemNet {
	return &MemNet{latency: latency, jitter: jitter, listeners: make(map[string]*memListener),
		blocked: make(map[[2]types.NodeID]bool), rng: rand.New(rand.NewSource(seed))}
}

// view returns node id's view of the network: what it listens on is owned by
// id, and what it dials opens a link from id.
func (n *MemNet) view(id types.NodeID) Network {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !slices.Contains(n.nodes, id) {
		n.nodes = append(n.nodes, id)
	}
	return memView{n: n, id: id}
}

// Join starts node id's TCPTransport on its view, listening under the node's
// name (its String) and knowing each of peers by theirs; inbox, when not nil,
// is its group-0 inbox.
func (n *MemNet) Join(id types.NodeID, peers []types.NodeID, inbox chan<- raft.Message) (*TCPTransport, error) {
	names := make(map[types.NodeID]string, len(peers))
	for _, p := range peers {
		names[p] = p.String()
	}
	return NewTCPTransportOn(n.view(id), id, id.String(), names, inbox)
}

// SetDropRate sets the probability that a write resets its connection.
func (n *MemNet) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate = p
}

// Partition blocks all traffic between the two groups (in both
// directions). Traffic within a group still flows.
func (n *MemNet) Partition(a, b []types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			n.blocked[[2]types.NodeID{x, y}] = true
			n.blocked[[2]types.NodeID{y, x}] = true
		}
	}
}

// BlockOneWay blocks traffic from a to b only (an asymmetric link fault:
// b still reaches a). One-way faults are the election-disruption worst
// case — a node that can hear the cluster but cannot be heard.
func (n *MemNet) BlockOneWay(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]types.NodeID{a, b}] = true
}

// Isolate cuts a single node off from every other node that has had a view,
// crashed ones included.
func (n *MemNet) Isolate(id types.NodeID) {
	n.mu.Lock()
	nodes := slices.Clone(n.nodes)
	n.mu.Unlock()
	n.Partition([]types.NodeID{id}, nodes) // a node never dials itself
}

// Heal removes all partitions and one-way blocks.
func (n *MemNet) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]types.NodeID]bool)
}

// fate decides one write on link: discarded (blocked), a reset (lost), or
// delivered after delay. The stream is a queue, so a write that draws a
// shorter delay than the one before it still arrives after it.
func (n *MemNet) fate(link [2]types.NodeID) (blocked, reset bool, delay time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.blocked[link] {
		return true, false, 0
	}
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		return false, true, 0
	}
	delay = n.latency
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	return false, false, delay
}

// memView is one node's view of a MemNet.
type memView struct {
	n  *MemNet
	id types.NodeID
}

// Listen registers a listener under addr, owned by the view's node.
func (v memView) Listen(_, addr string) (net.Listener, error) {
	v.n.mu.Lock()
	defer v.n.mu.Unlock()
	if v.n.listeners[addr] != nil {
		return nil, fmt.Errorf("transport: listen %s: address already in use", addr)
	}
	l := &memListener{n: v.n, name: addr, owner: v.id, conns: make(chan net.Conn), done: make(chan struct{})}
	v.n.listeners[addr] = l
	return l, nil
}

// Dial opens a connection to the listener named addr, over the link from the
// view's node to the listener's owner.
func (v memView) Dial(_, addr string) (net.Conn, error) {
	v.n.mu.Lock()
	l := v.n.listeners[addr]
	v.n.mu.Unlock()
	if l != nil {
		up, down, done := make(chan chunk, streamWrites), make(chan chunk, streamWrites), make(chan struct{})
		client := &memConn{n: v.n, link: [2]types.NodeID{v.id, l.owner}, in: down, out: up, done: done, once: new(sync.Once), addr: memAddr(addr)}
		server := *client
		server.link, server.in, server.out = [2]types.NodeID{l.owner, v.id}, up, down
		select {
		case l.conns <- &server:
			return client, nil
		case <-l.done:
		}
	}
	return nil, fmt.Errorf("transport: dial %s: %w", addr, errRefused)
}

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memListener is a named listener; Close frees its name for the next Listen.
type memListener struct {
	n     *MemNet
	name  string
	owner types.NodeID
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Addr() net.Addr { return memAddr(l.name) }

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		l.n.mu.Lock()
		if l.n.listeners[l.name] == l {
			delete(l.n.listeners, l.name)
		}
		l.n.mu.Unlock()
		close(l.done)
	})
	return nil
}

// memConn is one end of a MemNet connection, over link (this end's node, the
// other end's node): it reads in and writes out, each a bounded queue of
// whole writes stamped with the time they arrive. Both ends are addressed by
// the listener's name.
type memConn struct {
	n       *MemNet
	link    [2]types.NodeID
	in, out chan chunk
	done    chan struct{} // shared by both ends: closed by either end's Close or a reset
	once    *sync.Once
	addr    memAddr
	rest    []byte // the unread part of the write being read; the reader's own
}

type chunk struct {
	at   time.Time
	data []byte
}

// Read returns the bytes of the oldest unread write once it has arrived.
func (c *memConn) Read(p []byte) (int, error) {
	for len(c.rest) == 0 {
		select {
		case ch := <-c.in:
			time.Sleep(time.Until(ch.at))
			c.rest = ch.data
		case <-c.done:
			return 0, errReset
		}
	}
	n := copy(p, c.rest)
	c.rest = c.rest[n:]
	return n, nil
}

// Write sends b as one unit: delivered whole after the link's delay,
// discarded whole while the link is blocked, or lost with a reset of the
// whole connection.
func (c *memConn) Write(b []byte) (int, error) {
	blocked, reset, delay := c.n.fate(c.link)
	if reset {
		c.Close()
		return 0, errReset
	}
	if blocked {
		return len(b), nil
	}
	select {
	case c.out <- chunk{at: time.Now().Add(delay), data: append([]byte(nil), b...)}:
		return len(b), nil
	case <-c.done:
		return 0, errReset
	}
}

// Close resets the connection: both ends' reads and writes fail from now
// on, and what is still in flight is lost, as when a crashed node's socket
// goes away.
func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return c.addr }
func (c *memConn) RemoteAddr() net.Addr             { return c.addr }
func (c *memConn) SetDeadline(time.Time) error      { return errNoDeadline }
func (c *memConn) SetReadDeadline(time.Time) error  { return errNoDeadline }
func (c *memConn) SetWriteDeadline(time.Time) error { return errNoDeadline }
