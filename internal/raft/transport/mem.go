// Package transport provides message transports for the raft runtime: an
// in-memory network with injectable latency, loss, and partitions (the
// repository's stand-in for the paper's EC2 testbed), which passes messages
// as Go values, and a TCP transport that frames them with raft.AppendEnvelope
// for real deployments.
//
// Both transports are group multiplexers: one link (or socket) per peer
// carries raft.Envelope traffic for every raft group hosted by the process,
// and inbound envelopes are demultiplexed into per-(node, group) inboxes.
// A single-group caller uses group 0.
package transport

import (
	"math/rand"
	"sync"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// epKey addresses one group's inbox on one node.
type epKey struct {
	id    types.NodeID
	group raft.GroupID
}

// MemNetwork is a simulated network connecting in-process raft nodes.
// Messages are delivered asynchronously with configurable latency, jitter,
// and drop probability, and partitions can be imposed and healed at
// runtime. All methods are safe for concurrent use.
//
// The network is a group multiplexer: each (node, group) pair registers its
// own inbox via AttachGroup, while faults (partitions, isolation, loss)
// operate on nodes — a partition severs every group's traffic on the link,
// exactly as cutting one shared socket would.
type MemNetwork struct {
	mu       sync.Mutex
	inboxes  map[epKey]chan<- raft.Message // guarded by mu
	latency  time.Duration                 // guarded by mu
	jitter   time.Duration                 // guarded by mu
	dropRate float64                       // guarded by mu
	blocked  map[[2]types.NodeID]bool      // guarded by mu
	rng      *rand.Rand                    // guarded by mu
	closed   bool                          // guarded by mu

	// sent and dropped count messages for diagnostics, in aggregate and
	// per group. Read them through Counters / GroupCounters.
	sent     uint64                  // guarded by mu
	dropped  uint64                  // guarded by mu
	sentG    map[raft.GroupID]uint64 // guarded by mu
	droppedG map[raft.GroupID]uint64 // guarded by mu
}

// NewMemNetwork creates an empty network with the given base latency and
// jitter (uniform in [latency, latency+jitter)).
func NewMemNetwork(latency, jitter time.Duration, seed int64) *MemNetwork {
	return &MemNetwork{
		inboxes:  make(map[epKey]chan<- raft.Message),
		latency:  latency,
		jitter:   jitter,
		blocked:  make(map[[2]types.NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
		sentG:    make(map[raft.GroupID]uint64),
		droppedG: make(map[raft.GroupID]uint64),
	}
}

// AttachGroup registers the inbox for one raft group on one node and
// returns that group's transport endpoint. The endpoint stamps From and
// Group on every send; closing it detaches only that group's inbox, never
// the shared network.
func (n *MemNetwork) AttachGroup(id types.NodeID, g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.inboxes[epKey{id, g}] = inbox
	return &memEndpoint{net: n, id: id, group: g}
}

// Detach unregisters every group inbox of a node: subsequent messages to it
// are dropped (the node has crashed — all its groups go down together).
// AttachGroup again to restart it.
func (n *MemNetwork) Detach(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for k := range n.inboxes {
		if k.id == id {
			delete(n.inboxes, k)
		}
	}
}

// SetDropRate sets the probability of dropping each message.
func (n *MemNetwork) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropRate = p
}

// Partition blocks all traffic between the two groups (in both
// directions). Traffic within a group still flows.
func (n *MemNetwork) Partition(a, b []types.NodeID) {
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
func (n *MemNetwork) BlockOneWay(a, b types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]types.NodeID{a, b}] = true
}

// Isolate cuts a single node off from everyone else.
func (n *MemNetwork) Isolate(id types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.inboxes {
		if other.id != id {
			n.blocked[[2]types.NodeID{id, other.id}] = true
			n.blocked[[2]types.NodeID{other.id, id}] = true
		}
	}
}

// Heal removes all partitions.
func (n *MemNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[[2]types.NodeID]bool)
}

// Close stops deliveries network-wide.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

// Counters returns the number of messages delivered and dropped so far,
// summed over all groups.
func (n *MemNetwork) Counters() (sent, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.dropped
}

// GroupCounters returns the messages delivered and dropped for one group.
func (n *MemNetwork) GroupCounters(g raft.GroupID) (sent, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sentG[g], n.droppedG[g]
}

// deliver routes one envelope, applying loss, partitions, and latency.
func (n *MemNetwork) deliver(env raft.Envelope) {
	m := env.Msg
	n.mu.Lock()
	if n.closed || n.blocked[[2]types.NodeID{m.From, m.To}] {
		n.dropped++
		n.droppedG[env.Group]++
		n.mu.Unlock()
		return
	}
	if n.dropRate > 0 && n.rng.Float64() < n.dropRate {
		n.dropped++
		n.droppedG[env.Group]++
		n.mu.Unlock()
		return
	}
	inbox, ok := n.inboxes[epKey{m.To, env.Group}]
	if !ok {
		n.dropped++
		n.droppedG[env.Group]++
		n.mu.Unlock()
		return
	}
	delay := n.latency
	if n.jitter > 0 {
		delay += time.Duration(n.rng.Int63n(int64(n.jitter)))
	}
	n.sent++
	n.sentG[env.Group]++
	n.mu.Unlock()

	if delay <= 0 {
		select {
		case inbox <- m:
		default: // full inbox = congested network; drop
		}
		return
	}
	time.AfterFunc(delay, func() {
		n.mu.Lock()
		closed := n.closed
		n.mu.Unlock()
		if closed {
			return
		}
		select {
		case inbox <- m:
		default:
		}
	})
}

// memEndpoint is one (node, group)'s view of the network.
type memEndpoint struct {
	net   *MemNetwork
	id    types.NodeID
	group raft.GroupID
}

// Send implements raft.Transport: stamp the sender and the group, then
// route through the shared network.
func (e *memEndpoint) Send(m raft.Message) {
	m.From = e.id
	e.net.deliver(raft.Envelope{Group: e.group, Msg: m})
}

// Close implements raft.Transport (a no-op: the shared network outlives
// per-group endpoints — a node stopping one group must not sever the
// others' traffic).
func (e *memEndpoint) Close() error { return nil }

// HostTransport adapts a MemNetwork to the multiraft host's transport
// contract: Endpoint(g, inbox) attaches one group of a fixed node. It lets
// multiraft.Host run over the in-memory network without the multiraft
// package importing transport (or vice versa) — the interface match is
// structural.
type HostTransport struct {
	Net *MemNetwork
	ID  types.NodeID
}

// Endpoint registers inbox for group g of the fixed node and returns the
// stamping endpoint.
func (h HostTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	return h.Net.AttachGroup(h.ID, g, inbox)
}
