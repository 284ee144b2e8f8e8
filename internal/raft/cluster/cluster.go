// Package cluster assembles in-process raft clusters — the harness used by
// the integration tests, the examples and the chaos runner. Every node is a
// multiraft.Host on its own transport.TCPTransport, the transport that ships,
// and the transports meet on one transport.MemNet, the in-memory network that
// carries the faults (Cluster.Net).
//
// With Options.Groups > 1 every host runs that many independent raft groups
// multiplexed over its one transport. The per-group surface (Leader, Propose,
// WaitCommit, …) lives once, on GroupView; Cluster embeds group 0's view, so
// single-group callers write c.Leader() and multi-group callers
// c.Group(g).Leader().
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"adore/internal/backoff"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// Options configures a cluster.
type Options struct {
	// N is the initial cluster size (members S1..SN).
	N int
	// Groups is how many raft groups each node hosts (0 or 1 = one). All
	// groups start with the same membership and diverge through their own
	// reconfigurations.
	Groups int
	// Latency/Jitter delay each write on the in-memory network, in order per
	// connection.
	Latency time.Duration
	Jitter  time.Duration
	// ElectionTimeoutMin scales all protocol timers (0 = default).
	ElectionTimeoutMin time.Duration
	// Ablation switches protocol guards off on every node (the chaos harness
	// and the teeth tests prove the oracles catch what each one lets through).
	raft.Ablation
	// Seed drives all randomness.
	Seed int64
	// StorageFor, when set, supplies per-(group, node) persistent storage,
	// which makes CrashNode/RestartNode meaningful (state survives).
	StorageFor func(raft.GroupID, types.NodeID) raft.Storage
	// Start launches every node's host, at each start and restart (nil =
	// multiraft.Start); kvstore.StartServer wraps the host with its Stores.
	Start func(multiraft.Options) (*multiraft.Host, error)
	// SnapshotThreshold enables log compaction: after this many applied
	// entries above the snapshot base a node captures its state machine
	// and truncates its WAL (0 = disabled).
	SnapshotThreshold int
	// InboxSize is the per-(node, group) transport inbox capacity
	// (0 = 4096). Small values exercise loss: the transport waits a bounded
	// slice on a full inbox, then sheds, and retransmission has to make up
	// for it.
	InboxSize int
}

// groups returns the effective group count.
func (o *Options) groups() int {
	if o.Groups <= 0 {
		return 1
	}
	return o.Groups
}

// gkey addresses one group's stream on one node.
type gkey struct {
	g  raft.GroupID
	id types.NodeID
}

// Cluster is a set of multiraft hosts, each on its own TCPTransport, joined
// by a MemNet.
type Cluster struct {
	GroupView // group 0

	Net  *transport.MemNet
	opts Options

	mu      sync.Mutex
	hosts   map[types.NodeID]*multiraft.Host         // guarded by mu
	trs     map[types.NodeID]*transport.TCPTransport // guarded by mu
	ids     []types.NodeID                           // every node ever started; guarded by mu
	applied map[gkey][]raft.ApplyMsg                 // guarded by mu
}

// New starts a cluster of opts.N nodes and returns it.
func New(opts Options) *Cluster {
	if opts.N <= 0 {
		opts.N = 3
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Start == nil {
		opts.Start = multiraft.Start
	}
	c := &Cluster{
		Net:     transport.NewMemNet(opts.Latency, opts.Jitter, opts.Seed),
		opts:    opts,
		hosts:   make(map[types.NodeID]*multiraft.Host),
		trs:     make(map[types.NodeID]*transport.TCPTransport),
		applied: make(map[gkey][]raft.ApplyMsg),
	}
	c.GroupView = c.Group(0)
	members := types.Range(1, types.NodeID(opts.N)).Copy()
	for _, id := range members {
		c.StartNode(id, members)
	}
	return c
}

// StartNode launches (or restarts) a node — a host running every group —
// with the given initial membership, on a transport that listens under the
// node's name. It returns the node's group-0 raft instance (the single-group
// API).
func (c *Cluster) StartNode(id types.NodeID, members []types.NodeID) *raft.Node {
	tr := c.join(id)
	host, err := c.opts.Start(multiraft.Options{
		ID:                 id,
		Members:            members,
		Groups:             c.opts.groups(),
		Transport:          tr,
		ElectionTimeoutMin: c.opts.ElectionTimeoutMin,
		StorageFor: func(g raft.GroupID) raft.Storage {
			if c.opts.StorageFor == nil {
				return nil
			}
			return c.opts.StorageFor(g, id)
		},
		OnApply: func(g raft.GroupID, batch []raft.ApplyMsg) {
			c.record(g, id, batch)
		},
		SnapshotThreshold: c.opts.SnapshotThreshold,
		Ablation:          c.opts.Ablation,
		Seed:              c.opts.Seed + int64(id),
		InboxSize:         c.opts.InboxSize,
	})
	if err != nil {
		// Only file storage opened from a root can fail, and the cluster
		// harness always routes through StorageFor — unreachable.
		panic(fmt.Sprintf("cluster: start node %s: %v", id, err))
	}
	c.mu.Lock()
	c.hosts[id] = host
	c.mu.Unlock()
	return host.Node(0)
}

// join starts node id's transport on the network, knowing every node started
// so far; a node new to the cluster becomes a peer of every running one.
func (c *Cluster) join(id types.NodeID) *transport.TCPTransport {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.Contains(c.ids, id) {
		c.ids = append(c.ids, id)
		for _, tr := range c.trs {
			tr.SetPeer(id, id.String())
		}
	}
	tr, err := c.Net.Join(id, c.ids, nil)
	if err != nil {
		// The name is free: CrashNode closed the last incarnation's listener.
		panic(fmt.Sprintf("cluster: start node %s: %v", id, err))
	}
	c.trs[id] = tr
	return tr
}

// record captures one group's apply batch.
func (c *Cluster) record(g raft.GroupID, id types.NodeID, batch []raft.ApplyMsg) {
	k := gkey{g, id}
	c.mu.Lock()
	c.applied[k] = append(c.applied[k], batch...)
	c.mu.Unlock()
}

// Host returns the multiraft host for the given node (nil if crashed).
func (c *Cluster) Host(id types.NodeID) *multiraft.Host {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hosts[id]
}

// GroupView is one raft group's surface of the cluster: its nodes, its
// leader, its applied record, and the retrying propose / reconfigure /
// wait helpers. Groups elect, commit and reconfigure independently.
type GroupView struct {
	c *Cluster
	g raft.GroupID
}

// Group returns group g's view.
func (c *Cluster) Group(g raft.GroupID) GroupView { return GroupView{c: c, g: g} }

// Node returns the group's node with the given ID (nil if absent).
func (v GroupView) Node(id types.NodeID) *raft.Node {
	h := v.c.Host(id)
	if h == nil {
		return nil
	}
	return h.Node(v.g)
}

// Nodes returns a snapshot of all the group's running nodes.
func (v GroupView) Nodes() []*raft.Node {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	out := make([]*raft.Node, 0, len(v.c.hosts))
	for _, h := range v.c.hosts {
		if n := h.Node(v.g); n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Applied returns a copy of the entries a node has applied in the group.
func (v GroupView) Applied(id types.NodeID) []raft.ApplyMsg {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	return append([]raft.ApplyMsg(nil), v.c.applied[gkey{v.g, id}]...)
}

// ErrNoLeader reports that no leader emerged within the deadline.
var ErrNoLeader = errors.New("cluster: no leader elected within the deadline")

// WaitForLeader blocks until some node leads the group and returns its ID.
func (v GroupView) WaitForLeader(timeout time.Duration) (types.NodeID, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := v.Leader(); l != nil {
			return l.ID(), nil
		}
		time.Sleep(time.Millisecond)
	}
	return types.NoNode, ErrNoLeader
}

// Leader returns the group's leader at the highest term, or nil. (During
// partitions a deposed leader may still believe in itself; the highest
// term wins.)
func (v GroupView) Leader() *raft.Node {
	var best *raft.Node
	var bestTerm types.Time
	for _, n := range v.Nodes() {
		if s := n.Snapshot(); s.Role == raft.Leader && (best == nil || s.Term > bestTerm) {
			best, bestTerm = n, s.Term
		}
	}
	return best
}

// Propose submits a command via the group's current leader, retrying across
// leader changes until the deadline. It returns the index the command was
// proposed at (commitment is observed via WaitCommit or the KV layer).
func (v GroupView) Propose(cmd []byte, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := v.Leader(); l != nil {
			if idx, _, err := l.ProposeAsync(cmd).Wait(); err == nil {
				return idx, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("cluster: propose timed out")
}

// WaitCommit blocks until the given node's commit index in the group
// reaches idx AND the entries up to idx have landed in the cluster's applied
// record. The second condition closes the gap between the node advancing
// its commit index and its apply goroutine handing the batch to OnApply;
// without it a caller could read Applied() before the batch is recorded.
//
// The poll uses the same capped jittered backoff helper as the kvstore
// client (internal/backoff, the single definition): commits that land in
// microseconds are seen after a sub-millisecond first slice, while a
// genuinely stalled cluster is polled a handful of times per interval
// instead of once per fixed millisecond.
func (v GroupView) WaitCommit(id types.NodeID, idx int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	bo := backoff.New(200*time.Microsecond, 10*time.Millisecond, backoff.NextSeed())
	for time.Now().Before(deadline) {
		if n := v.Node(id); n != nil && n.Snapshot().CommitIndex >= idx && v.appliedThrough(id) >= idx {
			return nil
		}
		bo.Sleep(deadline)
	}
	return fmt.Errorf("cluster: %s did not reach commit index %d in group %d", id, idx, v.g)
}

// appliedThrough reports the highest index in the node's recorded apply
// stream for the group (0 if nothing has been recorded).
func (v GroupView) appliedThrough(id types.NodeID) int {
	v.c.mu.Lock()
	defer v.c.mu.Unlock()
	if a := v.c.applied[gkey{v.g, id}]; len(a) > 0 {
		return a[len(a)-1].Index
	}
	return 0
}

// Reconfigure retries a membership change of the group against whoever
// leads until it is accepted (R3 needs the term-opening no-op to commit
// first) and returns the config entry's index. When the new membership
// sheds the current leader, the leader's ProposeConfig hands off to the most
// caught-up surviving voter and refuses; the retry proposes the change at
// the successor.
func (v GroupView) Reconfigure(members types.NodeSet, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		if l := v.Leader(); l != nil {
			idx, _, err := l.ProposeConfig(members)
			if err == nil {
				return idx, nil
			}
			lastErr = err
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("cluster: reconfigure timed out (last error: %v)", lastErr)
}

// CrashNode stops a node abruptly — every group it hosts — and closes its
// transport, so its peers' connections to it fail; its volatile state is
// lost. With Options.StorageFor set, RestartNode recovers the persisted
// term, vote, and log per group.
func (c *Cluster) CrashNode(id types.NodeID) {
	c.mu.Lock()
	h, tr := c.hosts[id], c.trs[id]
	delete(c.hosts, id)
	delete(c.trs, id)
	c.mu.Unlock()
	if tr != nil {
		tr.Close()
	}
	if h != nil {
		h.Stop()
	}
}

// RestartNode relaunches a previously crashed node with the given initial
// membership (its persisted log's configuration entries take precedence).
// It listens again under the same name; its peers redial it through their
// transports' backoff.
func (c *Cluster) RestartNode(id types.NodeID, members []types.NodeID) *raft.Node {
	return c.StartNode(id, members)
}

// Stop shuts down every node and its transport.
func (c *Cluster) Stop() {
	c.mu.Lock()
	ids := slices.Clone(c.ids)
	c.mu.Unlock()
	for _, id := range ids {
		c.CrashNode(id)
	}
}
