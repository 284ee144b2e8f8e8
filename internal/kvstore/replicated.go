package kvstore

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/backoff"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// Replicated is a complete in-process replicated key-value service: a Server
// per node of a raft cluster, and a linearizable client interface. The
// keyspace is hash-partitioned over cluster.Options.Groups raft groups (one by
// default) multiplexed over the cluster's shared transport and tick loop.
// Each shard is its own consensus instance — its own leader, log,
// snapshots and dedup table — so aggregate write throughput scales with
// shards while per-key operations remain linearizable (operations spanning
// shards are NOT transactional; reconfiguration applies per group).
//
// The embedded Client is the service's default session: r.Put, r.Get,
// r.FastGet … run on it. Callers issuing requests from several goroutines
// mint a Client each (NewClient).
type Replicated struct {
	*Client

	Cluster *cluster.Cluster

	shards int

	mu      sync.Mutex
	servers map[types.NodeID]*Server // each node's latest incarnation; guarded by mu

	nextClient uint64 // accessed atomically
	retries    uint64 // accessed atomically
}

// NewReplicated starts an opts.N-node replicated store over a simulated
// network, one shard per raft group (opts.Groups; 0 = 1). The caller
// configures everything else (latency, seed, snapshot threshold, storage)
// as usual; every node the cluster starts or restarts is a fresh Server.
func NewReplicated(opts cluster.Options) *Replicated {
	r := &Replicated{
		shards:  max(opts.Groups, 1),
		servers: make(map[types.NodeID]*Server),
	}
	opts.Start = func(o multiraft.Options) (*multiraft.Host, error) {
		s, err := StartServer(o)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.servers[o.ID] = s
		r.mu.Unlock()
		return s.Host, nil
	}
	r.Cluster = cluster.New(opts)
	r.Client = r.NewClient()
	return r
}

// ShardOf maps a key to its raft group.
func (r *Replicated) ShardOf(key string) raft.GroupID { return ShardOf(key, r.shards) }

// ShardOf is the shard map: FNV-1a over the key, mod shards. Stable across
// processes and restarts — it is part of the deployment contract, not
// per-session state — and exported so servers and clients compute identical
// routes.
func ShardOf(key string, shards int) raft.GroupID {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return raft.GroupID(h.Sum32() % uint32(shards))
}

// Store returns shard g's state machine on the given replica's latest start
// (a restart replays storage into a fresh one). The node must have started.
func (r *Replicated) Store(g raft.GroupID, id types.NodeID) *Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.servers[id].stores[g]
}

// Retries reports how many request attempts across all clients found no
// leader or had their proposal rejected and had to back off and re-probe.
// A healthy cluster keeps this near zero; tests use it to bound how hard
// clients hammer a leaderless cluster.
func (r *Replicated) Retries() uint64 { return atomic.LoadUint64(&r.retries) }

// Stop shuts the service down.
func (r *Replicated) Stop() { r.Cluster.Stop() }

// Leader-probe backoff. A fixed 1ms spin between probes is harmless for a
// brief leader change but burns a core per client during a real outage
// (election storm, quorum loss): clients wake a thousand times a second to
// learn nothing. Failed probes instead back off exponentially from
// backoffInitial to backoffMax with ±50% jitter, capped by the request
// deadline, via the shared internal/backoff helper. Progress — a proposal
// accepted, or a leader's explicit ErrLeaderStepdown redirect — resets the
// backoff to keep the fast path fast.
//
// Each session carries its own independently seeded jitter stream per shard:
// clients drawing from one shared random source would march through the same
// jitter sequence and re-probe in near-lockstep after a step-down, which
// is exactly the herd the jitter is meant to disperse.
const (
	backoffInitial = time.Millisecond
	backoffMax     = 40 * time.Millisecond

	// attemptSlice bounds one wait on a leader: a deposed leader never
	// commits our index (or confirms our barrier), so block briefly and
	// re-probe for the real one.
	attemptSlice = 300 * time.Millisecond
)

// Client is one logical client session. Its request identity is global, but
// sequence numbers, leader hints and backoff jitter are all per shard: each
// group's dedup table is its own state machine and assumes at most one
// outstanding request per client ID (Seq numbers commit in order). So a
// session may run concurrent requests only when they target different
// shards, and every concurrently-operating caller of one shard must hold its
// own Client: two goroutines sharing an ID can commit out of sequence order,
// and the dedup table would swallow the later-committing request as a stale
// duplicate.
type Client struct {
	r      *Replicated
	id     uint64
	shards []shardSession // indexed by GroupID
}

// shardSession is a session's state against one shard; only the one request
// outstanding on that shard touches it.
type shardSession struct {
	seq  uint64
	hint types.NodeID     // cached leader (NoNode = unknown)
	bo   *backoff.Backoff // this (session, shard)'s private jitter stream
}

// NewClient mints a fresh client session.
func (r *Replicated) NewClient() *Client {
	c := &Client{r: r, id: atomic.AddUint64(&r.nextClient, 1), shards: make([]shardSession, r.shards)}
	for g := range c.shards {
		c.shards[g].bo = backoff.New(backoffInitial, backoffMax, backoff.NextSeed())
	}
	return c
}

// leader resolves the shard's leader, trying the cached hint first (one
// Snapshot) before falling back to scanning the group. A fresh answer
// refreshes the hint.
func (s *shardSession) leader(gv cluster.GroupView) *raft.Node {
	if s.hint != types.NoNode {
		if n := gv.Node(s.hint); n != nil && n.Snapshot().Role == raft.Leader {
			return n
		}
		s.hint = types.NoNode
	}
	n := gv.Leader()
	if n != nil {
		s.hint = n.ID()
	}
	return n
}

// retry records one failed attempt against the shard. An ErrLeaderStepdown
// means the leader told us it stepped down (CheckQuorum or a transfer) and
// its successor is likely already up: re-probe immediately. Anything else
// waits out a jittered backoff slice.
func (c *Client) retry(s *shardSession, err error, deadline time.Time) {
	atomic.AddUint64(&c.r.retries, 1)
	s.hint = types.NoNode
	if errors.Is(err, raft.ErrLeaderStepdown) {
		s.bo.Reset()
		return
	}
	s.bo.Sleep(deadline)
}

// Do routes the command to its key's shard, submits it through that shard's
// leader and waits for it to apply, retrying across leader changes until the
// deadline. Retries reuse the same (client, shard-seq) pair, so a request
// that committed but lost its ack is answered from the shard's dedup table
// instead of applying twice.
func (c *Client) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	g := c.r.ShardOf(key)
	gv := c.r.Cluster.Group(g)
	s := &c.shards[g]
	s.seq++
	cmd := Command{Op: op, Key: key, Value: value, Old: old, Client: c.id, Seq: s.seq}
	deadline := time.Now().Add(timeout)
	s.bo.Reset()
	for time.Now().Before(deadline) {
		leader := s.leader(gv)
		if leader == nil {
			c.retry(s, nil, deadline)
			continue
		}
		res, err := Replica{Node: leader, Store: c.r.Store(g, leader.ID())}.Write(cmd, min(attemptSlice, time.Until(deadline)))
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, ErrNotApplied), errors.Is(err, ErrTimeout):
			// Leadership changed, or a deposed leader may never commit our
			// index: re-probe at once (the dedup table keeps it idempotent).
			s.bo.Reset()
			s.hint = types.NoNode
		default:
			c.retry(s, err, deadline)
		}
	}
	return Result{}, ErrTimeout
}

// Put sets key to value.
func (c *Client) Put(key, value string, timeout time.Duration) error {
	_, err := c.Do(OpPut, key, value, "", timeout)
	return err
}

// Get reads key linearizably (through its shard's log).
func (c *Client) Get(key string, timeout time.Duration) (string, bool, error) {
	res, err := c.Do(OpGet, key, "", "", timeout)
	return res.Value, res.Found, err
}

// Delete removes key, reporting whether it existed.
func (c *Client) Delete(key string, timeout time.Duration) (bool, error) {
	res, err := c.Do(OpDelete, key, "", "", timeout)
	return res.Found, err
}

// CAS sets key to value iff its current value is old.
func (c *Client) CAS(key, old, value string, timeout time.Duration) (bool, error) {
	res, err := c.Do(OpCAS, key, value, old, timeout)
	return res.Swapped, err
}

// Append appends value to key's current value and returns the new value.
func (c *Client) Append(key, value string, timeout time.Duration) (string, error) {
	res, err := c.Do(OpAppend, key, value, "", timeout)
	return res.Value, err
}

// FastGet reads key linearizably WITHOUT a log write, served at the key's
// shard leader: the leader answers the read index from its lease or through a
// quorum barrier (coalesced with concurrent reads in the core), the local
// state machine catches up to that index, and the read is served from memory.
func (c *Client) FastGet(key string, timeout time.Duration) (string, bool, error) {
	return c.FastGetMode(key, ReadModeLeader, timeout)
}

// FastGetMode is FastGet at an explicit replica, routed to the key's shard:
// the leader, or a follower that forwards the read and serves it from its own
// state machine. Failures, and a replica that does not apply through the read
// index within an attempt slice, retry like Do's until the deadline.
func (c *Client) FastGetMode(key string, mode ReadMode, timeout time.Duration) (string, bool, error) {
	g := c.r.ShardOf(key)
	gv := c.r.Cluster.Group(g)
	s := &c.shards[g]
	deadline := time.Now().Add(timeout)
	s.bo.Reset()
	var rotate uint64
	for time.Now().Before(deadline) {
		var n *raft.Node
		if mode == ReadModeFollower {
			n = pickFollower(gv, &rotate)
		} else {
			n = s.leader(gv)
		}
		if n == nil {
			c.retry(s, nil, deadline)
			continue
		}
		v, found, err := Replica{Node: n, Store: c.r.Store(g, n.ID())}.Read(key, min(attemptSlice, time.Until(deadline)))
		if err != nil {
			c.retry(s, err, deadline)
			continue
		}
		return v, found, nil
	}
	return "", false, ErrTimeout
}

// pickFollower returns a non-leader node of the group to serve a forwarded
// read, rotating across candidates so retries spread over the replica set.
// Falls back to any node (including the leader, which serves the forwarded
// barrier locally) when no follower is available.
func pickFollower(gv cluster.GroupView, rotate *uint64) *raft.Node {
	nodes := gv.Nodes()
	if len(nodes) == 0 {
		return nil
	}
	var followers []*raft.Node
	for _, n := range nodes {
		if n.Snapshot().Role != raft.Leader {
			followers = append(followers, n)
		}
	}
	pool := followers
	if len(pool) == 0 {
		pool = nodes
	}
	*rotate++
	return pool[int(*rotate)%len(pool)]
}
