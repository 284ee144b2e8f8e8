package kvstore

import (
	"errors"
	"hash/fnv"
	"slices"
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

// NewReplicated starts an opts.N-node replicated store over an in-memory
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

// Client is one logical client session. Its request identity is global, but
// sequence numbers, leader hints and backoff jitter are all per shard: each
// group's dedup table is its own state machine and assumes at most one
// outstanding request per client ID (Seq numbers commit in order). So a
// session may run concurrent requests only when they target different
// shards, and every concurrently-operating caller of one shard must hold its
// own Client: two goroutines sharing an ID can commit out of sequence order,
// and the dedup table would swallow the later-committing request as a stale
// duplicate.
//
// The request logic is the shard's Session; Client is its live shell, which
// carries out each step on the addressed replica and sleeps and waits on
// wall-clock timers.
type Client struct {
	r      *Replicated
	id     uint64
	shards []*Session // indexed by GroupID
}

// NewClient mints a fresh client session.
func (r *Replicated) NewClient() *Client {
	c := &Client{r: r, id: atomic.AddUint64(&r.nextClient, 1), shards: make([]*Session, r.shards)}
	for g := range c.shards {
		c.shards[g] = NewSession(c.id, backoff.NextSeed())
	}
	return c
}

// replicas lists every node the service has started, in ID order: the
// rotation a session falls back on when it has no leader hint.
func (r *Replicated) replicas() []types.NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]types.NodeID, 0, len(r.servers))
	for id := range r.servers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Do routes the command to its key's shard and runs it through the log,
// retrying across leader changes until the timeout. Retries reuse the same
// (client, shard-seq) pair, so a request that committed but lost its ack is
// answered from the shard's dedup table instead of applying twice.
func (c *Client) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	g := c.r.ShardOf(key)
	return c.run(g, key, c.shards[g].Write(0, Command{Op: op, Key: key, Value: value, Old: old}, timeout, c.r.replicas()))
}

// run carries out the shard session's steps until the operation is done, on
// the wall clock from the operation's start. Replica.Write and Replica.Read
// carry out a propose or read step together with the wait that follows it,
// up to the step's Until; the node a crashed replica left behind is stopped,
// and refuses.
func (c *Client) run(g raft.GroupID, key string, st Step) (Result, error) {
	s, start := c.shards[g], time.Now()
	retries := s.Retries()
	defer func() { atomic.AddUint64(&c.r.retries, s.Retries()-retries) }()
	for st.Kind != StepDone {
		if st.Kind == StepSleep {
			time.Sleep(st.Until - time.Since(start))
			st = s.Tick(time.Since(start))
			continue
		}
		c.r.mu.Lock()
		rep := c.r.servers[st.Node].Replica(key)
		c.r.mu.Unlock()
		var res Result
		var err error
		if st.Kind == StepPropose {
			res, err = rep.Write(st.Cmd, st.Until-time.Since(start))
		} else {
			res.Value, res.Found, err = rep.Read(key, st.Until-time.Since(start))
		}
		switch {
		case errors.Is(err, ErrTimeout):
			st = s.Tick(s.Answered(time.Since(start), 0, nil).Until)
		case err == nil, errors.Is(err, ErrNotApplied):
			s.Answered(time.Since(start), 0, nil)
			st = s.Applied(time.Since(start), res, err == nil)
		default:
			st = s.Answered(time.Since(start), 0, err)
		}
	}
	return st.Result, st.Err
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
// index within an attempt slice, retry like Do's until the timeout.
func (c *Client) FastGetMode(key string, mode ReadMode, timeout time.Duration) (string, bool, error) {
	g := c.r.ShardOf(key)
	res, err := c.run(g, key, c.shards[g].Read(0, mode, timeout, c.r.replicas()))
	return res.Value, res.Found, err
}
