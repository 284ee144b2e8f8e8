package kvstore

import (
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/backoff"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// Sharded is the multi-group replicated store: the keyspace is hash-
// partitioned across independent raft groups (one per shard) multiplexed
// over the cluster's shared transport and tick loop. Each shard is its own
// consensus instance — its own leader, log, snapshots, and dedup table — so
// aggregate write throughput scales with shards while per-key operations
// remain linearizable (cross-key operations spanning shards are NOT
// transactional; Adore-style reconfiguration applies per group).
type Sharded struct {
	Cluster *cluster.Cluster

	// Unbatched, when set before the first request, routes proposals
	// through the synchronous Propose path (one fsync and one broadcast
	// per command) instead of the group-commit ProposeAsync path — the
	// same benchmark baseline Replicated.Unbatched provides, here used to
	// isolate the per-group WAL pipeline the shard sweep parallelizes.
	Unbatched bool

	shards int

	mu     sync.Mutex
	stores map[shardNode]*Store // guarded by mu

	nextClient uint64 // accessed atomically
	retries    uint64 // accessed atomically
	def        *ShardClient
}

// shardNode addresses one shard's state machine on one node.
type shardNode struct {
	g  raft.GroupID
	id types.NodeID
}

// NewSharded starts an n-node cluster hosting `shards` raft groups, each
// applying into its own Store per node. opts.Groups is overridden; the
// caller configures everything else (N, latency, seed, snapshot threshold,
// per-group storage) as usual.
func NewSharded(shards int, opts cluster.Options) *Sharded {
	if shards < 1 {
		shards = 1
	}
	s := &Sharded{shards: shards, stores: make(map[shardNode]*Store)}
	opts.Groups = shards
	opts.OnApplyG = func(g raft.GroupID, id types.NodeID, msg raft.ApplyMsg) {
		s.storeFor(g, id).Apply(msg)
	}
	opts.StateMachineForG = func(g raft.GroupID, id types.NodeID) raft.StateMachine {
		return s.storeFor(g, id)
	}
	s.Cluster = cluster.New(opts)
	s.def = s.NewClient()
	return s
}

// Shards returns the number of keyspace partitions (= raft groups).
func (s *Sharded) Shards() int { return s.shards }

// ShardOf maps a key to its raft group: FNV-1a over the key, mod shards.
// Stable across processes and restarts — the shard map is part of the
// deployment contract, not per-session state.
func (s *Sharded) ShardOf(key string) raft.GroupID { return ShardOf(key, s.shards) }

// ShardOf is the package-level shard map (exported so servers and clients
// compute identical routes).
func ShardOf(key string, shards int) raft.GroupID {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return raft.GroupID(h.Sum32() % uint32(shards))
}

func (s *Sharded) storeFor(g raft.GroupID, id types.NodeID) *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := shardNode{g, id}
	st, ok := s.stores[k]
	if !ok {
		st = NewStore()
		s.stores[k] = st
	}
	return st
}

// Store returns shard g's state machine on the given replica.
func (s *Sharded) Store(g raft.GroupID, id types.NodeID) *Store { return s.storeFor(g, id) }

// Retries mirrors Replicated.Retries for the sharded service.
func (s *Sharded) Retries() uint64 { return atomic.LoadUint64(&s.retries) }

// Stop shuts the service down.
func (s *Sharded) Stop() { s.Cluster.Stop() }

// ShardClient is one logical client session against the sharded store. Its
// request identity is global, but sequence numbers, dedup state, leader
// hints, and backoff jitter are all per shard: each group's dedup table is
// its own state machine, so the "at most one outstanding request per
// client" contract holds independently per shard — one session may run
// concurrent requests as long as they target different shards.
type ShardClient struct {
	s  *Sharded
	id uint64

	mu    sync.Mutex
	seqs  map[raft.GroupID]uint64           // guarded by mu — per-shard sequence domains
	hints map[raft.GroupID]types.NodeID     // guarded by mu — cached leader per shard
	bos   map[raft.GroupID]*backoff.Backoff // guarded by mu — per-shard jitter streams
}

// NewClient mints a fresh client session for the sharded store.
func (s *Sharded) NewClient() *ShardClient {
	return &ShardClient{
		s:     s,
		id:    atomic.AddUint64(&s.nextClient, 1),
		seqs:  make(map[raft.GroupID]uint64),
		hints: make(map[raft.GroupID]types.NodeID),
		bos:   make(map[raft.GroupID]*backoff.Backoff),
	}
}

// nextSeq advances shard g's sequence counter for this session.
func (c *ShardClient) nextSeq(g raft.GroupID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs[g]++
	return c.seqs[g]
}

// backoffFor returns shard g's jitter stream, seeding it on first use.
func (c *ShardClient) backoffFor(g raft.GroupID) *backoff.Backoff {
	c.mu.Lock()
	defer c.mu.Unlock()
	bo := c.bos[g]
	if bo == nil {
		bo = backoff.New(backoffInitial, backoffMax, backoff.NextSeed())
		c.bos[g] = bo
	}
	return bo
}

// leaderFor resolves shard g's leader, trying the cached hint first (an
// O(1) Status check) before falling back to scanning the group. A fresh
// answer refreshes the hint.
func (c *ShardClient) leaderFor(g raft.GroupID) *raft.Node {
	c.mu.Lock()
	hint, ok := c.hints[g]
	c.mu.Unlock()
	if ok {
		if n := c.s.Cluster.NodeG(g, hint); n != nil {
			if _, role, _ := n.Status(); role == raft.Leader {
				return n
			}
		}
		c.dropHint(g)
	}
	n := c.s.Cluster.LeaderG(g)
	if n != nil {
		c.mu.Lock()
		c.hints[g] = n.ID()
		c.mu.Unlock()
	}
	return n
}

func (c *ShardClient) dropHint(g raft.GroupID) {
	c.mu.Lock()
	delete(c.hints, g)
	c.mu.Unlock()
}

// Do routes the command to its key's shard and runs the same retry protocol
// as Client.Do, scoped to that group: probe the shard's leader (hint
// first), propose, wait a bounded slice for the shard-local apply, and back
// off on failure with this shard's private jitter stream. ErrLeaderStepdown
// drops the hint and re-probes immediately; retries reuse the same
// (client, shard-seq) pair so the shard's dedup table absorbs duplicates.
func (c *ShardClient) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	s := c.s
	g := s.ShardOf(key)
	seq := c.nextSeq(g)
	cmd := Command{Op: op, Key: key, Value: value, Old: old, Client: c.id, Seq: seq}
	payload := cmd.Encode()
	deadline := time.Now().Add(timeout)
	bo := c.backoffFor(g)
	bo.Reset()
	for time.Now().Before(deadline) {
		leader := c.leaderFor(g)
		if leader == nil {
			atomic.AddUint64(&s.retries, 1)
			bo.Sleep(deadline)
			continue
		}
		var idx int
		var err error
		if s.Unbatched {
			idx, _, err = leader.Propose(payload)
		} else {
			idx, _, err = leader.ProposeAsync(payload).Wait()
		}
		if err != nil {
			c.dropHint(g)
			if errors.Is(err, raft.ErrLeaderStepdown) {
				// The shard's leader stepped down; its successor is likely
				// already up. Re-probe immediately.
				atomic.AddUint64(&s.retries, 1)
				bo.Reset()
				continue
			}
			atomic.AddUint64(&s.retries, 1)
			bo.Sleep(deadline)
			continue
		}
		bo.Reset()
		ch := s.storeFor(g, leader.ID()).wait(idx, cmd.Client, cmd.Seq)
		attempt := 300 * time.Millisecond
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		select {
		case wr := <-ch:
			if wr.mine {
				return wr.res, nil
			}
			// A different entry landed at our index: shard leadership
			// changed. Loop and retry.
		case <-time.After(attempt):
			// Possibly a deposed leader that will never commit our index;
			// re-probe (dedup makes the retry idempotent).
		}
	}
	return Result{}, ErrTimeout
}

// Do routes one command on the service's default session.
func (s *Sharded) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	return s.def.Do(op, key, value, old, timeout)
}

// Put sets key to value on its shard.
func (s *Sharded) Put(key, value string, timeout time.Duration) error {
	_, err := s.Do(OpPut, key, value, "", timeout)
	return err
}

// Get reads key linearizably through its shard's log.
func (s *Sharded) Get(key string, timeout time.Duration) (string, bool, error) {
	res, err := s.Do(OpGet, key, "", "", timeout)
	return res.Value, res.Found, err
}

// Delete removes key from its shard, reporting whether it existed.
func (s *Sharded) Delete(key string, timeout time.Duration) (bool, error) {
	res, err := s.Do(OpDelete, key, "", "", timeout)
	return res.Found, err
}

// CAS sets key to value iff its current value is old (shard-local atomicity).
func (s *Sharded) CAS(key, old, value string, timeout time.Duration) (bool, error) {
	res, err := s.Do(OpCAS, key, value, old, timeout)
	return res.Swapped, err
}

// Append appends value to key's current value and returns the new value.
func (s *Sharded) Append(key, value string, timeout time.Duration) (string, error) {
	res, err := s.Do(OpAppend, key, value, "", timeout)
	return res.Value, err
}

// FastGet reads key linearizably without a log write through its shard's
// leader-ReadIndex path (see Replicated.FastGet; here scoped to the key's
// group).
func (c *ShardClient) FastGet(key string, timeout time.Duration) (string, bool, error) {
	return c.FastGetMode(key, ReadModeReadIndex, timeout)
}

// FastGetMode is FastGet with an explicit read path, routed to the key's
// shard: leader ReadIndex barrier, leader lease (barrier fallback), or
// follower-served (forwarded barrier against one of the shard's
// followers).
func (c *ShardClient) FastGetMode(key string, mode ReadMode, timeout time.Duration) (string, bool, error) {
	s := c.s
	g := s.ShardOf(key)
	deadline := time.Now().Add(timeout)
	bo := c.backoffFor(g)
	bo.Reset()
	var rotate uint64
	for time.Now().Before(deadline) {
		attempt := 300 * time.Millisecond
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		var (
			idx int
			err error
			st  *Store
		)
		switch mode {
		case ReadModeFollower:
			n := c.pickFollower(g, &rotate)
			if n == nil {
				atomic.AddUint64(&s.retries, 1)
				bo.Sleep(deadline)
				continue
			}
			idx, err = n.FollowerReadIndex(attempt)
			st = s.storeFor(g, n.ID())
		default:
			leader := c.leaderFor(g)
			if leader == nil {
				atomic.AddUint64(&s.retries, 1)
				bo.Sleep(deadline)
				continue
			}
			if mode == ReadModeLease {
				if i, ok := leader.LeaseRead(); ok {
					idx = i
				} else {
					idx, err = leader.ReadIndex(attempt)
				}
			} else {
				idx, err = leader.ReadIndex(attempt)
			}
			st = s.storeFor(g, leader.ID())
		}
		if err != nil {
			c.dropHint(g)
			if errors.Is(err, raft.ErrLeaderStepdown) {
				// Shard leader stepped down mid-read; re-probe immediately
				// (same policy as Do).
				atomic.AddUint64(&s.retries, 1)
				bo.Reset()
				continue
			}
			atomic.AddUint64(&s.retries, 1)
			bo.Sleep(deadline)
			continue
		}
		bo.Reset()
		if !st.WaitApplied(idx, deadline) {
			return "", false, ErrTimeout
		}
		v, ok := st.LocalGet(key)
		return v, ok, nil
	}
	return "", false, ErrTimeout
}

// pickFollower returns a non-leader node of shard g, rotating across the
// candidates (any node when the shard has no follower).
func (c *ShardClient) pickFollower(g raft.GroupID, rotate *uint64) *raft.Node {
	nodes := c.s.Cluster.NodesG(g)
	if len(nodes) == 0 {
		return nil
	}
	var followers []*raft.Node
	for _, n := range nodes {
		if _, role, _ := n.Status(); role != raft.Leader {
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

// FastGet reads through the service's default session.
func (s *Sharded) FastGet(key string, timeout time.Duration) (string, bool, error) {
	return s.def.FastGet(key, timeout)
}

// FastGetMode reads through the service's default session in the given mode.
func (s *Sharded) FastGetMode(key string, mode ReadMode, timeout time.Duration) (string, bool, error) {
	return s.def.FastGetMode(key, mode, timeout)
}
