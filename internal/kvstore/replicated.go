package kvstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/backoff"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// Replicated is a complete in-process replicated key-value service: a raft
// cluster with one Store per node and a linearizable client interface. It
// is the harness behind the kvstore example and the Fig. 16 benchmark.
type Replicated struct {
	Cluster *cluster.Cluster

	// Unbatched, when set before the first request, routes proposals
	// through the synchronous Propose path (one fsync and one broadcast
	// per command) instead of the group-commit ProposeAsync path. It
	// exists so benchmarks can measure batching against the naive
	// baseline; leave it false in real use.
	Unbatched bool

	// ReadServeCost, when set before the first request, charges every
	// FastGet the read-execution cost (state-machine lookup, response
	// serialization) on the replica that served it, serialized per
	// replica — one CPU's worth of read work per node. Like the
	// benchmark's delayStorage, only the wait is simulated; the
	// serialization it models (a replica executes its reads one at a
	// time) is the architecture under test. It exists so read-path
	// benchmarks can measure how follower-served reads distribute load
	// across the replica set; leave it zero in real use.
	ReadServeCost time.Duration

	mu      sync.Mutex
	stores  map[types.NodeID]*Store      // guarded by mu
	serveMu map[types.NodeID]*sync.Mutex // guarded by mu

	nextClient uint64 // accessed atomically
	retries    uint64 // accessed atomically
	def        *Client
}

// Retries reports how many request attempts across all clients found no
// leader or had their proposal rejected and had to back off and re-probe.
// A healthy cluster keeps this near zero; tests use it to bound how hard
// clients hammer a leaderless cluster.
func (r *Replicated) Retries() uint64 { return atomic.LoadUint64(&r.retries) }

// Leader-probe backoff. A fixed 1ms spin between probes is harmless for a
// brief leader change but burns a core per client during a real outage
// (election storm, quorum loss): clients wake a thousand times a second to
// learn nothing. Failed probes instead back off exponentially from
// backoffInitial to backoffMax with ±50% jitter, capped by the request
// deadline, via the shared internal/backoff helper. Progress — a proposal
// accepted, or a leader's explicit ErrLeaderStepdown redirect — resets the
// backoff to keep the fast path fast.
//
// Each probe carries its own independently seeded jitter stream: clients
// drawing from one shared random source would march through the same
// jitter sequence and re-probe in near-lockstep after a step-down, which
// is exactly the herd the jitter is meant to disperse.
const (
	backoffInitial = time.Millisecond
	backoffMax     = 40 * time.Millisecond
)

// probe pairs a per-client backoff stream with the service-wide retry
// counter.
type probe struct {
	r  *Replicated
	bo *backoff.Backoff
}

func (r *Replicated) newProbe() probe {
	return probe{r: r, bo: backoff.New(backoffInitial, backoffMax, backoff.NextSeed())}
}

func (p *probe) reset() { p.bo.Reset() }

// sleep counts one retry and waits the current jittered slice, clipped to
// the deadline.
func (p *probe) sleep(deadline time.Time) {
	atomic.AddUint64(&p.r.retries, 1)
	p.bo.Sleep(deadline)
}

// NewReplicated starts an n-node replicated store over a simulated network.
func NewReplicated(opts cluster.Options) *Replicated {
	r := &Replicated{
		stores:  make(map[types.NodeID]*Store),
		serveMu: make(map[types.NodeID]*sync.Mutex),
	}
	opts.OnApply = func(id types.NodeID, msg raft.ApplyMsg) {
		r.storeFor(id).Apply(msg)
	}
	opts.StateMachineFor = func(id types.NodeID) raft.StateMachine {
		return r.storeFor(id)
	}
	r.Cluster = cluster.New(opts)
	r.def = r.NewClient()
	return r
}

// Client is one logical client session with its own request identity.
// The store's dedup table assumes at most one outstanding request per
// client ID (Seq numbers commit in order), so every concurrently-operating
// caller must hold its own Client: two goroutines sharing an ID can commit
// out of sequence order, and the dedup table would swallow the
// later-committing request as a stale duplicate.
type Client struct {
	r   *Replicated
	id  uint64
	seq uint64 // accessed atomically
	pr  probe  // this session's private jitter stream
}

// NewClient mints a fresh client session with its own independently seeded
// backoff jitter stream.
func (r *Replicated) NewClient() *Client {
	return &Client{r: r, id: atomic.AddUint64(&r.nextClient, 1), pr: r.newProbe()}
}

func (r *Replicated) storeFor(id types.NodeID) *Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.stores[id]
	if !ok {
		st = NewStore()
		r.stores[id] = st
	}
	return st
}

// Store returns the state machine of the given replica.
func (r *Replicated) Store(id types.NodeID) *Store { return r.storeFor(id) }

// Stop shuts the service down.
func (r *Replicated) Stop() { r.Cluster.Stop() }

// Do submits a command through the current leader and waits for it to
// apply, retrying across leader changes until the deadline. It runs on the
// service's default client session; callers issuing requests from several
// goroutines should mint a Client each (see NewClient) so the dedup table
// sees in-order sequence numbers.
func (r *Replicated) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	return r.def.Do(op, key, value, old, timeout)
}

// Do submits a command on this client session and waits for it to apply,
// retrying across leader changes until the deadline. Retries reuse the same
// (client, seq) pair, so a request that committed but lost its ack is
// answered from the dedup table instead of applying twice.
func (c *Client) Do(op Op, key, value, old string, timeout time.Duration) (Result, error) {
	r := c.r
	seq := atomic.AddUint64(&c.seq, 1)
	cmd := Command{Op: op, Key: key, Value: value, Old: old, Client: c.id, Seq: seq}
	payload := cmd.Encode()
	deadline := time.Now().Add(timeout)
	bo := &c.pr
	bo.reset()
	for time.Now().Before(deadline) {
		leader := r.Cluster.Leader()
		if leader == nil {
			bo.sleep(deadline)
			continue
		}
		var idx int
		var err error
		if r.Unbatched {
			idx, _, err = leader.Propose(payload)
		} else {
			idx, _, err = leader.ProposeAsync(payload).Wait()
		}
		if err != nil {
			if errors.Is(err, raft.ErrLeaderStepdown) {
				// The leader told us it stepped down (CheckQuorum or a
				// transfer); its successor is likely already up. Re-probe
				// immediately rather than waiting out a backoff slice.
				atomic.AddUint64(&r.retries, 1)
				bo.reset()
				continue
			}
			bo.sleep(deadline)
			continue
		}
		bo.reset()
		ch := r.storeFor(leader.ID()).wait(idx, cmd.Client, cmd.Seq)
		// Wait a bounded slice per attempt: a deposed leader never
		// commits our index, so block briefly and re-probe for the real
		// leader (the dedup table makes retries idempotent).
		attempt := 300 * time.Millisecond
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		select {
		case wr := <-ch:
			if wr.mine {
				return wr.res, nil
			}
			// A different entry landed at our index: leadership changed.
			// Loop and retry.
		case <-time.After(attempt):
			// Try again, possibly against a newer leader.
		}
	}
	return Result{}, ErrTimeout
}

// Put sets key to value.
func (r *Replicated) Put(key, value string, timeout time.Duration) error {
	_, err := r.Do(OpPut, key, value, "", timeout)
	return err
}

// Get reads key linearizably (through the log).
func (r *Replicated) Get(key string, timeout time.Duration) (string, bool, error) {
	res, err := r.Do(OpGet, key, "", "", timeout)
	return res.Value, res.Found, err
}

// Delete removes key, reporting whether it existed.
func (r *Replicated) Delete(key string, timeout time.Duration) (bool, error) {
	res, err := r.Do(OpDelete, key, "", "", timeout)
	return res.Found, err
}

// CAS sets key to value iff its current value is old.
func (r *Replicated) CAS(key, old, value string, timeout time.Duration) (bool, error) {
	res, err := r.Do(OpCAS, key, value, old, timeout)
	return res.Swapped, err
}

// Append appends value to key's current value and returns the new value.
func (r *Replicated) Append(key, value string, timeout time.Duration) (string, error) {
	res, err := r.Do(OpAppend, key, value, "", timeout)
	return res.Value, err
}

// FastGet reads key linearizably WITHOUT a log write, through the default
// leader-ReadIndex mode: the leader confirms its leadership with a quorum
// barrier (coalesced with concurrent reads in the core), the local state
// machine catches up to the confirmed index, and the read is served from
// memory. An ErrLeaderStepdown redirect re-probes immediately — the
// successor is likely already up — while other failures back off; retries
// continue across leader changes until the deadline.
func (r *Replicated) FastGet(key string, timeout time.Duration) (string, bool, error) {
	return r.FastGetMode(key, ReadModeReadIndex, timeout)
}

// FastGetMode is FastGet with an explicit read path: leader ReadIndex
// barrier, leader lease (zero rounds while valid, barrier fallback), or
// follower-served (forwarded barrier, served from a follower's state
// machine).
func (r *Replicated) FastGetMode(key string, mode ReadMode, timeout time.Duration) (string, bool, error) {
	deadline := time.Now().Add(timeout)
	bo := r.newProbe()
	var rotate uint64
	for time.Now().Before(deadline) {
		attempt := 300 * time.Millisecond
		if rem := time.Until(deadline); rem < attempt {
			attempt = rem
		}
		var (
			idx    int
			err    error
			st     *Store
			served types.NodeID
		)
		switch mode {
		case ReadModeFollower:
			n := r.pickFollower(&rotate)
			if n == nil {
				bo.sleep(deadline)
				continue
			}
			idx, err = n.FollowerReadIndex(attempt)
			served = n.ID()
			st = r.storeFor(served)
		default:
			leader := r.Cluster.Leader()
			if leader == nil {
				bo.sleep(deadline)
				continue
			}
			if mode == ReadModeLease {
				if i, ok := leader.LeaseRead(); ok {
					idx = i
				} else {
					// No valid lease (fresh term, transfer, or reconfig in
					// flight): fall back to a full barrier.
					idx, err = leader.ReadIndex(attempt)
				}
			} else {
				idx, err = leader.ReadIndex(attempt)
			}
			served = leader.ID()
			st = r.storeFor(served)
		}
		if err != nil {
			if errors.Is(err, raft.ErrLeaderStepdown) {
				// The leader told us it stepped down; its successor is
				// likely already up. Re-probe immediately rather than
				// waiting out a backoff slice (same policy as Do).
				atomic.AddUint64(&r.retries, 1)
				bo.reset()
				continue
			}
			bo.sleep(deadline)
			continue
		}
		if !st.WaitApplied(idx, deadline) {
			return "", false, ErrTimeout
		}
		r.chargeServe(served)
		v, ok := st.LocalGet(key)
		return v, ok, nil
	}
	return "", false, ErrTimeout
}

// chargeServe executes the configured read-execution cost on the serving
// replica's serialized lane (no-op when ReadServeCost is zero).
func (r *Replicated) chargeServe(id types.NodeID) {
	if r.ReadServeCost <= 0 {
		return
	}
	r.mu.Lock()
	lane, ok := r.serveMu[id]
	if !ok {
		lane = new(sync.Mutex)
		r.serveMu[id] = lane
	}
	r.mu.Unlock()
	lane.Lock()
	time.Sleep(r.ReadServeCost)
	lane.Unlock()
}

// pickFollower returns a non-leader node to serve a forwarded read,
// rotating across candidates so repeated reads spread over the replica
// set. Falls back to any node (including the leader, which serves the
// forwarded barrier locally) when no follower is available.
func (r *Replicated) pickFollower(rotate *uint64) *raft.Node {
	nodes := r.Cluster.Nodes()
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
