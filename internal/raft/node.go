package raft

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// Options configures a node.
type Options struct {
	// ID is this node's identity; Members the initial cluster.
	ID      types.NodeID
	Members []types.NodeID

	// Transport carries messages; required.
	Transport Transport

	// ElectionTimeoutMin/Max bound the randomized election timeout;
	// HeartbeatInterval is the leader's append cadence. Zero values get
	// test-friendly defaults (50–100 ms / 20 ms).
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	HeartbeatInterval  time.Duration

	// Storage persists term, vote, snapshot, and log across restarts. Nil
	// means the node is volatile (models, benchmarks, never-restarted
	// tests).
	Storage Storage

	// StateMachine gives the driver snapshot access to the replicated
	// application. Required for log compaction (SnapshotThreshold > 0):
	// the TakeSnapshot effect is answered by serializing it. Nil disables
	// local snapshots (the node still installs leader-sent ones).
	StateMachine StateMachine

	// SnapshotThreshold is the compaction policy: once this many applied
	// entries accumulate above the snapshot base, the node captures a
	// state-machine image and truncates its WAL. Zero disables
	// compaction. Ignored without a StateMachine.
	SnapshotThreshold int

	// MaxEntriesPerAppend caps the entries carried by one AppendEntries
	// message. The leader streams a lagging follower's log as a pipeline
	// of bounded windows (advancing nextIndex optimistically per send)
	// instead of re-sending the full suffix stop-and-wait. Zero gets a
	// default of 256.
	MaxEntriesPerAppend int

	// Ablation switches individual protocol guards off; forwarded to the
	// core as is. For experiments only.
	Ablation

	// Seed randomizes election timeouts deterministically (0 = from ID).
	Seed int64

	// ExternalTick disables the node's internal wall-clock ticker; the
	// owner drives the logical clock by calling Tick. A multiraft host
	// hosting many groups uses one shared ticker for all of them instead
	// of one timer goroutine per group.
	ExternalTick bool
}

func (o *Options) defaults() {
	if o.ElectionTimeoutMin == 0 {
		o.ElectionTimeoutMin = 50 * time.Millisecond
	}
	if o.ElectionTimeoutMax == 0 {
		o.ElectionTimeoutMax = 2 * o.ElectionTimeoutMin
	}
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = o.ElectionTimeoutMin / 3
	}
	if o.Seed == 0 {
		o.Seed = int64(o.ID) * 7919
	}
	if o.MaxEntriesPerAppend == 0 {
		o.MaxEntriesPerAppend = 256
	}
}

// StateMachine is the driver's view of the replicated application for
// snapshotting. Implementations must be safe for concurrent use with the
// apply stream (kvstore.Store is the canonical one).
type StateMachine interface {
	// AppliedIndex reports the highest log index applied so far.
	AppliedIndex() int
	// SaveSnapshot atomically serializes the full state — including
	// client-session dedup tables, so exactly-once survives a
	// snapshot-based rejoin — and reports the applied index the image
	// captures.
	SaveSnapshot() (data []byte, appliedIndex int, err error)
}

// Errors returned by the client-facing API. The protocol-level errors are
// defined by the sans-IO core and re-exported so errors.Is keeps working
// across the package split.
var (
	// ErrNotLeader reports that the node cannot serve the request; the
	// caller should retry against the current leader.
	ErrNotLeader = raftcore.ErrNotLeader
	// ErrStopped reports the node has shut down.
	ErrStopped = errors.New("raft: node stopped")
	// ErrReconfigPending rejects a membership change while another is
	// uncommitted (R2).
	ErrReconfigPending = raftcore.ErrReconfigPending
	// ErrReconfigNotReady rejects a membership change before the leader
	// has committed an entry in its current term (R3).
	ErrReconfigNotReady = raftcore.ErrReconfigNotReady
	// ErrBadMembership rejects changes that are not single-node (R1) or
	// would empty the cluster.
	ErrBadMembership = raftcore.ErrBadMembership
	// ErrLeaderStepdown reports that the leader relinquished leadership
	// (CheckQuorum: no quorum contact for an election interval). In-flight
	// ProposeAsync futures fail with it; retryable, and the caller should
	// re-probe for the next leader immediately rather than back off.
	ErrLeaderStepdown = raftcore.ErrLeaderStepdown
	// ErrTransferInProgress rejects proposals while a leadership transfer
	// is pausing the log; retry once the handoff resolves.
	ErrTransferInProgress = raftcore.ErrTransferInProgress
	// ErrBadTransferTarget rejects a transfer to a node outside the
	// effective configuration (or with no eligible target at all).
	ErrBadTransferTarget = raftcore.ErrBadTransferTarget
	// ErrStorageFailed reports that a durable write failed and the node
	// fail-stopped: it halted rather than keep running on state it could
	// not persist (acting on unpersisted state breaks the crash-recovery
	// argument). Snapshot().Err carries the underlying cause.
	ErrStorageFailed = errors.New("raft: storage write failed; node halted")
)

// Node is one Raft runtime instance: the IO driver around a raftcore.Core.
// Create with StartNode; stop with Stop.
//
// The driver's whole job is the staged Ready loop. mu covers core mutation
// only: every core interaction (message, tick, proposal, barrier) ends with
// processReadyLocked, which wakes the write lane if the core has something
// to persist and then releases what may leave now — messages, read
// barriers, committed entries — every promise among them already backed by
// durable state. The write lane is one goroutine with one storage call in
// flight and mu not held: it takes the core's Unstable batch, writes it, and
// reports core.Stable, which is the only thing that releases
// persistence-dependent effects (votes, append acks, the leader's broadcast
// and commit deliveries, proposal futures). A follower's commit deliveries
// are not among them: it applies what the quorum made durable, ahead of its
// own write. Entries that arrive during a write accumulate in the
// core and go out as the next single write. A failed write fail-stops the
// node from the lane with everything held still unsent. Without Storage
// there is nothing to wait for: the same executor reports Stable inline.
type Node struct {
	mu sync.Mutex

	id   types.NodeID
	opts Options

	core *raftcore.Core // guarded by mu

	// wasLeader tracks leadership across core interactions so the driver
	// can abort queued proposals the moment the core steps down.
	wasLeader bool // guarded by mu

	applyCh    chan []ApplyMsg
	inbox      chan Message
	stopCh     chan struct{}
	stopOnce   sync.Once
	applyClose sync.Once
	done       sync.WaitGroup

	// Group-commit state (see batch.go): ProposeAsync enqueues proposals
	// here; the flush loop drains them all into one WAL frame (a single
	// fsync) and one AppendEntries broadcast, then acks the futures. The
	// queue lives under its own narrow mutex — never held across I/O — so
	// proposers keep enqueueing while a flush holds mu across the fsync;
	// that overlap is what lets batches grow under load. Lock order:
	// mu before propMu (flushBatch drains under propMu alone, then takes
	// mu; failPropsLocked runs under mu and takes propMu inside).
	propMu       sync.Mutex
	pendingProps []*Proposal // guarded by propMu
	stopping     bool        // guarded by propMu
	flushCh      chan struct{}

	// Write-lane state. laneCh wakes the lane (capacity 1: a pending wakeup
	// already covers whatever became unstable since). inflight are the
	// proposals appended to the core's log and not yet durable, in index
	// order; Stable completes them, losing leadership or the disk fails
	// them.
	laneCh   chan struct{}
	inflight []*Proposal // guarded by mu

	// readWaiters maps a pending read barrier's request id (local
	// ReadIndex or forwarded follower read) to the channel its caller
	// blocks on; the core resolves barriers through ReadStates in a Ready.
	readWaiters map[uint64]chan readResult // guarded by mu
	nextReadID  uint64                     // guarded by mu

	// snapReqCh hands TakeSnapshot effects to the snapshot loop, which
	// serializes the state machine outside mu and answers via
	// core.Compact. Capacity 1: a request arriving while one is queued is
	// dropped (the policy re-fires after the pending capture resolves).
	// Nil when no StateMachine is configured.
	snapReqCh chan raftcore.SnapshotRequest

	// stopErr, when non-nil, records the storage error that fail-stopped
	// the node (see failStopLocked).
	stopErr error // guarded by mu
}

// StartNode launches a node and its background loops.
func StartNode(opts Options) *Node {
	opts.defaults()
	var hs HardState
	var snap LogSnapshot
	var log []LogEntry
	if opts.Storage != nil {
		h, sn, stored, err := opts.Storage.Load()
		if err != nil {
			panic(fmt.Sprintf("raft: storage load: %v", err))
		}
		hs, snap = h, sn
		if len(stored) > 0 {
			log = stored
		}
	}
	// The driver ticks the core every HeartbeatInterval/2 (the historical
	// run-loop cadence): leaders broadcast on every tick, and election
	// timeouts are counted in the same unit. The jitter closure owns the
	// randomness — the core itself is deterministic.
	tickUnit := opts.HeartbeatInterval / 2
	if tickUnit <= 0 {
		tickUnit = time.Millisecond
	}
	electionTicks := int(opts.ElectionTimeoutMin / tickUnit)
	if electionTicks < 1 {
		electionTicks = 1
	}
	jitterSpan := int64((opts.ElectionTimeoutMax - opts.ElectionTimeoutMin) / tickUnit)
	rng := rand.New(rand.NewSource(opts.Seed))
	jitter := func() int {
		if jitterSpan <= 0 {
			return 0
		}
		return int(rng.Int63n(jitterSpan))
	}
	snapThreshold := opts.SnapshotThreshold
	if opts.StateMachine == nil {
		snapThreshold = 0 // nobody to capture an image from
	}
	n := &Node{
		id:   opts.ID,
		opts: opts,
		core: raftcore.New(raftcore.Config{
			ID:                  opts.ID,
			Members:             opts.Members,
			ElectionTicks:       electionTicks,
			Jitter:              jitter,
			HeartbeatTicks:      1,
			MaxEntriesPerAppend: opts.MaxEntriesPerAppend,
			SnapshotThreshold:   snapThreshold,
			Ablation:            opts.Ablation,
		}, hs, snap, log),
		applyCh:     make(chan []ApplyMsg, 1024),
		inbox:       make(chan Message, 1024),
		stopCh:      make(chan struct{}),
		flushCh:     make(chan struct{}, 1),
		laneCh:      make(chan struct{}, 1),
		readWaiters: make(map[uint64]chan readResult),
	}
	if opts.StateMachine != nil {
		n.snapReqCh = make(chan raftcore.SnapshotRequest, 1)
	}
	// A recovered snapshot re-seeds the (empty, restarted) state machine
	// through the apply stream before any suffix entries: the consumer's
	// first receive is the restore.
	if snap.Index > 0 {
		n.applyCh <- []ApplyMsg{restoreMsg(&snap)}
	}
	n.done.Add(3)
	go n.run()
	go n.flushLoop()
	go n.snapLoop()
	if opts.Storage != nil {
		n.done.Add(1)
		go n.writeLane()
	}
	return n
}

// restoreMsg is the apply-stream representation of a snapshot: the state
// machine discards its state and loads the image.
func restoreMsg(snap *LogSnapshot) ApplyMsg {
	return ApplyMsg{
		Index: snap.Index, Term: snap.Term, Kind: EntrySnapshot,
		Command: snap.Data, Members: snap.Members,
	}
}

// Inbox returns the channel the transport should feed received messages
// into.
func (n *Node) Inbox() chan<- Message { return n.inbox }

// ApplyCh delivers committed entries in order, coalesced into batches: one
// receive drains everything that committed since the previous one, so
// state-machine drains pay one channel operation per commit advance rather
// than per entry.
func (n *Node) ApplyCh() <-chan []ApplyMsg { return n.applyCh }

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.id }

// Done is closed when the node starts shutting down (for pumps and drains
// that would otherwise block on a stopped node's inbox).
func (n *Node) Done() <-chan struct{} { return n.stopCh }

// Stop shuts the node down and waits for its loops to exit.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.done.Wait()
	// Both loops have exited: no sender is left, so closing the apply
	// channel is race-free and lets consumers drain out.
	n.applyClose.Do(func() { close(n.applyCh) })
}

// failStopLocked halts the node because a durable write failed: continuing
// to vote, ack, or lead on state that is not actually persisted would break
// the crash-recovery argument (a restart would forget promises already sent
// to peers). The node abdicates, aborts waiting clients — every proposal
// whose entry was not yet durable fails with ErrStorageFailed — and shuts
// down; core.Stable is never called for the failed batch, so everything it
// held stays unsent.
func (n *Node) failStopLocked(err error) {
	if n.stopErr != nil {
		return
	}
	n.stopErr = fmt.Errorf("%w: %v", ErrStorageFailed, err)
	for id, ch := range n.readWaiters {
		delete(n.readWaiters, id)
		ch <- readResult{err: ErrNotLeader}
	}
	n.failPropsLocked()
	n.failInflightLocked(n.stopErr)
	n.stopOnce.Do(func() { close(n.stopCh) })
}

// Snapshot is one consistent view of a node's externally visible state,
// captured under a single lock acquisition, so term, role, commit index and
// membership never come from different protocol steps. A fail-stopped node
// reports itself a follower with no leader and carries the cause in Err.
type Snapshot struct {
	Term        types.Time
	Role        Role
	Leader      types.NodeID
	CommitIndex int
	LastIndex   int
	// StableIndex is the highest log index on this node's disk, AppliedIndex
	// the highest handed to the apply stream. On a follower the second may
	// run ahead of the first: it applies what the quorum made durable.
	StableIndex  int
	AppliedIndex int
	Members      types.NodeSet
	Elections    uint64
	// Counters are the election-disruption metrics (pre-vote rounds, term
	// bumps, step-downs, transfers); the chaos monitor samples them.
	Counters Counters
	// Err is the storage error that fail-stopped the node, nil if it is
	// healthy or was stopped normally. A fail-stopped node has its Done
	// channel closed, so callers can tell "crashed as designed" (Done
	// closed, Err non-nil) from a clean shutdown.
	Err error
}

// Snapshot returns a consistent snapshot of the node's state.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Snapshot{
		Term:         n.core.Term(),
		Role:         n.core.Role(),
		Leader:       n.core.Leader(),
		CommitIndex:  n.core.CommitIndex(),
		LastIndex:    n.core.LastIndex(),
		StableIndex:  n.core.StableIndex(),
		AppliedIndex: n.core.AppliedIndex(),
		Members:      n.core.Members(),
		Elections:    n.core.Elections(),
		Counters:     n.core.Counters(),
		Err:          n.stopErr,
	}
	if n.stopErr != nil {
		s.Role = Follower
		s.Leader = types.NoNode
	}
	return s
}

// processReadyLocked is the node's one Ready executor; every code path that
// touches the core ends here. Stage one hands what needs persisting to the
// write lane (volatile nodes have nothing to write, so the same batch is
// reported stable on the spot — no goroutine hop, no extra message); stage
// two releases what may leave now.
func (n *Node) processReadyLocked() {
	if n.opts.Storage == nil {
		if _, ok := n.core.TakeUnstable(); ok {
			n.core.Stable()
			n.releaseStableLocked()
			return
		}
	} else if n.core.HasUnstable() {
		select {
		case n.laneCh <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
	n.releaseLocked()
}

// writeLane is the node's one write lane: a single goroutine, one storage
// call in flight, mu not held across it. Each pass takes everything the core
// has accumulated as ONE batch — group commit on followers as well as on the
// leader — and loops until the core is clean, so back-to-back writes cost no
// wakeup. On shutdown it fails the proposals still waiting for their write.
func (n *Node) writeLane() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			n.mu.Lock()
			n.failInflightLocked(ErrStopped)
			n.mu.Unlock()
			return
		case <-n.laneCh:
		}
		n.mu.Lock()
		for n.haltedLocked() == nil {
			u, ok := n.core.TakeUnstable()
			if !ok {
				break
			}
			n.mu.Unlock()
			err := n.persist(u)
			n.mu.Lock()
			if err != nil {
				// Stable is never reported: everything the batch was
				// backing stays held, and the node halts.
				n.failStopLocked(err)
				break
			}
			n.core.Stable()
			n.releaseStableLocked()
		}
		n.mu.Unlock()
	}
}

// persist writes one Unstable batch in the durability order: the HardState,
// then the snapshot image, and only then the entries whose SaveEntries may
// truncate the log prefix the image summarizes. Called by the write lane
// (which only nodes with a Storage run) with mu not held.
func (n *Node) persist(u raftcore.Unstable) error {
	if u.HardState != nil {
		if err := n.opts.Storage.SaveState(*u.HardState); err != nil {
			return fmt.Errorf("persist state: %w", err)
		}
	}
	if u.Snapshot != nil {
		if err := n.opts.Storage.SaveSnapshot(*u.Snapshot); err != nil {
			return fmt.Errorf("persist snapshot: %w", err)
		}
	}
	if u.FirstIndex > 0 {
		if err := n.opts.Storage.SaveEntries(u.FirstIndex, u.Entries); err != nil {
			return fmt.Errorf("persist entries: %w", err)
		}
	}
	return nil
}

// releaseStableLocked follows a Stable: it releases what the batch was
// holding back and completes the proposals whose entries it made durable.
// The proposals leave the in-flight list first (a step-down released in the
// same Effects must not fail what is already durable) but their waiters wake
// last: a batch of woken proposers ahead of the broadcast puts a scheduler
// round between the disk and the wire.
func (n *Node) releaseStableLocked() {
	stable := n.core.StableIndex()
	k := 0
	for k < len(n.inflight) && n.inflight[k].idx <= stable {
		k++
	}
	durable := n.inflight[:k]
	n.inflight = n.inflight[k:]
	n.releaseLocked()
	for _, p := range durable {
		p.complete()
	}
}

// releaseLocked drains the core's Effects: send the messages, resolve the
// read barriers, deliver the committed entries. Nothing here waits for a
// disk — whatever needed one was released by Stable.
func (n *Node) releaseLocked() {
	if n.stopErr != nil {
		return // fail-stopped: send nothing after the lost write
	}
	eff := n.core.TakeEffects()
	for _, m := range eff.Messages {
		n.opts.Transport.Send(m)
	}
	for _, rs := range eff.ReadStates {
		ch, ok := n.readWaiters[rs.ReqID]
		if !ok {
			continue // caller already timed out
		}
		delete(n.readWaiters, rs.ReqID)
		if rs.Index < 0 {
			// Leadership lost before confirmation. A CheckQuorum step-down
			// in the same batch means the retryable ErrLeaderStepdown (a
			// successor is likely already up — re-probe immediately);
			// anything else is the generic redirect.
			err := error(ErrNotLeader)
			if eff.SteppedDown {
				err = ErrLeaderStepdown
			}
			ch <- readResult{err: err}
		} else {
			ch <- readResult{idx: rs.Index}
		}
	}
	committed := eff.Committed
	if eff.Restore != nil {
		// A leader-installed snapshot replaces the state machine's world:
		// deliver the restore before any suffix entries committed in the
		// same batch.
		committed = append([]ApplyMsg{restoreMsg(eff.Restore)}, committed...)
	}
	if len(committed) > 0 {
		select {
		case n.applyCh <- committed:
		case <-n.stopCh:
		}
	}
	if eff.TakeSnapshot != nil && n.snapReqCh != nil {
		select {
		case n.snapReqCh <- *eff.TakeSnapshot:
		default:
			// A capture is already queued; the policy stays latched until
			// that one resolves, so dropping this request is safe.
		}
	}
	// Leadership lost inside this batch: abort queued (unflushed) proposals
	// — their commands never entered the log — and the in-flight ones,
	// whose entries a successor may now truncate. A step-down fails them
	// with the retryable ErrLeaderStepdown so clients re-probe immediately
	// instead of waiting out a redirect.
	isLeader := n.core.Role() == Leader
	if n.wasLeader && !isLeader {
		err := fmt.Errorf("%w (known leader: %s)", ErrNotLeader, n.core.Leader())
		if eff.SteppedDown {
			err = fmt.Errorf("%w (was %s)", ErrLeaderStepdown, n.id)
		}
		n.failPropsLockedErr(err)
		n.failInflightLocked(err)
	}
	n.wasLeader = isLeader
}

// snapLoop answers TakeSnapshot effects: wait for the state machine to
// apply through the requested index, serialize it outside mu, then fold
// the image into the core with Compact. Runs for the node's lifetime; with
// no StateMachine the nil snapReqCh never delivers and the loop just waits
// for shutdown.
func (n *Node) snapLoop() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			return
		case req := <-n.snapReqCh:
			n.handleSnapshotRequest(req)
		}
	}
}

// handleSnapshotRequest runs one snapshot capture. On any failure the
// request is aborted (the policy re-arms at the next threshold crossing);
// only a successful capture compacts the log.
func (n *Node) handleSnapshotRequest(req raftcore.SnapshotRequest) {
	sm := n.opts.StateMachine
	deadline := time.Now().Add(5 * time.Second)
	poll := time.NewTimer(0)
	defer poll.Stop()
	for sm.AppliedIndex() < req.Index {
		if time.Now().After(deadline) {
			n.abortSnapshot() // apply stream stalled; try again later
			return
		}
		select {
		case <-n.stopCh:
			return
		case <-poll.C:
			poll.Reset(500 * time.Microsecond)
		}
	}
	data, applied, err := sm.SaveSnapshot()
	if err != nil {
		n.abortSnapshot()
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return
	}
	// On a follower applied may be above what this node's own disk holds;
	// the core takes the image regardless (Core.Compact) and the lane writes
	// it in place of the entries it covers.
	if n.core.Compact(applied, data) {
		n.processReadyLocked()
	}
}

// abortSnapshot clears the core's pending snapshot request so the policy
// can fire again.
func (n *Node) abortSnapshot() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.core.AbortSnapshot()
}

// run is the main event loop: messages, timers, shutdown.
func (n *Node) run() {
	defer n.done.Done()
	var tickCh <-chan time.Time
	if !n.opts.ExternalTick {
		ticker := time.NewTicker(n.opts.HeartbeatInterval / 2)
		defer ticker.Stop()
		tickCh = ticker.C
	}
	for {
		select {
		case <-n.stopCh:
			_ = n.opts.Transport.Close()
			return
		case m := <-n.inbox:
			n.step(m)
		case <-tickCh:
			n.tick()
		}
	}
}

// Tick advances the node's logical clock by one unit. Only meaningful with
// Options.ExternalTick: the owner (e.g. a multiraft host's shared tick
// loop) calls it at the cadence the internal ticker would have used,
// HeartbeatInterval/2.
func (n *Node) Tick() { n.tick() }

// step feeds one incoming message to the core and executes the effects.
func (n *Node) step(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return // fail-stopped: send nothing after the lost write
	}
	n.core.Step(m)
	n.processReadyLocked()
}

// tick advances the core's logical clock (heartbeats, election timeouts).
func (n *Node) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return
	}
	n.core.Tick()
	n.processReadyLocked()
}

// ProposeConfig appends a membership change at the leader, enforcing the
// paper's guards: the change must add or remove exactly one node (R1),
// no other configuration change may be in flight (R2), and — unless
// DisableR3 — the leader must have committed an entry in its current term
// (R3). It returns once the config entry is durable in the leader's log.
// The caller names the whole target membership: deriving it from a separate
// read of the current one would race with a concurrent change.
func (n *Node) ProposeConfig(members types.NodeSet) (int, types.Time, error) {
	n.mu.Lock()
	if err := n.haltedLocked(); err != nil {
		n.mu.Unlock()
		return 0, 0, err
	}
	idx, term, err := n.core.ProposeConfig(members)
	if err != nil {
		n.mu.Unlock()
		return 0, 0, err
	}
	// Wait with mu released: like a ProposeAsync future this resolves once
	// the write lane has made the entry durable, and a failed write, a lost
	// leadership or a shutdown in between fails it.
	p := &Proposal{done: make(chan struct{}), idx: idx, term: term}
	n.inflight = append(n.inflight, p)
	n.processReadyLocked()
	n.mu.Unlock()
	return p.Wait()
}

// haltedLocked reports why a proposal cannot be accepted at all: the node
// fail-stopped, or it is shutting down (the write lane may already be gone,
// so nothing would ever complete the future).
func (n *Node) haltedLocked() error {
	if n.stopErr != nil {
		return fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	select {
	case <-n.stopCh:
		return ErrStopped
	default:
		return nil
	}
}

// readResult resolves one blocked read barrier waiter: the confirmed
// index, or the error to retry with (ErrNotLeader, or the retryable
// ErrLeaderStepdown when the barrier died in a CheckQuorum step-down).
type readResult struct {
	idx int
	err error
}

// ReadIndex implements linearizable reads without log writes (the Raft
// ReadIndex optimization): the leader captures its read floor, confirms
// it is still the leader by collecting a round of quorum acknowledgements
// (concurrent barriers coalesce into shared confirmation rounds), and
// returns the index. A caller that waits until its state machine has
// applied up to the returned index may then serve the read locally.
func (n *Node) ReadIndex(timeout time.Duration) (int, error) {
	n.mu.Lock()
	if n.stopErr != nil {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	reqID := n.nextReadID
	n.nextReadID++
	idx, confirmed, err := n.core.ReadIndex(reqID)
	if err != nil {
		n.mu.Unlock()
		return 0, err
	}
	if confirmed {
		n.mu.Unlock()
		return idx, nil
	}
	ch := make(chan readResult, 1)
	n.readWaiters[reqID] = ch
	n.processReadyLocked() // the barrier's confirmation heartbeat
	n.mu.Unlock()

	return n.awaitRead(reqID, ch, timeout)
}

// LeaseRead serves a linearizable read from the leader lease with zero
// network rounds: ok reports that the lease is valid (a strict quorum
// acked within the last election interval, no transfer or uncommitted
// reconfiguration in flight) and idx the index the caller may read at
// once its state machine has applied through it. ok=false means no lease
// — fall back to ReadIndex.
func (n *Node) LeaseRead() (idx int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return 0, false
	}
	return n.core.LeaseRead()
}

// FollowerReadIndex runs a linearizable read barrier from a non-leader:
// the barrier is forwarded to the known leader, which answers with its
// confirmed read index (from its lease when valid, otherwise after a
// quorum round). A caller that waits until its LOCAL state machine has
// applied through the returned index may then serve the read from its own
// replica — read throughput scales with followers instead of loading the
// leader.
func (n *Node) FollowerReadIndex(timeout time.Duration) (int, error) {
	n.mu.Lock()
	if n.stopErr != nil {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	reqID := n.nextReadID
	n.nextReadID++
	if err := n.core.ForwardReadIndex(reqID); err != nil {
		n.mu.Unlock()
		return 0, err
	}
	ch := make(chan readResult, 1)
	n.readWaiters[reqID] = ch
	n.processReadyLocked() // the forward (or, on a leader, its local barrier)
	n.mu.Unlock()

	return n.awaitRead(reqID, ch, timeout)
}

// awaitRead blocks one read barrier caller on its result channel.
func (n *Node) awaitRead(reqID uint64, ch chan readResult, timeout time.Duration) (int, error) {
	// Not time.After: under go 1.22 its timer stays live for the whole
	// timeout of every read that already returned.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, r.err
		}
		return r.idx, nil
	case <-timer.C:
		n.mu.Lock()
		delete(n.readWaiters, reqID)
		n.core.CancelRead(reqID)
		n.mu.Unlock()
		return 0, fmt.Errorf("raft: read index confirmation timed out")
	case <-n.stopCh:
		return 0, ErrStopped
	}
}

// TransferLeader starts a graceful leadership handoff to peer to (NoNode
// picks the most caught-up voter automatically): proposals pause, the
// target is brought fully up to date, then told to campaign immediately —
// bypassing Pre-Vote and follower stickiness, so leadership moves without
// a disruptive timeout election. Returns once the handoff is initiated;
// the transfer aborts on its own (and proposals resume) if the target
// does not take over within an election interval.
func (n *Node) TransferLeader(to types.NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	if err := n.core.TransferLeader(to); err != nil {
		return err
	}
	n.processReadyLocked()
	return nil
}

// PickTransferTarget returns the most caught-up voter inside target that
// this leader could hand off to (NoNode when none exists, or when this
// node is not the leader). Reconfigurations that shed the leader pass the
// NEW configuration so leadership lands on a surviving node.
func (n *Node) PickTransferTarget(target types.NodeSet) types.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopErr != nil {
		return types.NoNode
	}
	return n.core.PickTransferTarget(target)
}
