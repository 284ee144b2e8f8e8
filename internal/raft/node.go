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

// ElectionTicks is every node's election timeout in ticks of its owner's
// clock: a follower campaigns after ElectionTicks plus a jitter drawn from
// [0, ElectionTicks) ticks without leader contact, and a leader broadcasts on
// every tick. The owner (multiraft.Host) calls Tick once per
// ElectionTimeoutMin/ElectionTicks of wall time.
const ElectionTicks = 6

// Options configures a node.
type Options struct {
	// ID is this node's identity; Members the initial cluster.
	ID      types.NodeID
	Members []types.NodeID

	// Transport carries messages out; Inbox brings them in (the transport
	// endpoint's demux target). The node reads Inbox until it stops.
	Transport Transport
	Inbox     <-chan Message

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

	// Ablation switches individual protocol guards off; forwarded to the
	// core as is. For experiments only.
	Ablation

	// Seed randomizes election timeouts deterministically.
	Seed int64
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

// Node is one Raft runtime instance: the concurrent shell around a Driver,
// which makes every staged-Ready decision for the raftcore.Core (driver.go).
// Create with StartNode; stop with Stop. The shell brings mu, which
// serializes every core and driver call (each core interaction ends with
// Driver.Ready); the run, flush and snapshot goroutines; the write lane,
// which lands the driver's batch in flight with mu released across the
// storage calls; the transport sends and the applyCh hand-off. Without
// Storage the driver reports each batch stable inline and no lane runs.
type Node struct {
	mu sync.Mutex

	id   types.NodeID
	opts Options

	core *raftcore.Core // guarded by mu
	d    *Driver        // guarded by mu

	applyCh    chan []ApplyMsg
	stopCh     chan struct{}
	stopOnce   sync.Once
	applyClose sync.Once
	done       sync.WaitGroup

	// Group-commit state (see batch.go): ProposeAsync enqueues proposals
	// here; the flush loop drains them all into the core's log, and the
	// driver acks the futures once the lane's write made them durable. The
	// queue lives under its own narrow mutex — never held across I/O — so
	// proposers keep enqueueing while the flush loop holds mu and while the
	// lane's write is in flight; what queued meanwhile is the next batch,
	// which is what lets batches grow under load. Lock order: mu before
	// propMu (flushBatch drains under propMu alone, then takes mu; the
	// driver's Abort runs under mu and takes propMu inside).
	propMu       sync.Mutex
	pendingProps []*Proposal // guarded by propMu
	stopping     bool        // guarded by propMu
	flushCh      chan struct{}

	laneCh chan struct{} // wakes the write lane (capacity 1)

	// snapReqCh hands TakeSnapshot effects to the snapshot loop, which
	// serializes the state machine outside mu and answers via
	// core.Compact. Capacity 1: a request arriving while one is queued is
	// dropped (the policy re-fires after the pending capture resolves).
	// Nil when no StateMachine is configured.
	snapReqCh chan raftcore.SnapshotRequest
}

// StartNode launches a node and its background loops. The node has no clock
// of its own: it advances only when its owner calls Tick.
func StartNode(opts Options) *Node {
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
	// The jitter closure owns the randomness — the core itself is
	// deterministic.
	rng := rand.New(rand.NewSource(opts.Seed))
	snapThreshold := opts.SnapshotThreshold
	if opts.StateMachine == nil {
		snapThreshold = 0 // nobody to capture an image from
	}
	n := &Node{
		id:   opts.ID,
		opts: opts,
		core: raftcore.New(raftcore.Config{
			ID:                opts.ID,
			Members:           opts.Members,
			ElectionTicks:     ElectionTicks,
			Jitter:            func() int { return int(rng.Int63n(ElectionTicks)) },
			HeartbeatTicks:    1,
			SnapshotThreshold: snapThreshold,
			Ablation:          opts.Ablation,
		}, hs, snap, log),
		applyCh: make(chan []ApplyMsg, 1024),
		stopCh:  make(chan struct{}),
		flushCh: make(chan struct{}, 1),
		laneCh:  make(chan struct{}, 1),
	}
	n.mu.Lock() // the driver is guarded like the core it drives
	// Read ids start at the wall clock in ns, above every id an earlier
	// incarnation used: none opens a barrier per nanosecond.
	n.d = NewDriver(n.core, opts.Storage, &n.mu, (*nodeShell)(n), uint64(time.Now().UnixNano()))
	n.mu.Unlock()
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

// ApplyCh delivers committed entries in order, coalesced into batches: one
// receive drains everything that committed since the previous one, so
// state-machine drains pay one channel operation per commit advance rather
// than per entry.
func (n *Node) ApplyCh() <-chan []ApplyMsg { return n.applyCh }

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.id }

// Done is closed when the node starts shutting down: it stopped, or it
// fail-stopped on a storage error.
func (n *Node) Done() <-chan struct{} { return n.stopCh }

// Stop shuts the node down and waits for its loops to exit.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.done.Wait()
	// Both loops have exited: no sender is left, so closing the apply
	// channel is race-free and lets consumers drain out.
	n.applyClose.Do(func() { close(n.applyCh) })
}

// nodeShell is the Node as its Driver sees it.
type nodeShell Node

func (s *nodeShell) Write() (take, now bool) {
	select {
	case s.laneCh <- struct{}{}:
	default: // a wakeup is already pending
	}
	return true, false
}

func (s *nodeShell) Send(m Message) { s.opts.Transport.Send(m) }

func (s *nodeShell) Apply(batch []ApplyMsg) {
	select {
	case s.applyCh <- batch:
	case <-s.stopCh:
	}
}

func (s *nodeShell) Snapshot(req raftcore.SnapshotRequest) {
	select {
	case s.snapReqCh <- req:
	default: // no StateMachine, or one capture queued: the policy stays latched
	}
}

// Abort fails the proposals still queued for the flush loop: they never
// entered the log. It runs under mu and takes propMu inside.
func (s *nodeShell) Abort(err error) {
	s.propMu.Lock()
	batch := s.pendingProps
	s.pendingProps = nil
	s.propMu.Unlock()
	for _, p := range batch {
		p.fail(err)
	}
}

func (s *nodeShell) Halt(error) { s.stopOnce.Do(func() { close(s.stopCh) }) }

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
		Err:          n.d.err,
	}
	if n.d.err != nil {
		s.Role = Follower
		s.Leader = types.NoNode
	}
	return s
}

// writeLane is the node's one write lane: a goroutine that lands the batch
// the driver handed out (everything the core accumulated since the last one:
// group commit on followers as on the leader), one storage call in flight and
// mu released across it. On shutdown it fails the proposals still waiting.
func (n *Node) writeLane() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			n.mu.Lock()
			n.d.Stop(0, ErrStopped)
			n.mu.Unlock()
			return
		case <-n.laneCh:
		}
		n.mu.Lock()
		if n.haltedLocked() == nil {
			n.d.Land()
		}
		n.mu.Unlock()
	}
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
	if n.d.err != nil {
		return
	}
	// On a follower applied may be above what this node's own disk holds;
	// the core takes the image regardless (Core.Compact) and the lane writes
	// it in place of the entries it covers.
	if n.core.Compact(applied, data) {
		n.d.Ready()
	}
}

// abortSnapshot clears the core's pending snapshot request so the policy
// can fire again.
func (n *Node) abortSnapshot() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.core.AbortSnapshot()
}

// run is the main event loop: received messages until shutdown.
func (n *Node) run() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			_ = n.opts.Transport.Close()
			return
		case m := <-n.opts.Inbox:
			n.step(m)
		}
	}
}

// Tick advances the node's logical clock by one unit, its only clock: the
// owner (multiraft.Host's shared tick loop, or a test) calls it once per
// ElectionTimeoutMin/ElectionTicks. A stopped or fail-stopped node's clock
// stands still: it sends nothing after a lost write or its shutdown.
func (n *Node) Tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.haltedLocked() == nil {
		n.core.Tick()
		n.d.Ready()
	}
}

// step feeds one incoming message to the core and executes the effects.
func (n *Node) step(m Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.d.err == nil {
		n.core.Step(m)
		n.d.Ready()
	}
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
	n.d.props = append(n.d.props, p)
	n.d.Ready()
	n.mu.Unlock()
	return p.Wait()
}

// haltedLocked reports why a proposal cannot be accepted at all: the node
// fail-stopped, or it is shutting down (the write lane may already be gone,
// so nothing would ever complete the future).
func (n *Node) haltedLocked() error {
	if n.d.err != nil {
		return fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	select {
	case <-n.stopCh:
		return ErrStopped
	default:
		return nil
	}
}

// ReadIndex implements linearizable reads without log writes (the Raft
// ReadIndex optimization): the leader captures its read floor, confirms
// it is still the leader by collecting a round of quorum acknowledgements
// (concurrent barriers coalesce into shared confirmation rounds), and
// returns the index. A caller that waits until its state machine has
// applied up to the returned index may then serve the read locally.
func (n *Node) ReadIndex(timeout time.Duration) (int, error) { return n.read(false, timeout) }

// LeaseRead serves a linearizable read from the leader lease with zero
// network rounds: ok reports that the lease is valid (a strict quorum
// acked within the last election interval, no transfer or uncommitted
// reconfiguration in flight) and idx the index the caller may read at
// once its state machine has applied through it. ok=false means no lease
// — fall back to ReadIndex.
func (n *Node) LeaseRead() (idx int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.d.err != nil {
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
func (n *Node) FollowerReadIndex(timeout time.Duration) (int, error) { return n.read(true, timeout) }

// read opens one read barrier (forwarded or not) and blocks on its answer:
// the confirmed index, or an abort to retry with ErrNotLeader —
// ErrLeaderStepdown when the barrier died in a CheckQuorum step-down.
func (n *Node) read(forward bool, timeout time.Duration) (int, error) {
	n.mu.Lock()
	if n.d.err != nil {
		n.mu.Unlock()
		return 0, fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	id, idx, wait, err := n.d.Read(forward)
	if err != nil || wait == nil {
		n.mu.Unlock()
		return idx, err
	}
	n.d.Ready() // the barrier's confirmation round, or the forward
	n.mu.Unlock()

	// Not time.After: under go 1.22 its timer stays live for the whole
	// timeout of every read that already returned.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case idx := <-wait:
		switch {
		case idx == readSteppedDown:
			return 0, ErrLeaderStepdown
		case idx < 0:
			return 0, ErrNotLeader
		}
		return idx, nil
	case <-timer.C:
		n.mu.Lock()
		n.d.CancelRead(id)
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
	if n.d.err != nil {
		return fmt.Errorf("%w (known leader: %s)", ErrNotLeader, types.NoNode)
	}
	if err := n.core.TransferLeader(to); err != nil {
		return err
	}
	n.d.Ready()
	return nil
}

// PickTransferTarget returns the most caught-up voter inside target that
// this leader could hand off to (NoNode when none exists, or when this
// node is not the leader). Reconfigurations that shed the leader pass the
// NEW configuration so leadership lands on a surviving node.
func (n *Node) PickTransferTarget(target types.NodeSet) types.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.d.err != nil {
		return types.NoNode
	}
	return n.core.PickTransferTarget(target)
}
