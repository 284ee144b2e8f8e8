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
// every tick. A node that has never persisted a term campaigns after 1 plus
// that jitter instead: it has no leader to wait for. The owner
// (multiraft.Host) calls Tick once per ElectionTimeoutMin/ElectionTicks of
// wall time.
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

	// OnApply receives every committed batch in log order, a recovered or
	// installed snapshot's restore first, on the node's one apply
	// goroutine: the sink the state machine is fed from. Nil drops the
	// entries.
	OnApply func([]ApplyMsg)

	// StateMachine is captured for log compaction (SnapshotThreshold > 0)
	// on the apply goroutine, right after the batch that reached the
	// requested index. Nil disables local snapshots (the node still
	// installs leader-sent ones).
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

// StateMachine is the node's view of the replicated application for
// snapshotting. The node calls it between OnApply calls, never beside one
// (kvstore.Store is the canonical one).
type StateMachine interface {
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

// NotLeaderError is ErrNotLeader naming the refusing node's known leader.
type NotLeaderError = raftcore.NotLeaderError

// LeaderHint returns the leader a redirect names (NoNode when err names none).
func LeaderHint(err error) types.NodeID {
	var nl NotLeaderError
	errors.As(err, &nl)
	return nl.Leader
}

// Node is one Raft runtime instance: the concurrent shell around a Driver,
// which makes every staged-Ready decision for the raftcore.Core (driver.go).
// Create with StartNode; stop with Stop. The shell brings mu, which
// serializes every core and driver call (each core interaction ends with
// Driver.Ready); the run, flush and apply goroutines; the write lane, one
// goroutine per write the driver keeps in flight, each landing one write with
// mu released across its storage calls, so two writes overlap on the disk;
// the transport sends and the apply stream. Without Storage the driver
// reports each batch stable inline and no lane runs.
type Node struct {
	mu sync.Mutex

	id   types.NodeID
	opts Options

	core *raftcore.Core // guarded by mu
	d    *Driver        // guarded by mu

	// applyCh is the apply stream: committed batches in log order and, as
	// a nil batch, the compaction requests, each behind the batch that
	// reached its index. The apply loop drains it until Stop closes it
	// (under mu, which every sender holds); it reports each capture on
	// captured, which the run loop folds into the core. One slot is
	// enough: the core asks for the next capture only after Compact or
	// AbortSnapshot.
	applyCh    chan []ApplyMsg
	captured   chan capture
	stopCh     chan struct{}
	stopOnce   sync.Once
	applyClose sync.Once
	done       sync.WaitGroup
	applying   sync.WaitGroup // the apply loop

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

	// laneCh carries each handed-out write's sequence number to the lane.
	// It has room for every write in flight (writeDepth), so handing one out
	// never blocks.
	laneCh chan uint64
}

// capture is one state-machine image the apply loop took, or the error that
// kept it from taking one.
type capture struct {
	data    []byte
	applied int
	err     error
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
		applyCh:  make(chan []ApplyMsg, 1024),
		captured: make(chan capture, 1),
		stopCh:   make(chan struct{}),
		flushCh:  make(chan struct{}, 1),
		laneCh:   make(chan uint64, writeDepth),
	}
	n.mu.Lock() // the driver is guarded like the core it drives
	// Read ids start at the wall clock in ns, above every id an earlier
	// incarnation used: none opens a barrier per nanosecond.
	n.d = NewDriver(n.core, opts.Storage, &n.mu, (*nodeShell)(n), uint64(time.Now().UnixNano()))
	n.mu.Unlock()
	// A recovered snapshot re-seeds the (empty, restarted) state machine
	// through the apply stream before any suffix entries: OnApply's first
	// batch is the restore.
	if snap.Index > 0 {
		n.applyCh <- []ApplyMsg{restoreMsg(&snap)}
	}
	n.applying.Add(1)
	go n.applyLoop()
	n.done.Add(2)
	go n.run()
	go n.flushLoop()
	if opts.Storage != nil {
		n.done.Add(writeDepth)
		for range writeDepth {
			go n.writeLane()
		}
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

// ID returns the node's identity.
func (n *Node) ID() types.NodeID { return n.id }

// Done is closed when the node starts shutting down: it stopped, or it
// fail-stopped on a storage error.
func (n *Node) Done() <-chan struct{} { return n.stopCh }

// Stop shuts the node down and waits for its loops to exit. It returns once
// OnApply has seen every batch the node handed out.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.done.Wait()
	// Every sender holds mu and hands nothing out once stopCh is closed,
	// so closing the stream under mu is race-free.
	n.mu.Lock()
	n.applyClose.Do(func() { close(n.applyCh) })
	n.mu.Unlock()
	n.applying.Wait()
}

// nodeShell is the Node as its Driver sees it.
type nodeShell Node

func (s *nodeShell) Write(seq uint64) (take, now bool) {
	select {
	case s.laneCh <- seq:
	default: // full only once the lanes have exited: the node is stopping
	}
	return true, false
}

func (s *nodeShell) Send(m Message) { s.opts.Transport.Send(m) }

func (s *nodeShell) Apply(batch []ApplyMsg) { s.hand(batch) }

// Snapshot queues the capture behind the batch that reached req.Index: the
// release order hands out Committed before TakeSnapshot.
func (s *nodeShell) Snapshot(raftcore.SnapshotRequest) { s.hand(nil) }

// hand puts one item on the apply stream, waiting for room unless the node
// is stopping: from then on nothing more is handed out.
func (s *nodeShell) hand(batch []ApplyMsg) {
	select {
	case <-s.stopCh:
		return
	default:
	}
	select {
	case s.applyCh <- batch:
	case <-s.stopCh:
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

// Events has nothing to do: a live node writes no journal.
func (s *nodeShell) Events([]raftcore.Event) {}

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
	// Counters are the driver's fold of the core's events and its writes;
	// the chaos monitor samples them.
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
		Counters:     n.d.ctr,
		Err:          n.d.err,
	}
	if n.d.err != nil {
		s.Role = Follower
		s.Leader = types.NoNode
	}
	return s
}

// writeLane is one of the node's write-lane goroutines: each lands the writes
// the driver hands out (everything the core accumulated since the last one:
// group commit on followers as on the leader), one at a time and mu released
// across its storage calls, so the lanes' writes overlap on the disk. On
// shutdown it drops the writes in flight and fails the proposals still
// waiting.
func (n *Node) writeLane() {
	defer n.done.Done()
	for {
		var seq uint64
		select {
		case <-n.stopCh:
			n.mu.Lock()
			n.d.Stop(ErrStopped)
			n.mu.Unlock()
			return
		case seq = <-n.laneCh:
		}
		n.mu.Lock()
		if n.haltedLocked() == nil {
			n.d.Land(seq)
		}
		n.mu.Unlock()
	}
}

// applyLoop is the node's one link to its state machine: it feeds the apply
// stream to OnApply in log order and, at a compaction request, captures the
// state machine right there, between batches. It never takes mu: a holder of
// mu may be waiting for room on the stream.
func (n *Node) applyLoop() {
	defer n.applying.Done()
	for batch := range n.applyCh {
		switch {
		case batch == nil:
			var c capture
			c.data, c.applied, c.err = n.opts.StateMachine.SaveSnapshot()
			n.captured <- c
		case n.opts.OnApply != nil:
			n.opts.OnApply(batch)
		}
	}
}

// compact folds a capture into the core, or withdraws the request when the
// capture failed so the policy can fire again.
func (n *Node) compact(c capture) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case n.d.err != nil:
	case c.err != nil:
		n.core.AbortSnapshot()
	// On a follower applied may be above what this node's own disk holds;
	// the core takes the image regardless (Core.Compact) and the lane writes
	// it in place of the entries it covers.
	case n.core.Compact(c.applied, c.data):
		n.d.Ready()
	}
}

// run is the main event loop: received messages and captured images until
// shutdown.
func (n *Node) run() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			_ = n.opts.Transport.Close()
			return
		case m := <-n.opts.Inbox:
			n.step(m)
		case c := <-n.captured:
			n.compact(c)
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
// read of the current one would race with a concurrent change. A change that
// removes this leader starts a hand-off instead and is refused with
// ErrTransferInProgress: propose it again at the successor.
func (n *Node) ProposeConfig(members types.NodeSet) (int, types.Time, error) {
	n.mu.Lock()
	if err := n.haltedLocked(); err != nil {
		n.mu.Unlock()
		return 0, 0, err
	}
	idx, term, err := n.core.ProposeConfig(members)
	if err != nil {
		n.d.Ready() // a hand-off's append or MsgTimeoutNow leaves now
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

// haltedLocked reports why a proposal or a read cannot be accepted at all:
// the node fail-stopped, or it is shutting down (the write lane may already
// be gone, so nothing would ever complete the future).
func (n *Node) haltedLocked() error {
	if n.d.err != nil {
		return raftcore.NotLeader(types.NoNode)
	}
	select {
	case <-n.stopCh:
		return ErrStopped
	default:
		return nil
	}
}

// FollowerReadIndex runs one linearizable read from any replica and returns
// the index to serve it at: a caller that waits until its LOCAL state machine
// has applied through it may then serve the read from its own replica. A
// follower forwards the read to its known leader; a leader answers from its
// lease, at once in a single-voter configuration, or after a quorum round
// (concurrent reads coalesce into shared rounds). An abort is ErrNotLeader to
// retry — ErrLeaderStepdown when the read died in a CheckQuorum step-down —
// and a stopped node answers ErrStopped.
func (n *Node) FollowerReadIndex(timeout time.Duration) (int, error) {
	n.mu.Lock()
	// A stopped node's clock stands still, so a lease it held never runs
	// out: it must not answer from the state it stopped with.
	if err := n.haltedLocked(); err != nil {
		n.mu.Unlock()
		return 0, err
	}
	id, wait, err := n.d.Read()
	if err != nil {
		n.mu.Unlock()
		return 0, err
	}
	n.d.Ready() // the answer, the barrier's confirmation round, or the forward
	n.mu.Unlock()

	// Not time.After: under go 1.22 its timer stays live for the whole
	// timeout of every read that already returned.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case idx := <-wait:
		if idx < 0 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return 0, ReadAborted(idx, n.core.Leader())
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
		return raftcore.NotLeader(types.NoNode)
	}
	if err := n.core.TransferLeader(to); err != nil {
		return err
	}
	n.d.Ready()
	return nil
}
