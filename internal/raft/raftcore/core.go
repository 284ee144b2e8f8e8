package raftcore

import (
	"errors"
	"fmt"
	"slices"

	"adore/internal/config"
	"adore/internal/types"
)

// Errors returned by the client-facing API. The runtime driver (package
// raft) re-exports them unchanged.
var (
	// ErrNotLeader reports that the node cannot serve the request; the
	// caller should retry against the current leader.
	ErrNotLeader = errors.New("raft: not the leader")
	// ErrReconfigPending rejects a membership change while another is
	// uncommitted (R2).
	ErrReconfigPending = errors.New("raft: a configuration change is already in progress (R2)")
	// ErrReconfigNotReady rejects a membership change before the leader
	// has committed an entry in its current term (R3).
	ErrReconfigNotReady = errors.New("raft: no committed entry in the current term yet (R3)")
	// ErrBadMembership rejects changes that are not single-node (R1) or
	// would empty the cluster.
	ErrBadMembership = errors.New("raft: invalid membership change (R1)")
	// ErrLeaderStepdown reports that the leader relinquished leadership
	// because CheckQuorum saw no quorum contact for an election interval.
	// Retryable: the proposal may or may not commit (a Maybe outcome) and
	// the caller should re-probe for the next leader immediately.
	ErrLeaderStepdown = errors.New("raft: leader stepped down (no quorum contact)")
	// ErrTransferInProgress rejects proposals while a leadership transfer
	// is pausing the log; retry once the handoff resolves.
	ErrTransferInProgress = errors.New("raft: leadership transfer in progress")
	// ErrBadTransferTarget rejects a transfer to a node outside the
	// effective configuration (or with no eligible target at all).
	ErrBadTransferTarget = errors.New("raft: no eligible leadership-transfer target")
)

// NotLeaderError is the redirect a node answers a request it cannot serve
// with: errors.Is(err, ErrNotLeader) holds, and errors.As reads Leader, the
// node's last known leader (NoNode when it knows none).
type NotLeaderError struct{ Leader types.NodeID }

// NotLeader builds the redirect naming leader.
func NotLeader(leader types.NodeID) error { return NotLeaderError{leader} }

func (e NotLeaderError) Error() string {
	return fmt.Sprintf("%v (known leader: %s)", ErrNotLeader, e.Leader)
}

func (e NotLeaderError) Unwrap() error { return ErrNotLeader }

// MaxEntriesPerAppend caps the entries carried by one AppendEntries message.
// The leader streams a lagging follower's log as a pipeline of bounded
// windows (advancing nextIndex optimistically per send) instead of
// re-sending the full suffix stop-and-wait.
const MaxEntriesPerAppend = 256

// MaxSnapshotChunk caps the snapshot-image bytes carried by one
// InstallSnapshot message: a leader streams an image as a burst of chunks
// this size.
const MaxSnapshotChunk = 64 << 10

// Config parameterizes a Core. Time is abstract: the caller advances the
// core with Tick calls, and all intervals are counted in those ticks.
type Config struct {
	// ID is this node's identity; Members the initial cluster.
	ID      types.NodeID
	Members []types.NodeID

	// ElectionTicks is the minimum number of ticks without leader contact
	// before a node campaigns; each timer arm adds Jitter() extra ticks.
	// The one exception is the first arm of a core that recovered nothing
	// (term 0), which waits 1 + Jitter(). Zero gets a default of 10.
	ElectionTicks int

	// Jitter supplies the randomized share of each election timeout, in
	// ticks. The core itself contains no randomness — the caller owns the
	// seed (the runtime driver closes over a seeded rand; the simulator
	// hands out deterministic values). Nil means no jitter.
	Jitter func() int

	// HeartbeatTicks is the leader's broadcast cadence in ticks. Zero
	// gets a default of 1 (broadcast every tick).
	HeartbeatTicks int

	// SnapshotThreshold is the compaction policy: once at least this many
	// applied entries sit above the snapshot base, TakeReady emits a
	// TakeSnapshot effect asking the application to capture a
	// state-machine image (answered via Compact). Zero disables local
	// snapshotting; the node still accepts InstallSnapshot from leaders.
	SnapshotThreshold int

	// Ablation switches individual protocol guards off (experiments only).
	Ablation
}

// Ablation is the one set of guard-removal switches every layer above the
// core embeds and forwards whole: the runtime's options structs, the
// simulator and the chaos harness all carry this value instead of re-declaring
// its fields. The zero value is the full protocol.
type Ablation struct {
	// DisableR3 reproduces the published single-server bug: reconfig no
	// longer waits for a committed entry in the leader's current term.
	// For experiments only.
	DisableR3 bool

	// DisableR2 drops the "no uncommitted configuration entry" guard, so
	// a second membership change can be proposed while the first is still
	// in flight. Disjoint quorums become reachable — the chaos harness
	// uses this to prove it can catch the resulting divergence. For
	// experiments only.
	DisableR2 bool

	// DisablePreVote skips the term-neutral pre-election: a timed-out
	// node increments its term and campaigns directly, so a partitioned
	// node rejoins with an inflated term and deposes a healthy leader.
	// The chaos harness uses this to prove its disruption oracle bites.
	// For experiments only.
	DisablePreVote bool

	// DisableCheckQuorum keeps a leader that cannot reach a quorum — or
	// whose own disk has stalled — in the Leader role indefinitely (it
	// silently stalls instead of stepping down and failing in-flight
	// proposals with a retryable error). For experiments only.
	DisableCheckQuorum bool

	// DisableLeaseRead is the one lease switch: the leader answers no read
	// from its lease, so every read in a multi-voter configuration pays a
	// ReadIndex quorum round. The lease rests on the same bounded-asymmetry
	// assumption as CheckQuorum and follower stickiness (all three count the
	// same election-interval clock in the same tick units); deployments that
	// distrust it can disable leases alone without losing ReadIndex.
	DisableLeaseRead bool

	// DisableLeaseGuard drops the lease invalidations that protect reads
	// across leadership transfer (MsgTimeoutNow elects a successor without
	// waiting out any timeout) and in-flight reconfiguration (the quorum
	// the lease counted may not intersect the new configuration's — the
	// Schultz-style hazard). With the guard off a deposed leader can keep
	// serving a stale lease; the chaos harness uses this to prove its
	// stale-read oracle bites. For experiments only.
	DisableLeaseGuard bool

	// DisablePipelineGuard lets a second write go out beside the
	// outstanding one even when either carries a HardState, or the log was
	// cut after the older one was taken. A late older write can then land
	// stale entries over the younger one's, or the younger one's landing
	// can report a vote durable that is not on disk yet. The chaos harness
	// uses this to prove its acked⇒durable oracles bite. For experiments
	// only.
	DisablePipelineGuard bool
}

func (c *Config) defaults() {
	if c.ElectionTicks <= 0 {
		c.ElectionTicks = 10
	}
	if c.HeartbeatTicks <= 0 {
		c.HeartbeatTicks = 1
	}
}

// Core is the pure raft state machine. It is not safe for concurrent use:
// the caller serializes Step/Tick/Propose/... and drives the staged Ready
// contract: TakeUnstable hands out what to persist — up to two batches at a
// time, the second only a pure append beside a pure append — Stable reports
// one landed, TakeEffects hands out what may leave now (TakeReady is the
// three in one call, for drivers that persist synchronously).
type Core struct {
	id  types.NodeID
	cfg Config

	term     types.Time
	votedFor types.NodeID
	role     Role
	leader   types.NodeID // last known leader

	// The log is compacted: entries [1, snapIndex] are summarized by a
	// snapshot and only the suffix is held. log[0] is a sentinel carrying
	// the base term, so absolute index i lives at log[i-snapIndex] and
	// the first retained entry is snapIndex+1. A fresh node has
	// snapIndex 0 and the classic 1-indexed log.
	log         []LogEntry
	snapIndex   int
	snapTerm    types.Time
	snapMembers []types.NodeID // effective membership at snapIndex (nil = conf0)
	snapData    []byte         // latest snapshot image, kept to catch up laggards
	commitIndex int
	lastApplied int
	// leaderMatch is the highest index at which this log is known to agree
	// with the current-term leader's: raised by that leader's accepted
	// appends and snapshot installs, zeroed wherever the term changes. By Log
	// Matching every entry at or below it IS the leader's entry, so it is as
	// far as a commit index named by the leader may be believed (learnCommit).
	leaderMatch int

	// Leader volatile state.
	nextIndex  map[types.NodeID]int
	matchIndex map[types.NodeID]int
	votes      types.NodeSet // vote or pre-vote tally (role disambiguates)
	// snapSent records, per peer, the tick of the last snapshot transfer,
	// pacing resends to one per election interval.
	snapSent map[types.NodeID]int64
	// peerActive records, per peer, the tick of the last current-term
	// response; CheckQuorum steps the leader down when a majority of the
	// configuration has been silent for an election interval.
	peerActive    map[types.NodeID]int64
	quorumElapsed int
	// ackTick records, per peer, the tick of the last current-term append
	// response — the lease clock. Unlike peerActive it is never grace-
	// seeded (CheckQuorum's benefit-of-the-doubt for unheard peers would
	// fabricate the very freshness a lease must prove), so a lease is
	// granted only on quorum acks actually observed.
	ackTick map[types.NodeID]int64
	// termStart is the index of this leader's term-opening no-op: the
	// floor for every read barrier (see readFloor).
	termStart int
	// transferTarget, while non-zero, is the peer an in-flight leadership
	// transfer is handing off to; proposals pause until the handoff
	// completes or transferDeadline passes.
	transferTarget   types.NodeID
	transferDeadline int64

	// conf0 is the initial membership; the effective membership is the
	// latest config entry in the log (hot reconfiguration), falling back
	// to the snapshot's membership once config entries are compacted.
	conf0 types.NodeSet
	// confIdxs caches the absolute positions of EntryConfig entries in
	// the retained log, in ascending order, so membership lookups cost
	// O(#configs) instead of a backward scan over the whole log. Every
	// log append/truncation/compaction keeps it in sync.
	confIdxs []int

	// Logical clock: electionElapsed ticks since the last timer arm,
	// against a timeout of ElectionTicks + the jitter drawn at arm time.
	// ticks counts every Tick since boot (snapshot resend pacing).
	// leaderContact is the tick of the last accepted append/install from
	// the current-term leader; a follower with contact fresher than an
	// election interval is "sticky" and refuses disruptive (pre-)votes.
	electionElapsed  int
	electionTimeout  int
	heartbeatElapsed int
	ticks            int64
	leaderContact    int64

	// pendingReads are ReadIndex barriers awaiting quorum confirmation.
	pendingReads []*pendingRead

	// appendSeq numbers outgoing AppendEntries; followers echo it in
	// their responses so barriers can tell fresh acks from stale
	// in-flight ones.
	appendSeq uint64

	// inSnap is the in-progress inbound snapshot transfer (follower side).
	inSnap *inboundSnap
	// snapRequested is set while a TakeSnapshot effect is outstanding, so
	// the policy fires once per threshold crossing.
	snapRequested bool

	// Durability watermark. stableIndex is the highest log index known to
	// be on disk: every entry at or below it survives a crash. It trails
	// lastIndex while a write is outstanding, is clipped by truncation
	// (unstableFrom), and sits below snapIndex only while a snapshot — an
	// installed one, or a local compaction of entries applied ahead of the
	// disk — is still being written. Every promise is judged against it: the
	// leader's own vote in advanceCommit, what sendAppend ships, what a
	// follower's ack may claim, what the leader delivers as Committed. What a
	// non-leader delivers is not a promise and is not (applyLimit).
	stableIndex int

	// What to persist next, drained by TakeUnstable.
	hsDirty   bool // term/votedFor changed since last TakeUnstable
	dirtyFrom int  // lowest absolute log index changed since last TakeUnstable (0 = clean)
	// pendingSnap is a snapshot awaiting persistence in the next Unstable;
	// pendingRestore marks it leader-installed (the driver must restore the
	// state machine from it once it is durable).
	pendingSnap    *Snapshot
	pendingRestore bool
	// inflight holds the batches handed out by TakeUnstable whose landing
	// Stable has not reported yet, oldest first: at most two, and two only
	// when both are pure appends (see pipelinable). A batch a younger one's
	// landing covered stays here, covered, until it lands itself: it is
	// still on its way to the disk.
	inflight []inflightWrite

	// Held effects, released only by Stable. held are messages produced
	// while the HardState was unstable (vote grants, vote requests,
	// anything stamped with a newly adopted term); heldAck is a follower's
	// success ack claiming a MatchIndex above the stable index. A term
	// change discards both: an undelivered promise at a superseded term is
	// just a lost message.
	held    []Message
	heldAck *Message

	// What may leave now, drained by TakeEffects.
	msgs       []Message   // outbound, in release order
	readStates []ReadState // answered reads asked at this node
	restore    *Snapshot   // leader-installed snapshot, now durable
	events     []Event     // reported facts, drained (and the buffer reused) by TakeEvents
}

// inflightWrite describes one outstanding Unstable batch.
type inflightWrite struct {
	hs      bool      // the batch carries a HardState
	last    int       // last log index the batch's entries make durable (0 = none); clipped by unstableFrom
	snap    *Snapshot // the batch carries this snapshot
	restore bool      // ...which is leader-installed
	cut     bool      // the log was cut (unstableFrom) after the batch was taken
	covered bool      // a younger batch landed first: what this one writes is durable
	since   int64     // tick the batch was handed out (stalled-disk step-down)
}

// pendingRead is one ReadIndex barrier: the read floor captured at
// request time, the leadership confirmations gathered since, and every
// waiter sharing the barrier.
type pendingRead struct {
	waiters []readOrigin
	index   int
	term    types.Time
	seq     uint64 // only acks echoing a seq beyond this confirm the barrier
	acks    types.NodeSet
}

// readOrigin identifies a read waiting for a barrier: the node that asked
// (this one, or a follower that forwarded it) and the ctx it keyed its
// waiter under.
type readOrigin struct {
	node types.NodeID
	ctx  uint64
}

// inboundSnap reassembles one chunked snapshot transfer on the follower.
type inboundSnap struct {
	index   int
	term    types.Time
	members []types.NodeID
	total   int
	buf     []byte
}

// New builds a core from a configuration and recovered durable state: hs,
// the snapshot base (zero Index when none), and the retained log suffix —
// entries holds the entries after snap.Index, without any sentinel, as
// returned by the driver's storage Load.
func New(cfg Config, hs HardState, snap Snapshot, entries []LogEntry) *Core {
	cfg.defaults()
	log := make([]LogEntry, 1, len(entries)+1)
	log[0] = LogEntry{Term: snap.Term} // sentinel carries the base term
	log = append(log, entries...)
	c := &Core{
		id:          cfg.ID,
		cfg:         cfg,
		role:        Follower,
		term:        hs.Term,
		votedFor:    hs.VotedFor,
		log:         log,
		snapIndex:   snap.Index,
		snapTerm:    snap.Term,
		snapMembers: snap.Members,
		snapData:    snap.Data,
		commitIndex: snap.Index,                // everything a snapshot covers was committed
		lastApplied: snap.Index,                // the driver restores the SM from the image
		stableIndex: snap.Index + len(entries), // recovered from disk, so on disk
		inflight:    make([]inflightWrite, 0, 2),
		conf0:       types.NewNodeSet(cfg.Members...),
	}
	// Seed the config-index cache from the recovered suffix (one scan,
	// here only; afterwards every append/truncation maintains it).
	for i := 1; i < len(log); i++ { // 0 is the sentinel
		if log[i].Kind == EntryConfig {
			c.confIdxs = append(c.confIdxs, snap.Index+i)
		}
	}
	c.resetElectionTimer()
	// A core that recovered nothing (term 0: no vote, no log, no snapshot)
	// has never acked an append or granted a vote, so it is no one's lease
	// voter and has no leader to stick to. Its first timer skips the idle
	// interval; its pre-vote still needs a majority, which sticky followers
	// refuse. Every later arm is the full interval.
	if hs.Term == 0 && snap.Index == 0 && len(entries) == 0 {
		c.electionTimeout -= c.cfg.ElectionTicks - 1
	}
	return c
}

// --- Accessors (all cheap; the caller holds whatever lock guards the core) ---

// ID returns the node's identity.
func (c *Core) ID() types.NodeID { return c.id }

// Term returns the current term.
func (c *Core) Term() types.Time { return c.term }

// Role returns the current protocol role.
func (c *Core) Role() Role { return c.role }

// Leader returns the last known leader (possibly NoNode).
func (c *Core) Leader() types.NodeID { return c.leader }

// CommitIndex returns the commit index.
func (c *Core) CommitIndex() int { return c.commitIndex }

// LastIndex returns the absolute index of the last log entry (0 when the
// log is empty and nothing was ever compacted).
func (c *Core) LastIndex() int { return c.lastIndex() }

// StableIndex returns the highest log index known durable: what a crash at
// this instant would recover. It is this replica's support in the paper's
// sense — the log a quorum may count on.
func (c *Core) StableIndex() int { return c.stableIndex }

// AppliedIndex returns the highest index handed out as Committed (or covered
// by an installed snapshot). On a non-leader it may exceed StableIndex.
func (c *Core) AppliedIndex() int { return c.lastApplied }

// FirstIndex returns the absolute index of the first retained log entry,
// snapIndex+1: entries below it live only in the snapshot.
func (c *Core) FirstIndex() int { return c.snapIndex + 1 }

// SnapshotIndex returns the snapshot base index (0 = no snapshot).
func (c *Core) SnapshotIndex() int { return c.snapIndex }

// SnapshotTerm returns the term of the entry at the snapshot base.
func (c *Core) SnapshotTerm() types.Time { return c.snapTerm }

// Entry returns the log entry at absolute index i, which must be in
// [FirstIndex, LastIndex]. The returned value shares the underlying
// command/member slices; callers must not mutate.
func (c *Core) Entry(i int) LogEntry { return c.entryAt(i) }

func (c *Core) lastIndex() int { return c.snapIndex + len(c.log) - 1 }

func (c *Core) entryAt(i int) LogEntry { return c.log[i-c.snapIndex] }

// termAt returns the term at absolute index i, valid for
// i in [snapIndex, lastIndex] (the sentinel holds the base term).
func (c *Core) termAt(i int) types.Time { return c.log[i-c.snapIndex].Term }

// baseMembers is the membership at the snapshot base (conf0 when nothing
// was ever compacted or the snapshot predates any reconfiguration).
func (c *Core) baseMembers() types.NodeSet {
	if c.snapMembers != nil {
		return types.NewNodeSet(c.snapMembers...)
	}
	return c.conf0
}

// Members returns the current effective membership (the latest
// configuration in the log, committed or not — hot reconfiguration).
func (c *Core) Members() types.NodeSet {
	if k := len(c.confIdxs); k > 0 {
		return types.NewNodeSet(c.entryAt(c.confIdxs[k-1]).Members...)
	}
	return c.baseMembers()
}

// CommittedMembers is the membership ignoring uncommitted config entries
// (used for R2 checks and diagnostics).
func (c *Core) CommittedMembers() types.NodeSet {
	for i := len(c.confIdxs) - 1; i >= 0; i-- {
		if c.confIdxs[i] <= c.commitIndex {
			return types.NewNodeSet(c.entryAt(c.confIdxs[i]).Members...)
		}
	}
	return c.baseMembers()
}

// membersAt returns a copy of the effective membership at absolute index
// idx, which must be committed (compaction only covers committed
// prefixes, so every config at or below idx is final).
func (c *Core) membersAt(idx int) []types.NodeID {
	for i := len(c.confIdxs) - 1; i >= 0; i-- {
		if c.confIdxs[i] <= idx {
			return copyIDs(c.entryAt(c.confIdxs[i]).Members)
		}
	}
	if c.snapMembers != nil {
		return copyIDs(c.snapMembers)
	}
	return c.conf0.Slice()
}

// copyIDs returns a fresh copy of a member list.
func copyIDs(src []types.NodeID) []types.NodeID {
	out := make([]types.NodeID, len(src))
	copy(out, src)
	return out
}

// --- Effect bookkeeping ---

func (c *Core) markHardState() { c.hsDirty = true }

func (c *Core) markEntries(from int) {
	if c.dirtyFrom == 0 || from < c.dirtyFrom {
		c.dirtyFrom = from
	}
}

// unstableFrom records that the log changed shape at pos (a conflict
// truncation, or a snapshot install replacing it wholesale): nothing at or
// above pos is durable any more, whatever an outstanding write lands, and no
// write goes out beside the outstanding ones (see pipelinable).
func (c *Core) unstableFrom(pos int) {
	if c.stableIndex >= pos {
		c.stableIndex = pos - 1
	}
	for i := range c.inflight {
		c.inflight[i].last = min(c.inflight[i].last, pos-1)
		c.inflight[i].cut = true
	}
}

// hardStateUnstable reports whether the current term and vote are not yet
// known durable (changed since the last TakeUnstable, or in an outstanding
// batch).
func (c *Core) hardStateUnstable() bool {
	return c.hsDirty || slices.ContainsFunc(c.inflight, func(w inflightWrite) bool { return !w.covered && w.hs })
}

// heldByHardState classifies messages by whether they promise anything about
// the sender's term or vote. Pre-Vote traffic is term-neutral by design,
// forwarded reads only carry an index the reader still waits to apply, and
// TimeoutNow asks the receiver to act: none of them may wait for a disk.
// Everything else — votes, appends, snapshots, and any type added later —
// is held: waiting for the disk is the safe side.
func heldByHardState(t MessageType) bool {
	switch t {
	case MsgPreVoteRequest, MsgPreVoteResponse, MsgTimeoutNow, MsgReadIndexRequest, MsgReadIndexResponse:
		return false
	default:
		return true
	}
}

// send queues an outbound message: for release now, or — while the HardState
// it was produced under is unstable — for release by Stable.
func (c *Core) send(m Message) {
	if c.hardStateUnstable() && heldByHardState(m.Type) {
		c.held = append(c.held, m)
		return
	}
	c.msgs = append(c.msgs, m)
}

// emit reports one fact for the next Effects.
func (c *Core) emit(k EventKind) { c.events = append(c.events, Event{Kind: k}) }

// dropHeld discards everything held at the term being left.
func (c *Core) dropHeld() {
	c.held = nil
	c.heldAck = nil
}

// HasUnstable reports whether TakeUnstable would hand out a batch right now.
func (c *Core) HasUnstable() bool {
	if !c.hsDirty && c.pendingSnap == nil && c.dirtyFrom == 0 {
		return false
	}
	switch len(c.inflight) {
	case 0:
		return true
	case 1:
		return c.pipelinable()
	default:
		return false
	}
}

// pipelinable reports whether the next batch may go out beside the one
// outstanding batch: only if both are pure appends — neither carries a
// HardState or a snapshot — and the log was not cut after the older one was
// taken. The second write then starts at stableIndex+1, so it covers the
// older one whole, and whichever lands first has made both durable. Any other
// batch waits until nothing is in flight, covered batches included, which
// keeps the one durability order of HardState, then snapshot, then entries.
func (c *Core) pipelinable() bool {
	w := c.inflight[0]
	if c.pendingSnap != nil || w.snap != nil {
		return false
	}
	return c.cfg.DisablePipelineGuard || (!c.hsDirty && !w.hs && !w.cut)
}

// TakeUnstable hands out everything that needs persisting as one batch, or
// ok=false when there is nothing to persist or HasUnstable refuses a batch
// beside the outstanding ones. A batch taken beside an outstanding one (see
// pipelinable) rewrites the log from stableIndex+1; whatever accumulates
// meanwhile goes out as the next single batch — group commit.
func (c *Core) TakeUnstable() (u Unstable, ok bool) {
	if !c.HasUnstable() {
		return Unstable{}, false
	}
	w := inflightWrite{since: c.ticks}
	if c.hsDirty {
		hs := HardState{Term: c.term, VotedFor: c.votedFor}
		u.HardState = &hs
		c.hsDirty = false
		w.hs = true
	}
	if c.pendingSnap != nil {
		u.Snapshot = c.pendingSnap
		w.snap, w.restore = c.pendingSnap, c.pendingRestore
		c.pendingSnap = nil
		c.pendingRestore = false
	}
	if c.dirtyFrom != 0 {
		u.FirstIndex = c.dirtyFrom
		if len(c.inflight) > 0 {
			u.FirstIndex = c.stableIndex + 1 // covers the outstanding write
		}
		// A copy: the driver reads it with no lock held while the core keeps
		// appending to (and truncating) the live log.
		u.Entries = make([]LogEntry, len(c.log)-(u.FirstIndex-c.snapIndex))
		copy(u.Entries, c.log[u.FirstIndex-c.snapIndex:])
		w.last = c.lastIndex()
		c.dirtyFrom = 0
	}
	c.inflight = append(c.inflight, w)
	return u, true
}

// Stable reports that the n-th oldest outstanding Unstable batch landed. It
// and every older batch are then durable: a batch taken beside another
// rewrites the log from the stable index up, so it covers the older one. The
// older ones stay outstanding, covered, until they land too, and their own
// Stable then only retires them. Stable is the only thing that releases
// persistence-dependent effects: messages held for the HardState, a
// follower's held append ack (clamped to the new stable index), the leader's
// broadcast of the newly stable suffix and its own vote in advanceCommit —
// once per call, however many batches it covers — the restore of an
// installed snapshot with the commit deliveries held behind it, and — through
// TakeEffects — the leader's commit deliveries at or below the new stable
// index. Without an n-th outstanding batch it does nothing.
func (c *Core) Stable(n int) {
	if n < 1 || n > len(c.inflight) {
		return
	}
	advanced, hs := false, false
	for i := range c.inflight[:n] {
		w := &c.inflight[i]
		if w.covered {
			continue
		}
		w.covered = true
		if w.snap != nil {
			if w.snap.Index > c.stableIndex {
				c.stableIndex = w.snap.Index
				advanced = true
			}
			if w.restore {
				c.restore = w.snap
			}
		}
		if w.last > c.stableIndex {
			c.stableIndex = w.last
			advanced = true
		}
		hs = hs || w.hs
	}
	c.inflight = slices.Delete(c.inflight, n-1, n)
	if hs && !c.hardStateUnstable() {
		c.msgs = append(c.msgs, c.held...)
		c.held = nil
	}
	if !advanced {
		return
	}
	if c.role == Leader {
		c.broadcastAppend()
	} else {
		c.releaseAck()
	}
}

// TakeEffects drains what may leave the node now.
func (c *Core) TakeEffects() Effects {
	var e Effects
	e.Messages = c.msgs
	c.msgs = nil
	e.ReadStates = c.readStates
	c.readStates = nil
	e.Restore = c.restore
	c.restore = nil
	e.Events = c.TakeEvents()
	if limit := c.applyLimit(); c.lastApplied < limit {
		e.Committed = make([]ApplyMsg, 0, limit-c.lastApplied)
		for c.lastApplied < limit {
			c.lastApplied++
			en := c.entryAt(c.lastApplied)
			e.Committed = append(e.Committed, ApplyMsg{
				Index: c.lastApplied, Term: en.Term, Kind: en.Kind, Command: en.Command, Members: en.Members,
			})
		}
	}
	// Compaction policy: enough applied entries above the base ⇒ ask the
	// application for a state-machine image (once per crossing).
	if c.cfg.SnapshotThreshold > 0 && !c.snapRequested &&
		c.lastApplied-c.snapIndex >= c.cfg.SnapshotThreshold {
		c.snapRequested = true
		e.TakeSnapshot = &SnapshotRequest{Index: c.lastApplied}
	}
	return e
}

// TakeEvents drains the reported facts alone (nil when none), for a driver
// that fail-stopped and so takes no other effect again; see Effects.Events.
func (c *Core) TakeEvents() (ev []Event) {
	if len(c.events) > 0 {
		ev, c.events = c.events, c.events[:0]
	}
	return ev
}

// applyLimit is how far Committed may be delivered: apply ⊆ committed. That
// an entry committed is a fact about a quorum's disks, not about this one. Off
// the leader the commit index is already clamped to leaderMatch (learnCommit),
// so the entry in memory IS the committed entry and delivering it waits for no
// local write: a crash rebuilds the state machine from snapshot + WAL and
// fetches whatever was applied early again, identically. The leader alone
// stays under its stable index — its own copy may be the vote that commits,
// and advanceCommit counts it only once stable, so under persist-before-
// replicate this is a theorem; it is kept as the guard a leader that
// replicates while it writes will lean on. Promises (votes, acks) still wait
// for Stable; knowledge does not.
//
// Nothing is delivered while a leader-installed snapshot waits for its write:
// entries above the image apply to the state machine the undelivered Restore
// builds, not to the one the driver still holds.
func (c *Core) applyLimit() int {
	if c.pendingRestore || slices.ContainsFunc(c.inflight, func(w inflightWrite) bool { return w.restore }) {
		return c.lastApplied
	}
	if c.role == Leader {
		return min(c.commitIndex, c.stableIndex)
	}
	return c.commitIndex
}

// TakeReady is the staged contract in one call, for drivers that persist
// synchronously: TakeUnstable, Stable, TakeEffects. The caller must persist
// HardState, Snapshot, and Entries before sending Messages, resolving
// ReadStates, or delivering Committed, and must discard the batch and halt
// if the persist fails (see the Ready contract).
func (c *Core) TakeReady() Ready {
	u, ok := c.TakeUnstable()
	if ok {
		c.Stable(1)
	}
	e := c.TakeEffects()
	return Ready{
		HardState:       u.HardState,
		Snapshot:        u.Snapshot,
		RestoreSnapshot: e.Restore != nil,
		FirstIndex:      u.FirstIndex,
		Entries:         u.Entries,
		Messages:        e.Messages,
		Committed:       e.Committed,
		ReadStates:      e.ReadStates,
		TakeSnapshot:    e.TakeSnapshot,
		Events:          e.Events,
	}
}

// --- Compaction ---

// Compact answers a TakeSnapshot request: data is the state machine's
// serialized image with everything through absolute index idx applied.
// The committed prefix [1, idx] is folded into the snapshot base and the
// in-memory log truncated to the suffix; the durable counterpart is the
// Snapshot carried by the next Unstable (written before the entries that
// truncate the WAL prefix it replaces). Any applied index is accepted, the
// stable index notwithstanding: off the leader apply runs ahead of the local
// disk, and an image of committed state needs no WAL under it — the entries
// it covers that never reached this disk are simply never written, and the
// image's own Stable lifts the watermark to idx. (Clamping to the stable
// index instead would starve compaction on a follower that is always a few
// entries ahead of its disk.) Stale or out-of-range indexes are rejected
// with false.
func (c *Core) Compact(idx int, data []byte) bool {
	c.snapRequested = false
	if idx <= c.snapIndex || idx > c.lastApplied {
		return false
	}
	term := c.termAt(idx)
	members := c.membersAt(idx)
	suffix := c.log[idx-c.snapIndex:]
	log := make([]LogEntry, len(suffix))
	copy(log, suffix)
	log[0] = LogEntry{Term: term} // new sentinel for the new base
	c.log = log
	c.snapIndex, c.snapTerm = idx, term
	c.snapMembers = members
	c.snapData = data
	for len(c.confIdxs) > 0 && c.confIdxs[0] <= idx {
		c.confIdxs = c.confIdxs[1:]
	}
	// Dirty entries at or below the base are superseded by the snapshot
	// persist; only a surviving dirty suffix still needs a log write.
	if c.dirtyFrom != 0 && c.dirtyFrom <= idx {
		if idx < c.lastIndex() {
			c.dirtyFrom = idx + 1
		} else {
			c.dirtyFrom = 0
		}
	}
	c.pendingSnap = &Snapshot{Index: idx, Term: term, Members: members, Data: data}
	c.pendingRestore = false
	return true
}

// AbortSnapshot withdraws an outstanding TakeSnapshot request (the
// application could not produce an image); the policy re-fires on the
// next TakeEffects whose applied distance still crosses the threshold.
func (c *Core) AbortSnapshot() { c.snapRequested = false }

// --- Clock ---

func (c *Core) resetElectionTimer() {
	c.electionElapsed = 0
	c.electionTimeout = c.cfg.ElectionTicks
	if c.cfg.Jitter != nil {
		c.electionTimeout += c.cfg.Jitter()
	}
}

// Tick advances the logical clock by one unit: leaders fire heartbeats on
// their cadence (and run the CheckQuorum and transfer-deadline timers),
// non-leaders count toward an election timeout.
func (c *Core) Tick() {
	c.ticks++
	if c.role == Leader {
		// A leader whose own disk has accepted nothing for an election
		// interval can heartbeat forever and commit nothing. Like a leader
		// that lost its quorum it cannot make progress, so the same guard
		// (and the same experiment knob) hands the cluster to a replica
		// that can write.
		if !c.cfg.DisableCheckQuorum && c.diskStalled() {
			c.stepDown()
			return
		}
		c.heartbeatElapsed++
		if c.heartbeatElapsed >= c.cfg.HeartbeatTicks {
			c.heartbeatElapsed = 0
			c.broadcastAppend()
		}
		// An unacknowledged transfer dies at its deadline: the target was
		// unreachable (or its campaign lost); resume serving proposals.
		if c.transferTarget != types.NoNode && c.ticks >= c.transferDeadline {
			c.cancelTransfer()
		}
		// CheckQuorum: every election interval, verify a majority of the
		// configuration responded within the last interval; a minority-
		// side leader steps down instead of stalling silently.
		if !c.cfg.DisableCheckQuorum {
			c.quorumElapsed++
			if c.quorumElapsed >= c.cfg.ElectionTicks {
				c.quorumElapsed = 0
				if !c.hasQuorumContact() {
					c.stepDown()
				}
			}
		}
		return
	}
	c.electionElapsed++
	if c.electionElapsed >= c.electionTimeout {
		// A node outside its own effective configuration must not
		// disrupt the cluster with elections (it has been removed), and
		// one whose disk is stalled could not persist the ballot.
		if !c.Members().Contains(c.id) || c.diskStalled() {
			c.resetElectionTimer()
			return
		}
		if c.cfg.DisablePreVote {
			c.emit(EventTimeoutCampaign)
			c.startElection(false)
			return
		}
		c.startPreVote()
	}
}

// diskStalled reports whether the oldest outstanding Unstable batch not yet
// known durable has waited a full election interval for its Stable.
func (c *Core) diskStalled() bool {
	i := slices.IndexFunc(c.inflight, func(w inflightWrite) bool { return !w.covered })
	return i >= 0 && c.ticks-c.inflight[i].since >= int64(c.cfg.ElectionTicks)
}

// hasQuorumContact reports whether a majority of the configuration
// (counting this leader) responded within the last election interval.
// A peer never heard from is granted one interval of grace from first
// check — covers both a fresh leadership and a just-added member.
func (c *Core) hasQuorumContact() bool {
	members := c.Members()
	count := 0
	for _, id := range members.Slice() {
		if id == c.id {
			count++
			continue
		}
		last, ok := c.peerActive[id]
		if !ok {
			c.peerActive[id] = c.ticks
			count++
			continue
		}
		if c.ticks-last < int64(c.cfg.ElectionTicks) {
			count++
		}
	}
	return config.MajorityCount(count, members)
}

// stepDown relinquishes leadership without a term change (CheckQuorum, or
// a stalled disk): pending reads abort, any transfer dies, and the driver
// learns of it by its EventStepDown so in-flight proposals fail retryably.
func (c *Core) stepDown() {
	c.role = Follower
	c.leader = types.NoNode
	c.emit(EventStepDown)
	c.abortReads()
	c.cancelTransfer()
	c.resetElectionTimer()
}

// --- Elections ---

// stickyLeader reports whether this follower heard from a current-term
// leader within the last election interval; while it did, disruptive
// (pre-)vote requests are refused so a healthy leader is not deposed.
func (c *Core) stickyLeader() bool {
	return c.role == Follower && c.leader != types.NoNode &&
		c.ticks-c.leaderContact < int64(c.cfg.ElectionTicks)
}

// startPreVote opens a term-neutral pre-election: canvass the effective
// configuration at term+1 without changing term or vote (nothing here
// needs persistence), and only campaign for real once a majority grants.
func (c *Core) startPreVote() {
	c.role = PreCandidate
	c.votes = types.NewNodeSet(c.id)
	c.emit(EventPreVoteRound)
	c.resetElectionTimer()
	lastIdx := c.lastIndex()
	req := Message{
		Type:         MsgPreVoteRequest,
		From:         c.id,
		Term:         c.term + 1,
		LastLogIndex: lastIdx,
		LastLogTerm:  c.termAt(lastIdx),
	}
	for _, to := range c.Members().Slice() {
		if to == c.id {
			continue
		}
		req.To = to
		c.send(req)
	}
	c.maybePreVoteWin()
}

// maybePreVoteWin escalates a pre-candidate with a majority of pre-vote
// grants (judged against the current, possibly mid-reconfig, config)
// into a real election.
func (c *Core) maybePreVoteWin() {
	if c.role != PreCandidate {
		return
	}
	if !config.Majority(c.votes, c.Members()) {
		return
	}
	c.emit(EventPreVoteWon)
	c.startElection(false)
}

// startElection begins a candidacy for the next term. transfer marks a
// campaign the old leader opened deliberately (MsgTimeoutNow): its vote
// requests bypass follower stickiness. The requests are held until the
// self-vote is stable.
func (c *Core) startElection(transfer bool) {
	c.term++
	c.leaderMatch = 0
	c.role = Candidate
	c.votedFor = c.id
	c.markHardState()
	c.dropHeld()
	c.votes = types.NewNodeSet(c.id)
	c.emit(EventElection)
	c.resetElectionTimer()
	lastIdx := c.lastIndex()
	req := Message{
		Type:         MsgVoteRequest,
		From:         c.id,
		Term:         c.term,
		LastLogIndex: lastIdx,
		LastLogTerm:  c.termAt(lastIdx),
		Transfer:     transfer,
	}
	for _, to := range c.Members().Slice() {
		if to == c.id {
			continue
		}
		req.To = to
		c.send(req)
	}
	c.maybeWin()
}

// maybeWin promotes a candidate with a quorum of votes.
func (c *Core) maybeWin() {
	if c.role != Candidate {
		return
	}
	members := c.Members()
	if !config.Majority(c.votes, members) {
		return // not a strict majority
	}
	c.role = Leader
	c.leader = c.id
	c.heartbeatElapsed = 0
	c.quorumElapsed = 0
	c.nextIndex = make(map[types.NodeID]int)
	c.matchIndex = make(map[types.NodeID]int)
	c.snapSent = make(map[types.NodeID]int64)
	c.peerActive = make(map[types.NodeID]int64)
	c.ackTick = make(map[types.NodeID]int64)
	for _, id := range members.Slice() {
		c.nextIndex[id] = c.lastIndex() + 1
		c.matchIndex[id] = 0
	}
	// Term-opening no-op: commits promptly in this term, satisfying both
	// the commitment rule and R3. Its index also floors every read in
	// this term (readFloor): it sits above everything any earlier term
	// could have committed. Stable broadcasts it.
	c.termStart = c.appendAsLeader(LogEntry{Term: c.term, Kind: EntryNoOp})
}

// --- Client-facing operations ---

// errNotLeader builds the standard redirect error.
func (c *Core) errNotLeader() error { return NotLeader(c.leader) }

// TransferLeader starts a graceful leadership handoff to peer to (NoNode
// picks the most caught-up voter automatically): proposals pause, the
// target is brought fully up to date, and a MsgTimeoutNow tells it to
// campaign immediately — bypassing Pre-Vote and follower stickiness, so
// the handoff completes without a disruptive timeout election. The
// transfer aborts (and proposals resume) if the target does not take over
// within an election interval. Transferring to self is a no-op.
func (c *Core) TransferLeader(to types.NodeID) error {
	if c.role != Leader {
		return c.errNotLeader()
	}
	if c.transferTarget != types.NoNode {
		return ErrTransferInProgress
	}
	if to == types.NoNode {
		to = c.pickTransferTarget(c.Members())
	}
	if to == c.id {
		return nil
	}
	if to == types.NoNode || !c.Members().Contains(to) {
		return fmt.Errorf("%w: %s not in %s", ErrBadTransferTarget, to, c.Members())
	}
	c.transferTarget = to
	c.transferDeadline = c.ticks + int64(c.cfg.ElectionTicks)
	c.voidLeaseAcks()
	c.events = append(c.events, Event{Kind: EventTransferStarted, Peer: to})
	if c.matchIndex[to] >= c.lastIndex() {
		c.sendTimeoutNow(to)
	} else {
		c.sendAppend(to) // catch it up; the ack triggers the handoff
	}
	return nil
}

// pickTransferTarget returns the most caught-up eligible peer inside
// target ∩ Members(), excluding this node (NoNode when none exists).
// ProposeConfig passes the NEW configuration of a change that removes the
// leader, so leadership lands on a node that survives the change.
func (c *Core) pickTransferTarget(target types.NodeSet) types.NodeID {
	if c.role != Leader {
		return types.NoNode
	}
	best := types.NoNode
	bestMatch := -1
	members := c.Members()
	for _, id := range target.Slice() {
		if id == c.id || !members.Contains(id) {
			continue
		}
		if m := c.matchIndex[id]; m > bestMatch {
			best, bestMatch = id, m
		}
	}
	return best
}

// cancelTransfer abandons an in-flight transfer (deadline, step-down).
func (c *Core) cancelTransfer() {
	if c.transferTarget != types.NoNode {
		c.transferTarget = types.NoNode
		c.voidLeaseAcks()
		c.emit(EventTransferAborted)
	}
}

// voidLeaseAcks discards every banked lease ack. Called at both edges of
// a leadership transfer: the MsgTimeoutNow it launches stays live until
// consumed, and the election it triggers bypasses follower stickiness —
// so an ack observed before the transfer ended proves nothing about the
// voter's election timer. Only acks that postdate the transfer may re-arm
// the lease. The wipe is part of the lease guard (the teeth knob must be
// able to reintroduce the stale-lease bug it prevents).
func (c *Core) voidLeaseAcks() {
	if !c.cfg.DisableLeaseGuard {
		c.ackTick = make(map[types.NodeID]int64)
	}
}

func (c *Core) sendTimeoutNow(to types.NodeID) {
	c.send(Message{Type: MsgTimeoutNow, From: c.id, To: to, Term: c.term})
}

// Propose appends a client command at the leader. It returns the assigned
// log index and term, or ErrNotLeader. The entry is only marked dirty here:
// the leader persists before it replicates, so the broadcast happens when
// Stable reports the entry durable.
func (c *Core) Propose(cmd []byte) (int, types.Time, error) {
	if c.role != Leader {
		return 0, 0, c.errNotLeader()
	}
	if c.transferTarget != types.NoNode {
		return 0, 0, ErrTransferInProgress
	}
	idx := c.appendAsLeader(LogEntry{Term: c.term, Kind: EntryCommand, Command: cmd})
	return idx, c.term, nil
}

// ProposeBatch appends several client commands as one log suffix. It
// returns the index of the first command; command i landed at first+i.
// Everything appended before the next TakeUnstable — this batch and any
// others — is persisted as one write and broadcast as one suffix.
func (c *Core) ProposeBatch(cmds [][]byte) (first int, term types.Time, err error) {
	if c.role != Leader {
		return 0, 0, c.errNotLeader()
	}
	if c.transferTarget != types.NoNode {
		return 0, 0, ErrTransferInProgress
	}
	first = c.lastIndex() + 1
	for _, cmd := range cmds {
		c.appendAsLeader(LogEntry{Term: c.term, Kind: EntryCommand, Command: cmd})
	}
	return first, c.term, nil
}

// ProposeConfig appends a membership change at the leader, enforcing the
// paper's guards: the change must be a step the single-node scheme's R1⁺
// admits from the current membership, other than the unchanged set (R1), no
// other configuration change may be in flight (R2), and — unless DisableR3 —
// the leader must have committed an entry in its current term (R3).
//
// A change that removes the leader itself is never appended here: the
// leader hands off to the most caught-up voter of the new membership and
// refuses with ErrTransferInProgress, and the caller proposes the change
// again at the successor (Ongaro §3.10). So a leader is always a member of
// its own effective configuration.
func (c *Core) ProposeConfig(members types.NodeSet) (int, types.Time, error) {
	if c.role != Leader {
		return 0, 0, c.errNotLeader()
	}
	if c.transferTarget != types.NoNode {
		return 0, 0, ErrTransferInProgress
	}
	cur := c.Members()
	if members.IsEmpty() {
		return 0, 0, fmt.Errorf("%w: empty membership", ErrBadMembership)
	}
	r1 := config.SingleNodeScheme{}.R1Plus(config.NewMajorityConfig(cur), config.NewMajorityConfig(members))
	if !r1 || members.Equal(cur) {
		changed := members.Diff(cur).Len() + cur.Diff(members).Len()
		return 0, 0, fmt.Errorf("%w: %s → %s changes %d nodes", ErrBadMembership, cur, members, changed)
	}
	// Hand-off: after R1 the change is exactly cur − {leader} and non-empty,
	// so the pick always finds a survivor and the transfer cannot fail. R2
	// and R3 are the successor's to check.
	if !members.Contains(c.id) {
		to := c.pickTransferTarget(members)
		_ = c.TransferLeader(to)
		return 0, 0, fmt.Errorf("%w: handing off to %s before %s leaves", ErrTransferInProgress, to, c.id)
	}
	// R2: no uncommitted config entry. Compacted configs are committed by
	// construction, so the cache (which survives compaction) is enough.
	if !c.cfg.DisableR2 {
		if k := len(c.confIdxs); k > 0 && c.confIdxs[k-1] > c.commitIndex {
			return 0, 0, ErrReconfigPending
		}
	}
	// R3: a committed entry with the current term. The scan stops at the
	// snapshot base; the base entry itself (term snapTerm) was committed,
	// so it can satisfy the guard when the suffix cannot.
	if !c.cfg.DisableR3 {
		ok := false
		for i := c.commitIndex; i > c.snapIndex; i-- {
			if c.termAt(i) == c.term {
				ok = true
				break
			}
			if c.termAt(i) < c.term {
				break
			}
		}
		if !ok && c.snapIndex > 0 && c.snapTerm == c.term {
			ok = true
		}
		if !ok {
			return 0, 0, ErrReconfigNotReady
		}
	}
	idx := c.appendAsLeader(LogEntry{Term: c.term, Kind: EntryConfig, Members: members.Copy()})
	return idx, c.term, nil
}

// readFloor is the lowest index a linearizable read may be served at: the
// commit index, floored at the current term's opening no-op. A freshly
// elected leader's commit index can briefly trail entries the previous
// leader already committed; the no-op's index sits above every entry any
// earlier term could have committed, so waiting for apply to reach it
// closes the gap (the classic "no reads before the first commit of the
// term" rule, expressed as an index).
func (c *Core) readFloor() int {
	if c.termStart > c.commitIndex {
		return c.termStart
	}
	return c.commitIndex
}

// barrierFor returns the barrier a read registered now may ride, creating
// one when none qualifies (opened=true). Joining the newest pending
// barrier is safe exactly when no append has been sent since it
// registered (pr.seq still equals appendSeq): every ack able to confirm
// it then echoes a seq from a send that postdates this read. Joining a
// barrier whose round is already in flight would be UNSAFE — its quorum
// of acks could all have been generated before this read was invoked,
// proving nothing about leaders elected (and entries committed) since.
func (c *Core) barrierFor(idx int) (pr *pendingRead, opened bool) {
	if n := len(c.pendingReads); n > 0 {
		if pr := c.pendingReads[n-1]; pr.term == c.term && pr.seq == c.appendSeq {
			if idx > pr.index {
				pr.index = idx
			}
			c.emit(EventReadCoalesced)
			return pr, false
		}
	}
	pr = &pendingRead{
		index: idx,
		term:  c.term,
		seq:   c.appendSeq, // acks must echo a later seq: stale in-flight responses don't confirm
		acks:  types.NewNodeSet(c.id),
	}
	c.pendingReads = append(c.pendingReads, pr)
	c.emit(EventReadBarrier)
	return pr, true
}

// openBarrier fires the confirmation round for a barrier fresh out of
// barrierFor, once its waiter is attached. Only the FIRST pending barrier
// opens a round of its own; one registered while another round is in
// flight accumulates waiters and rides the next broadcast (heartbeat or
// proposal) — that is what bounds the protocol to at most one
// read-triggered round per coalescing window under load.
func (c *Core) openBarrier() {
	if len(c.pendingReads) == 1 {
		c.broadcastAppend() // heartbeat doubles as the confirmation round
	}
}

// ReadIndex starts one linearizable read at this node, answered by a
// ReadState keyed ctx: the index the node may serve the read at once its
// state machine has applied through it, or -1 when the read aborted (retry).
// A follower forwards the read to its known leader; a leader answers it
// itself (leaderRead). Either way the answer comes out of a later
// TakeEffects, never from this call.
func (c *Core) ReadIndex(ctx uint64) error {
	if c.role == Leader {
		c.leaderRead(readOrigin{node: c.id, ctx: ctx})
		return nil
	}
	if c.leader == types.NoNode {
		return c.errNotLeader()
	}
	c.send(Message{Type: MsgReadIndexRequest, From: c.id, To: c.leader, Term: c.term, ReadCtx: ctx})
	return nil
}

// leaderRead answers one read, asked here or forwarded, the cheapest way the
// leader can prove it still leads: from its lease, at once in a single-voter
// configuration (already a quorum of itself), or else through a coalesced
// quorum barrier (the Raft ReadIndex optimization) that resolves on a later
// round of acknowledgements.
func (c *Core) leaderRead(o readOrigin) {
	if idx, ok := c.LeaseStatus(); ok {
		c.emit(EventLeaseRead)
		c.answerRead(o, idx)
		return
	}
	idx := c.readFloor()
	if config.Majority(types.NewNodeSet(c.id), c.Members()) {
		c.answerRead(o, idx)
		return
	}
	pr, opened := c.barrierFor(idx)
	pr.waiters = append(pr.waiters, o)
	if opened {
		c.openBarrier()
	}
}

// LeaseStatus probes the leader lease without serving a read: ok reports
// a currently valid lease and idx the floor a lease read would use. The
// lease holds while a strict quorum of the configuration (counting this
// leader) acked an append within the last election interval: under the
// same bounded-asymmetry assumption CheckQuorum and follower stickiness
// already make, none of those voters can have elected a successor yet —
// their election timers reset more recently than any timeout could have
// expired. Two hazards evade that clock and void the lease explicitly
// (unless DisableLeaseGuard): a leadership transfer, whose MsgTimeoutNow
// elects the target with no timeout wait at all, and an uncommitted
// configuration entry, whose new quorums need not intersect the set the
// lease was acked under.
func (c *Core) LeaseStatus() (idx int, ok bool) {
	if c.role != Leader || c.cfg.DisableLeaseRead {
		return 0, false
	}
	if !c.cfg.DisableLeaseGuard {
		if c.transferTarget != types.NoNode {
			return 0, false
		}
		if k := len(c.confIdxs); k > 0 && c.confIdxs[k-1] > c.commitIndex {
			return 0, false
		}
	}
	members := c.Members()
	count := 0
	for _, id := range members.Slice() {
		if id == c.id {
			count++
			continue
		}
		if last, acked := c.ackTick[id]; acked && c.ticks-last < int64(c.cfg.ElectionTicks) {
			count++
		}
	}
	if !config.MajorityCount(count, members) {
		return 0, false
	}
	return c.readFloor(), true
}

// CancelRead abandons a pending barrier waiter (the caller timed out).
// The barrier itself stays pending for its remaining waiters.
func (c *Core) CancelRead(ctx uint64) {
	local := readOrigin{node: c.id, ctx: ctx}
	for _, pr := range c.pendingReads {
		if i := slices.Index(pr.waiters, local); i >= 0 {
			pr.waiters = slices.Delete(pr.waiters, i, i+1)
			return
		}
	}
}

// resolveRead delivers a barrier's outcome to every waiter sharing it. idx
// -1 aborts (the waiters retry).
func (c *Core) resolveRead(pr *pendingRead, idx int) {
	for _, o := range pr.waiters {
		c.answerRead(o, idx)
	}
}

// answerRead answers one waiter: a read asked here as a ReadState, a
// forwarded one with MsgReadIndexResponse.
func (c *Core) answerRead(o readOrigin, idx int) {
	if o.node == c.id {
		c.readStates = append(c.readStates, ReadState{ReqID: o.ctx, Index: idx})
		return
	}
	c.sendReadReply(o.node, o.ctx, idx)
}

// sendReadReply answers a forwarded read: idx is the confirmed read index,
// or -1 for a refusal. A confirmation also carries the commit index, so the
// reader need not wait for the next append to learn that the entries it is
// about to wait on are committed. The two differ while a fresh leader's
// no-op is uncommitted (the read index is readFloor, above the commit index).
func (c *Core) sendReadReply(to types.NodeID, ctx uint64, idx int) {
	m := Message{Type: MsgReadIndexResponse, From: c.id, To: to, Term: c.term, ReadCtx: ctx}
	if idx >= 0 {
		m.Success = true
		m.MatchIndex = idx
		m.LeaderCommit = c.commitIndex
	}
	c.send(m)
}

// confirmReads credits a leadership confirmation from a peer and resolves
// the barriers that reached a quorum. seq is the append sequence the peer
// echoed: only responses to appends sent after a barrier was registered
// count for it, so a response that was already in flight when the barrier
// (or a partition) arrived cannot confirm leadership.
func (c *Core) confirmReads(from types.NodeID, seq uint64) {
	if len(c.pendingReads) == 0 {
		return
	}
	members := c.Members()
	kept := c.pendingReads[:0]
	for _, pr := range c.pendingReads {
		if pr.term != c.term || c.role != Leader {
			c.resolveRead(pr, -1)
			continue
		}
		if seq > pr.seq {
			pr.acks = pr.acks.Add(from)
		}
		if config.Majority(pr.acks, members) {
			c.resolveRead(pr, pr.index)
			continue
		}
		kept = append(kept, pr)
	}
	c.pendingReads = kept
}

// abortReads aborts every pending barrier (leadership lost).
func (c *Core) abortReads() {
	for _, pr := range c.pendingReads {
		c.resolveRead(pr, -1)
	}
	c.pendingReads = nil
}

// onReadIndexRequest serves a follower's forwarded read. A node that cannot
// serve it (not the leader, or a term mismatch either way) answers
// Success=false so the follower's waiter aborts and retries with a fresher
// leader hint; a leader answers it like a read asked of itself.
func (c *Core) onReadIndexRequest(m Message) {
	if c.role != Leader || m.Term != c.term {
		c.sendReadReply(m.From, m.ReadCtx, -1)
		return
	}
	c.leaderRead(readOrigin{node: m.From, ctx: m.ReadCtx})
}

// onReadIndexResponse resolves a forwarded read on the follower that
// originated it, as a ReadState keyed by the echoed ReadCtx. Gating on
// Success alone (not the response term) is safe: the index the leader
// confirmed was backed by a quorum round or lease in ITS term, and quorum
// intersection means any newer leader's log contains everything committed
// at or below it — the follower still waits for its local apply to reach
// the index before serving. A ctx with no waiter (the caller timed out)
// resolves into a ReadState the driver ignores.
//
// The commit index riding the reply is believed only from the current-term
// leader (leaderMatch says nothing about any other node's log), and before
// the ReadState is emitted: the entries the reader is about to wait on come
// out as Committed in the same Effects.
func (c *Core) onReadIndexResponse(m Message) {
	if !m.Success {
		c.readStates = append(c.readStates, ReadState{ReqID: m.ReadCtx, Index: -1})
		return
	}
	if m.Term == c.term && m.From == c.leader {
		c.learnCommit(m.LeaderCommit)
	}
	c.readStates = append(c.readStates, ReadState{ReqID: m.ReadCtx, Index: m.MatchIndex})
}

// --- Log maintenance ---

// appendAsLeader appends an entry at the leader and returns its index.
func (c *Core) appendAsLeader(e LogEntry) int {
	c.log = append(c.log, e)
	idx := c.lastIndex()
	c.trackConfig(idx, e)
	c.markEntries(idx)
	return idx
}

// trackConfig records a freshly appended entry's position in the
// config-index cache. Call it for every log append.
func (c *Core) trackConfig(idx int, e LogEntry) {
	if e.Kind == EntryConfig {
		c.confIdxs = append(c.confIdxs, idx)
	}
}

// dropConfigsFrom evicts cached config positions at or above pos (the log
// is being truncated there).
func (c *Core) dropConfigsFrom(pos int) {
	for len(c.confIdxs) > 0 && c.confIdxs[len(c.confIdxs)-1] >= pos {
		c.confIdxs = c.confIdxs[:len(c.confIdxs)-1]
	}
}

// --- Replication ---

// broadcastAppend sends AppendEntries to every peer in the current
// configuration (and to peers being removed that still need the entry
// that removes them — they are reached while they remain in the effective
// membership union with the committed one).
func (c *Core) broadcastAppend() {
	if c.role != Leader {
		return
	}
	targets := c.Members().Union(c.CommittedMembers())
	for _, to := range targets.Slice() {
		if to == c.id {
			continue
		}
		c.sendAppend(to)
	}
	// The leader's own stable index may be the vote that completes a
	// quorum (always, in a single-member configuration): there is no
	// response to trigger the usual advance.
	c.advanceCommit()
}

func (c *Core) sendAppend(to types.NodeID) {
	next := c.nextIndex[to]
	if next <= c.snapIndex {
		// The follower needs entries we compacted away: catch it up with
		// the snapshot instead of the log.
		if c.snapIndex > 0 {
			c.sendSnapshot(to)
			return
		}
		next = 1
	}
	// Persist before replicate: only entries this leader could itself
	// recover are shipped, so a follower can never hold (or ack) what the
	// leader's own disk does not. The snapshot base is committed, hence
	// durable on a quorum already.
	limit := c.stableIndex
	if limit < c.snapIndex {
		limit = c.snapIndex
	}
	if next > limit+1 {
		next = limit + 1
	}
	prev := next - 1 // >= snapIndex: prev's term is known
	// Bound the window: a lagging follower is streamed in
	// MaxEntriesPerAppend-sized messages instead of one full-suffix
	// resend per round trip.
	end := min(limit+1, next+MaxEntriesPerAppend)
	entries := make([]LogEntry, end-next)
	copy(entries, c.log[next-c.snapIndex:end-c.snapIndex])
	c.appendSeq++
	c.send(Message{
		Type:         MsgAppendEntries,
		From:         c.id,
		To:           to,
		Term:         c.term,
		PrevLogIndex: prev,
		PrevLogTerm:  c.termAt(prev),
		Entries:      entries,
		LeaderCommit: c.commitIndex,
		Seq:          c.appendSeq,
	})
	// Pipelining: advance nextIndex optimistically so the next flush tick
	// or heartbeat streams the following window without waiting for this
	// one's response. A rejection resets it via the follower's hint; a
	// lost window is recovered the same way when the next probe fails.
	if len(entries) > 0 {
		c.nextIndex[to] = end
	}
}

// sendSnapshot streams the snapshot image to a laggard follower as a
// burst of MaxSnapshotChunk-sized InstallSnapshot messages. The transfer
// is paced: at most one burst per election interval per peer, so a slow
// or unreachable follower is not flooded with full images on every
// heartbeat. nextIndex advances optimistically past the base; a rejection
// of the follow-up append hints the leader back here if the install was
// lost.
func (c *Core) sendSnapshot(to types.NodeID) {
	if last, ok := c.snapSent[to]; ok && c.ticks-last < int64(c.cfg.ElectionTicks) {
		return // a transfer is (likely) still in flight
	}
	c.snapSent[to] = c.ticks
	total := len(c.snapData)
	for off := 0; ; off += MaxSnapshotChunk {
		n := min(total-off, MaxSnapshotChunk)
		c.appendSeq++
		c.send(Message{
			Type:        MsgInstallSnapshot,
			From:        c.id,
			To:          to,
			Term:        c.term,
			SnapIndex:   c.snapIndex,
			SnapTerm:    c.snapTerm,
			SnapMembers: c.snapMembers,
			SnapOffset:  off,
			SnapTotal:   total,
			SnapData:    c.snapData[off : off+n],
			Seq:         c.appendSeq,
		})
		if off+n >= total {
			break
		}
	}
	c.nextIndex[to] = c.snapIndex + 1
}

// --- Message handling ---

// Step consumes one incoming message.
func (c *Core) Step(m Message) {
	if m.Term > c.term {
		// Higher terms usually fold us to a follower of that term — but
		// the Pre-Vote exchange is term-neutral by design, and a sticky
		// follower ignores a disruptive campaign outright.
		switch m.Type {
		case MsgPreVoteRequest:
			// A canvass, not a campaign: never adopt the proposed term.
		case MsgPreVoteResponse:
			if !m.Granted {
				// A rejection carries the voter's real (higher) term.
				c.adoptTerm(m.Term)
			}
			// A grant echoes the proposed term — not a real term.
		case MsgVoteRequest:
			if m.Transfer && m.From == c.transferTarget {
				c.transferTarget = types.NoNode // handoff landed, not an abort
				c.voidLeaseAcks()
			}
			if !m.Transfer && c.stickyLeader() {
				// Recent leader contact: ignore the disruptive campaign
				// entirely (no term bump, no response) so a rejoining
				// node cannot depose a healthy leader.
				return
			}
			c.adoptTerm(m.Term)
		default:
			c.adoptTerm(m.Term)
		}
	}
	switch m.Type {
	case MsgVoteRequest:
		c.onVoteRequest(m)
	case MsgVoteResponse:
		c.onVoteResponse(m)
	case MsgAppendEntries:
		c.onAppendEntries(m)
	case MsgAppendResponse:
		c.onAppendResponse(m)
	case MsgInstallSnapshot:
		c.onInstallSnapshot(m)
	case MsgPreVoteRequest:
		c.onPreVoteRequest(m)
	case MsgPreVoteResponse:
		c.onPreVoteResponse(m)
	case MsgTimeoutNow:
		c.onTimeoutNow(m)
	case MsgReadIndexRequest:
		c.onReadIndexRequest(m)
	case MsgReadIndexResponse:
		c.onReadIndexResponse(m)
	}
}

// adoptTerm folds the node to a follower of a higher term.
func (c *Core) adoptTerm(term types.Time) {
	c.term = term
	c.leaderMatch = 0
	c.role = Follower
	c.votedFor = types.NoNode
	c.markHardState()
	c.dropHeld()
	c.abortReads()
	c.cancelTransfer()
	c.emit(EventTermBump)
}

func (c *Core) onVoteRequest(m Message) {
	granted := false
	if m.Term == c.term && (c.votedFor == types.NoNode || c.votedFor == m.From) {
		lastIdx := c.lastIndex()
		lastTerm := c.termAt(lastIdx)
		upToDate := m.LastLogTerm > lastTerm ||
			(m.LastLogTerm == lastTerm && m.LastLogIndex >= lastIdx)
		if upToDate {
			granted = true
			c.votedFor = m.From
			c.markHardState()
			c.resetElectionTimer()
		}
	}
	c.send(Message{
		Type: MsgVoteResponse, From: c.id, To: m.From, Term: c.term, Granted: granted,
	})
}

func (c *Core) onVoteResponse(m Message) {
	if c.role != Candidate || m.Term != c.term || !m.Granted {
		return
	}
	c.votes = c.votes.Add(m.From)
	c.maybeWin()
}

// onPreVoteRequest answers a term-neutral canvass: grant iff the proposed
// term beats ours, the candidate's log is up to date, and neither recent
// leader contact (stickiness) nor our own live leadership says the
// cluster already has a leader. Nothing here changes term or vote, so no
// persistence is needed before the response.
func (c *Core) onPreVoteRequest(m Message) {
	granted := false
	if m.Term > c.term && c.role != Leader && !c.stickyLeader() {
		lastIdx := c.lastIndex()
		lastTerm := c.termAt(lastIdx)
		granted = m.LastLogTerm > lastTerm ||
			(m.LastLogTerm == lastTerm && m.LastLogIndex >= lastIdx)
	}
	term := c.term
	if granted {
		term = m.Term // echo the proposed term so the candidate can tally it
	}
	c.send(Message{
		Type: MsgPreVoteResponse, From: c.id, To: m.From, Term: term, Granted: granted,
	})
}

func (c *Core) onPreVoteResponse(m Message) {
	if c.role != PreCandidate || !m.Granted || m.Term != c.term+1 {
		return
	}
	c.votes = c.votes.Add(m.From)
	c.maybePreVoteWin()
}

// onTimeoutNow executes the old leader's handoff: campaign immediately at
// the next term, skipping Pre-Vote, with Transfer-flagged vote requests
// that bypass follower stickiness.
func (c *Core) onTimeoutNow(m Message) {
	if m.Term != c.term || c.role == Leader || !c.Members().Contains(c.id) {
		return
	}
	c.emit(EventTransferCampaign)
	c.startElection(true)
}

func (c *Core) onAppendEntries(m Message) {
	hint := 0
	if m.Term == c.term {
		c.role = Follower
		c.leader = m.From
		c.leaderContact = c.ticks
		c.resetElectionTimer()
		prev, prevTerm, entries := m.PrevLogIndex, m.PrevLogTerm, m.Entries
		if prev < c.snapIndex {
			// The message overlaps our compacted prefix. Everything at or
			// below the base is committed here, and committed prefixes
			// agree, so that part of the message matches by construction:
			// skip it and check consistency at the base instead.
			if drop := c.snapIndex - prev; drop < len(entries) {
				entries = entries[drop:]
			} else {
				entries = nil
			}
			prev, prevTerm = c.snapIndex, c.snapTerm
		}
		if prev <= c.lastIndex() && c.termAt(prev) == prevTerm {
			// Append, truncating on conflicts.
			firstChanged := 0
			for i, e := range entries {
				pos := prev + 1 + i     // absolute index
				sp := pos - c.snapIndex // slot in the retained suffix
				if sp < len(c.log) {
					if c.log[sp].Term != e.Term {
						c.log = c.log[:sp]
						c.unstableFrom(pos)
						c.dropConfigsFrom(pos)
						c.log = append(c.log, e)
						c.trackConfig(pos, e)
						if firstChanged == 0 {
							firstChanged = pos
						}
					}
				} else {
					c.log = append(c.log, e)
					c.trackConfig(pos, e)
					if firstChanged == 0 {
						firstChanged = pos
					}
				}
			}
			if firstChanged != 0 {
				c.markEntries(firstChanged)
			}
			matchIdx := prev + len(entries)
			c.matchedLeader(matchIdx)
			c.learnCommit(m.LeaderCommit)
			c.ackAppend(m.From, matchIdx, m.Seq, len(m.Entries) > 0)
			return
		}
		// Consistency check failed: hint where our log actually ends so a
		// pipelining leader can jump back in one round trip instead of
		// probing one index at a time.
		hint = min(m.PrevLogIndex-1, c.lastIndex())
	}
	c.send(Message{
		Type: MsgAppendResponse, From: c.id, To: m.From, Term: c.term,
		HintIndex: hint, Seq: m.Seq,
	})
}

// ackAppend answers an accepted append — or a completed snapshot transfer,
// acknowledged as an ordinary append response echoing the transfer's Seq —
// after which this log matches the leader's through match. A success ack never claims
// an index a crash could take back: at or below the stable index it leaves
// at once; above it, the ack to a message that carried data waits for
// Stable, while the ack to an empty append (heartbeat, read-barrier round)
// leaves at once with MatchIndex clamped to the stable index — read
// barriers, the lease clock and CheckQuorum never wait for a disk. Acks held
// in one term all answer one leader, so they merge into the newest.
func (c *Core) ackAppend(to types.NodeID, match int, seq uint64, carried bool) {
	ack := Message{
		Type: MsgAppendResponse, From: c.id, To: to, Term: c.term,
		Success: true, MatchIndex: match, Seq: seq,
	}
	switch {
	case match <= c.stableIndex:
		c.send(ack)
	case !carried:
		ack.MatchIndex = c.stableIndex
		c.send(ack)
	default:
		if h := c.heldAck; h != nil {
			if h.MatchIndex > ack.MatchIndex {
				ack.MatchIndex = h.MatchIndex
			}
			if h.Seq > ack.Seq {
				ack.Seq = h.Seq
			}
		}
		c.heldAck = &ack
	}
}

// releaseAck lets the held ack go as far as the stable index now reaches:
// whole once its MatchIndex is durable, otherwise a clamped copy while the
// rest stays held — under a pipelined stream every write releases one ack,
// so the leader's commit index follows the follower's disk, not its inbox.
func (c *Core) releaseAck() {
	if c.heldAck == nil {
		return
	}
	ack := *c.heldAck
	if ack.MatchIndex <= c.stableIndex {
		c.heldAck = nil
	} else {
		ack.MatchIndex = c.stableIndex
	}
	c.send(ack)
}

// onInstallSnapshot handles one chunk of a leader's snapshot transfer,
// installing the image once the final chunk lands.
func (c *Core) onInstallSnapshot(m Message) {
	if m.Term != c.term {
		// Stale leader: the response carries our higher term (m.Term >
		// c.term was already folded by Step).
		c.send(Message{
			Type: MsgAppendResponse, From: c.id, To: m.From, Term: c.term, Seq: m.Seq,
		})
		return
	}
	c.role = Follower
	c.leader = m.From
	c.leaderContact = c.ticks
	c.resetElectionTimer()
	// Reassemble strictly in order; offset 0 (re)starts a transfer. A
	// mismatched or out-of-order chunk is dropped — the leader resends
	// the whole image after its pacing interval.
	if m.SnapOffset == 0 {
		c.inSnap = &inboundSnap{
			index: m.SnapIndex, term: m.SnapTerm,
			members: m.SnapMembers, total: m.SnapTotal,
		}
	}
	s := c.inSnap
	if s == nil || s.index != m.SnapIndex || s.term != m.SnapTerm ||
		s.total != m.SnapTotal || len(s.buf) != m.SnapOffset {
		return
	}
	s.buf = append(s.buf, m.SnapData...)
	if len(s.buf) < s.total {
		return
	}
	c.inSnap = nil
	if s.index <= c.commitIndex {
		// Stale image: our committed prefix already covers it.
		c.ackAppend(m.From, c.commitIndex, m.Seq, true)
		return
	}
	if s.index <= c.lastIndex() && c.termAt(s.index) == s.term {
		// Our log already matches through the snapshot point: no install
		// needed, the transfer just taught us the prefix is committed.
		c.matchedLeader(s.index)
		c.learnCommit(s.index)
		c.ackAppend(m.From, s.index, m.Seq, true)
		return
	}
	// Full install: the snapshot replaces the log wholesale. The suffix
	// is discarded even if non-empty — it conflicts at or before the
	// base, or we would have matched above.
	c.log = []LogEntry{{Term: s.term}}
	c.unstableFrom(s.index) // until the image is on disk
	c.snapIndex, c.snapTerm = s.index, s.term
	c.snapMembers = copyIDs(s.members)
	c.snapData = s.buf
	c.confIdxs = nil
	c.matchedLeader(s.index)
	c.commitIndex = s.index
	c.lastApplied = s.index // the restore delivery (after Stable) stands in for applying [.., s.index]
	c.dirtyFrom = 0
	c.markEntries(s.index + 1) // durable log: truncate to the empty suffix
	c.pendingSnap = &Snapshot{Index: s.index, Term: s.term, Members: c.snapMembers, Data: s.buf}
	c.pendingRestore = true
	c.ackAppend(m.From, s.index, m.Seq, true)
}

func (c *Core) onAppendResponse(m Message) {
	if c.role != Leader || m.Term != c.term {
		return
	}
	c.peerActive[m.From] = c.ticks // CheckQuorum: the peer is reachable
	// Lease clock: any current-term append response proves the peer reset
	// its election timer when it received our append moments ago — it
	// cannot start (or vote in) a timeout election for a full election
	// interval from then.
	c.ackTick[m.From] = c.ticks
	if !m.Success {
		// Back off below the rejected probe, jumping straight to the
		// follower's hint when it is lower (fast conflict resolution for
		// pipelined windows). No floor at the recorded matchIndex: a
		// volatile follower can restart with an empty log, and resending
		// already-acked entries is harmless (the follower deduplicates).
		next := c.nextIndex[m.From] - 1
		if m.HintIndex+1 < next {
			next = m.HintIndex + 1
		}
		if next < 1 {
			next = 1
		}
		c.nextIndex[m.From] = next
		c.sendAppend(m.From)
		return
	}
	if m.MatchIndex > c.matchIndex[m.From] {
		c.matchIndex[m.From] = m.MatchIndex
	}
	if m.MatchIndex >= c.nextIndex[m.From] {
		c.nextIndex[m.From] = m.MatchIndex + 1
	}
	// Transfer handoff: the moment the target holds our whole log, tell
	// it to campaign. Re-sending on later acks is harmless — a stale
	// TimeoutNow (its term already passed) is ignored by the target.
	if m.From == c.transferTarget {
		if c.matchIndex[m.From] >= c.lastIndex() {
			c.sendTimeoutNow(m.From)
		} else if c.nextIndex[m.From] <= c.stableIndex {
			// Entries it has not been sent yet. (Otherwise everything is on
			// its way or on its disk: its Stable sends the ack that lands
			// here next — answering a clamped heartbeat ack with another
			// empty append would only ping-pong.)
			c.sendAppend(m.From)
		}
	}
	c.confirmReads(m.From, m.Seq)
	c.advanceCommit()
}

// matchedLeader records that this log agrees with the current-term leader's
// through idx. A reordered older append is accepted too (the leader's log
// only grows within its term) but proves less than is already known, so the
// mark never moves down.
func (c *Core) matchedLeader(idx int) {
	if idx > c.leaderMatch {
		c.leaderMatch = idx
	}
}

// learnCommit is the follower's one commit rule: leaderCommit is a commit
// index named by the current-term leader, on whatever message was going
// anyway (an append, a snapshot, a read reply). It is believed as far as this
// log is known to be the leader's log and no further: an entry above
// leaderMatch may be a stale suffix from a deposed leader that merely shares
// the index. How soon a replica learns a commit is policy; that it never
// commits an entry the quorum did not is this clamp.
func (c *Core) learnCommit(leaderCommit int) {
	if n := min(leaderCommit, c.leaderMatch); n > c.commitIndex {
		c.commitIndex = n
	}
}

// advanceCommit moves the commit index to the highest current-term index
// durable on a quorum of the current configuration. The quorum test is
// the model's (config.MajorityCount): the executable commit rule and the
// verified one share a single predicate.
func (c *Core) advanceCommit() {
	members := c.Members()
	for idx := c.lastIndex(); idx > c.commitIndex; idx-- {
		if c.termAt(idx) != c.term {
			break // commitment rule: only current-term entries directly
		}
		count := 0
		for _, id := range members.Slice() {
			// The leader votes with its disk, like everyone else.
			if (id == c.id && c.stableIndex >= idx) || c.matchIndex[id] >= idx {
				count++
			}
		}
		if config.MajorityCount(count, members) {
			c.commitIndex = idx
			break
		}
	}
}
