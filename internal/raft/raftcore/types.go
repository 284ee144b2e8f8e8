// Package raftcore is the sans-IO core of the executable raft runtime: a
// pure state machine that the paper's refinement story can reach. Core
// consumes protocol inputs — messages via Step, logical clock ticks via
// Tick, client commands via Propose — mutates only in-memory state, and
// emits its intended effects through the staged Ready contract: what to
// persist (TakeUnstable), the report that it is on disk (Stable), and what
// may leave now — outbound messages, committed entries, read confirmations,
// and the election and read facts it reports as events (TakeEffects). The
// core holds every effect that depends on a write until Stable, so
// acked⇒durable is decided here, not in the driver; it counts nothing.
//
// The package deliberately contains no goroutines, channels, locks,
// clocks, randomness, or storage calls (adore-lint's pure-core pass
// enforces this): time is a count of abstract ticks supplied by the
// caller, and election-timeout jitter comes in through Config.Jitter.
// That purity is what makes the core deterministically steppable — the
// runtime driver (package raft) replays it against real WALs, transports,
// and wall clocks, while the simulation driver (package raft/sim) replays
// the very same code single-threaded from a seed and checks it against
// the ADORE model's cache tree.
package raftcore

import (
	"fmt"

	"adore/internal/types"
)

// Role is a node's protocol role.
type Role uint8

const (
	// Follower, Candidate, Leader are the standard Raft roles.
	Follower Role = iota
	Candidate
	Leader
	// PreCandidate runs the term-neutral pre-election: it canvasses the
	// cluster with MsgPreVoteRequest at term+1 without touching its own
	// term or vote, and only becomes a real Candidate after a majority
	// says it could win. Flapping links and rejoining nodes therefore
	// stop inflating terms (and deposing healthy leaders).
	PreCandidate
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	case PreCandidate:
		return "pre-candidate"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// EntryKind distinguishes runtime log entries.
type EntryKind uint8

const (
	// EntryCommand carries an opaque state-machine command.
	EntryCommand EntryKind = iota
	// EntryNoOp is the leader's term-opening barrier entry.
	EntryNoOp
	// EntryConfig carries a new member list (hot reconfiguration).
	EntryConfig
	// EntrySnapshot never appears in the log: it is an apply-stream-only
	// kind. An ApplyMsg with this kind tells the state machine to discard
	// its state and restore from the snapshot image in Command, which
	// summarizes every entry up to and including Index.
	EntrySnapshot
)

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	switch k {
	case EntryCommand:
		return "cmd"
	case EntryNoOp:
		return "noop"
	case EntryConfig:
		return "config"
	case EntrySnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// LogEntry is one slot of the replicated log. Index 0 is unused (logs are
// 1-indexed, as in the Raft paper).
type LogEntry struct {
	Term    types.Time
	Kind    EntryKind
	Command []byte
	Members []types.NodeID // EntryConfig only
}

// MessageType enumerates the runtime's RPCs, modeled as asynchronous
// messages.
type MessageType uint8

const (
	// MsgVoteRequest / MsgVoteResponse implement leader election.
	MsgVoteRequest MessageType = iota
	MsgVoteResponse
	// MsgAppendEntries / MsgAppendResponse implement replication and
	// heartbeats.
	MsgAppendEntries
	MsgAppendResponse
	// MsgInstallSnapshot streams the leader's snapshot (in chunks) to a
	// follower whose nextIndex fell behind the leader's compaction point.
	// The follower acknowledges a completed install with an ordinary
	// MsgAppendResponse whose MatchIndex is the snapshot index.
	MsgInstallSnapshot
	// MsgPreVoteRequest / MsgPreVoteResponse implement the Pre-Vote phase:
	// the request proposes Term = candidate's term + 1 but neither side
	// adopts it — the exchange is term-neutral, so a doomed canvass
	// cannot disrupt a stable leader. A granted response echoes the
	// proposed term; a rejection carries the voter's own (possibly
	// higher) term.
	MsgPreVoteRequest
	MsgPreVoteResponse
	// MsgTimeoutNow is the leadership-transfer handoff: the old leader
	// tells a fully caught-up target to campaign immediately, bypassing
	// Pre-Vote; the resulting vote requests carry Transfer so sticky
	// followers accept the deliberate change.
	MsgTimeoutNow
	// MsgReadIndexRequest / MsgReadIndexResponse implement follower-served
	// reads: a follower forwards a linearizable-read barrier to the leader
	// (ReadCtx identifies the waiting local read), and the leader answers
	// with the confirmed read index — from its lease when valid, otherwise
	// after a quorum round. A Success=false response tells the follower to
	// retry against a fresher leader.
	MsgReadIndexRequest
	MsgReadIndexResponse
)

// String implements fmt.Stringer.
func (t MessageType) String() string {
	switch t {
	case MsgVoteRequest:
		return "VoteRequest"
	case MsgVoteResponse:
		return "VoteResponse"
	case MsgAppendEntries:
		return "AppendEntries"
	case MsgAppendResponse:
		return "AppendResponse"
	case MsgInstallSnapshot:
		return "InstallSnapshot"
	case MsgPreVoteRequest:
		return "PreVoteRequest"
	case MsgPreVoteResponse:
		return "PreVoteResponse"
	case MsgTimeoutNow:
		return "TimeoutNow"
	case MsgReadIndexRequest:
		return "ReadIndexRequest"
	case MsgReadIndexResponse:
		return "ReadIndexResponse"
	default:
		return fmt.Sprintf("MessageType(%d)", uint8(t))
	}
}

// Message is the single message type for every RPC. The core handles it as a
// Go value only; its byte format on a stream belongs to the driver (package
// raft, wire.go), whose TestWireCoversEveryField fails when a field added
// here is not added there.
type Message struct {
	Type MessageType
	From types.NodeID
	To   types.NodeID
	Term types.Time

	// Vote requests.
	LastLogIndex int
	LastLogTerm  types.Time
	// Transfer marks a vote request from a campaign the old leader opened
	// deliberately (MsgTimeoutNow): sticky followers that would ignore a
	// disruptive higher-term campaign accept this one.
	Transfer bool

	// Append requests. Entries is shared, not owned: from a core, a
	// read-only view into its log (see Unstable.Entries). Copy it to keep
	// it; never write it.
	PrevLogIndex int
	PrevLogTerm  types.Time
	Entries      []LogEntry
	LeaderCommit int
	// Seq is a per-leader monotone counter stamped on every AppendEntries
	// and echoed in the response. ReadIndex barriers use it to reject acks
	// generated before the barrier's confirmation round (an in-flight
	// response from an older heartbeat must not confirm a fresh barrier).
	Seq uint64

	// Responses.
	Granted    bool // vote granted
	Success    bool // append accepted (or forwarded read served)
	MatchIndex int  // highest replicated index on success; the confirmed read index on MsgReadIndexResponse
	HintIndex  int  // on append rejection: where the follower's log ends

	// ReadCtx identifies a forwarded read barrier (MsgReadIndexRequest /
	// MsgReadIndexResponse): the follower's local request id, echoed by
	// the leader so the response resolves the right waiter.
	ReadCtx uint64

	// Snapshot transfer (MsgInstallSnapshot). A transfer is a burst of
	// chunks sharing (SnapIndex, SnapTerm, SnapTotal); SnapOffset is the
	// byte offset of this chunk's SnapData within the full image and the
	// follower reassembles strictly in order, restarting on offset 0.
	SnapIndex   int
	SnapTerm    types.Time
	SnapMembers []types.NodeID // effective membership at SnapIndex
	SnapOffset  int
	SnapTotal   int // total image size in bytes
	SnapData    []byte
}

// ApplyMsg is delivered for every committed entry, in log order.
type ApplyMsg struct {
	Index   int
	Term    types.Time
	Kind    EntryKind
	Command []byte
	Members []types.NodeID // EntryConfig
}

// HardState is the durable per-node protocol state that Raft requires to
// survive crashes: the current term and the vote cast in it. (The log is
// persisted separately, entry by entry.)
type HardState struct {
	Term     types.Time
	VotedFor types.NodeID
}

// Snapshot is a durable summary of the committed log prefix [1, Index]:
// an opaque state-machine image plus the metadata needed to splice it
// under the retained log suffix. A zero Index means "no snapshot" (the
// log is complete from index 1).
type Snapshot struct {
	// Index and Term identify the last entry the image covers.
	Index int
	Term  types.Time
	// Members is the effective membership at Index (nil = the initial
	// configuration); recovery needs it because the config entries that
	// established it may be compacted away.
	Members []types.NodeID
	// Data is the opaque state-machine image.
	Data []byte
}

// SnapshotRequest is the core's TakeSnapshot effect: the compaction policy
// asks the application to capture a state-machine image at (or after)
// Index. The driver serializes its state machine once it has applied
// through Index and hands the image back via Core.Compact.
type SnapshotRequest struct {
	// Index is the core's lastApplied when the policy fired.
	Index int
}

// ReadState answers one read started with Core.ReadIndex. Index is the read
// index the leader confirmed (by lease, single-voter quorum or barrier); a
// negative Index reports that the read aborted and must be retried.
type ReadState struct {
	// ReqID echoes the identifier the caller passed to Core.ReadIndex.
	ReqID uint64
	// Index is the confirmed read index, or -1 if the read aborted.
	Index int
}

// Unstable is what the core wants made durable: the persist half of the
// staged Ready contract. TakeUnstable hands out at most two batches at a time,
// and a second only beside a pure append, itself a pure append from the
// stable index up; the driver writes each — HardState, then Snapshot, then
// Entries, in that order — with no lock held, and reports its landing with
// Stable. Nothing the batch
// backs (a vote, an append ack above the previous stable index, entries
// shipped to followers, the leader's own commit vote and deliveries, an
// installed snapshot's restore) leaves the core before that report, so
// acked⇒durable is the core's invariant, not the driver's. A failed write
// means Stable is never called: everything held stays held and the driver
// fail-stops.
type Unstable struct {
	// HardState, when non-nil, is the term and vote to persist.
	HardState *HardState

	// Snapshot, when non-nil, atomically replaces the stored log prefix
	// [1, Snapshot.Index]. It must reach disk before Entries below is
	// allowed to truncate the log it summarizes.
	Snapshot *Snapshot

	// Entries is the dirty log suffix starting at FirstIndex: the durable
	// log must be truncated at FirstIndex and these entries appended.
	// FirstIndex 0 means the log did not change; a positive FirstIndex
	// with no entries is a pure truncation (a snapshot install emptied the
	// suffix). The suffix may include entries that were already durable (a
	// conflict truncation re-persists from the truncation point, a batch
	// taken beside another from the stable index up); re-writing them is
	// harmless, and Storage.SaveEntries skips what it already holds.
	//
	// Entries is a shared, read-only view into the core's log, not a copy:
	// the core never writes a slot it has handed out again, so it may be
	// read with no lock held while the core moves on. Copy it to keep it;
	// never write it.
	FirstIndex int
	Entries    []LogEntry
}

// Effects is what may leave the node now: the release half of the staged
// Ready contract. Every promise in it (a vote, an ack, an entry shipped) is
// already backed by durable state, and the rest needs none — a committed
// entry is knowledge about a quorum's disks, not a promise of this one's — so
// the driver may send, resolve and deliver it without touching the disk.
type Effects struct {
	// Messages are the outbound messages released since the last drain.
	// Messages that depend on an unstable HardState or on log entries above
	// the stable index are not here: Stable releases them.
	Messages []Message

	// Committed are the entries whose commitment became known, in log order
	// (apply ⊆ committed). On the leader they stop at its stable index; on
	// any other replica they may run ahead of the local disk — a crash then
	// recovers a shorter log and is handed the same entries again. None is
	// delivered above a leader-installed snapshot before its Restore.
	Committed []ApplyMsg

	// ReadStates answer the reads asked at this node (confirmed or aborted).
	ReadStates []ReadState

	// Restore, when non-nil, is a leader-installed snapshot that is now
	// durable: the driver must restore its state machine from it by
	// delivering an EntrySnapshot ApplyMsg ahead of Committed (which carries
	// whatever committed above the image while it was being written).
	Restore *Snapshot

	// TakeSnapshot, when non-nil, asks the application to capture a
	// state-machine image (the compaction policy fired). It carries no
	// durability or ordering obligation: the driver answers, possibly much
	// later, by calling Core.Compact with the serialized image.
	TakeSnapshot *SnapshotRequest

	// Events are the facts the core reported since the last drain, in
	// order: none is a promise, so none waits for a disk. The slice is the
	// core's reused buffer, valid until its next event. An EventStepDown
	// or EventDiskStepDown tells the driver to fail the proposals whose entries are not yet
	// durable with a retryable ErrLeaderStepdown (a write that lands later
	// may still let one commit: a Maybe outcome); a durable one waits for
	// its index to apply.
	Events []Event
}

// Ready is one whole batch — an Unstable and the Effects it releases —
// for drivers that persist synchronously: TakeReady is TakeUnstable +
// Stable + TakeEffects in one call. The caller MUST persist HardState,
// Snapshot, and Entries (in that order) before it sends Messages, resolves
// ReadStates, or delivers Committed, and must discard the whole batch and
// halt if the persist fails; under that discipline the batch is exactly what
// the staged contract would have released after the write.
type Ready struct {
	// The persist half (see Unstable).
	HardState *HardState
	Snapshot  *Snapshot
	// RestoreSnapshot marks Snapshot as a leader-installed image (vs. a
	// local compaction of already-applied state): after persisting, the
	// driver must restore its state machine from it by delivering an
	// EntrySnapshot ApplyMsg ahead of Committed.
	RestoreSnapshot bool
	FirstIndex      int
	Entries         []LogEntry

	// The release half (see Effects).
	Messages     []Message
	Committed    []ApplyMsg
	ReadStates   []ReadState
	TakeSnapshot *SnapshotRequest
	Events       []Event
}

// EventKind names one fact the core reports through Effects.Events. Each
// kind folds into one Counters field (Fold).
type EventKind uint8

const (
	EventElection         EventKind = iota // a real election started (term incremented)
	EventPreVoteRound                      // a term-neutral pre-election started
	EventPreVoteWon                        // a pre-election won a majority and escalated
	EventTimeoutCampaign                   // an election straight from a timeout (Pre-Vote off)
	EventTransferCampaign                  // a campaign opened by a leader's MsgTimeoutNow
	EventTermBump                          // a higher term adopted from a message: what Pre-Vote minimizes
	EventStepDown                          // leadership given up with no term change: no quorum contact (CheckQuorum)
	EventTransferStarted                   // a leadership transfer to Event.Peer began
	EventTransferAborted                   // a transfer abandoned (deadline, or leadership lost first)
	EventReadBarrier                       // a ReadIndex quorum barrier opened
	EventReadCoalesced                     // a read joined an already-open barrier
	EventLeaseRead                         // a read answered from the leader lease, no round
	EventDiskStepDown                      // leadership given up with no term change: the leader's own disk stalled
	NumEventKinds                          // the number of kinds; a new one goes above
)

// Event is one fact the core reports: its kind, and the transfer target of
// an EventTransferStarted (NoNode otherwise).
type Event struct {
	Kind EventKind
	Peer types.NodeID
}

// Counters are a node's monotone metrics over one incarnation: the driver's
// fold of the events its core released, one field per kind, and the writes
// it landed. The chaos harness and the benchmark read them.
type Counters struct {
	Elections         uint64
	PreVoteRounds     uint64
	PreVotesWon       uint64
	TimeoutElections  uint64
	TransferElections uint64
	TermBumps         uint64
	StepDowns         uint64
	TransfersStarted  uint64
	TransfersAborted  uint64
	ReadBarriers      uint64
	ReadsCoalesced    uint64
	LeaseReads        uint64
	DiskStepDowns     uint64
	EntryWrites       uint64 // SaveEntries calls the driver landed (a covered write's late landing too)
	SnapshotWrites    uint64 // SaveSnapshot calls the driver landed
}

// Fold counts one event of kind k: each kind moves its one field by one, and
// a kind with no field panics (TestEveryEventKindFolds).
func (c *Counters) Fold(k EventKind) {
	fields := [NumEventKinds]*uint64{
		EventElection: &c.Elections, EventPreVoteRound: &c.PreVoteRounds, EventPreVoteWon: &c.PreVotesWon,
		EventTimeoutCampaign: &c.TimeoutElections, EventTransferCampaign: &c.TransferElections,
		EventTermBump: &c.TermBumps, EventStepDown: &c.StepDowns,
		EventTransferStarted: &c.TransfersStarted, EventTransferAborted: &c.TransfersAborted,
		EventReadBarrier: &c.ReadBarriers, EventReadCoalesced: &c.ReadsCoalesced, EventLeaseRead: &c.LeaseReads,
		EventDiskStepDown: &c.DiskStepDowns,
	}
	*fields[k]++
}

// Add folds o into c, field by field: the one place that sums Counters
// across nodes and incarnations (TestCountersAddCoversEveryField fails when
// a new field is left out).
func (c *Counters) Add(o Counters) {
	c.Elections += o.Elections
	c.PreVoteRounds += o.PreVoteRounds
	c.PreVotesWon += o.PreVotesWon
	c.TimeoutElections += o.TimeoutElections
	c.TransferElections += o.TransferElections
	c.TermBumps += o.TermBumps
	c.StepDowns += o.StepDowns
	c.TransfersStarted += o.TransfersStarted
	c.TransfersAborted += o.TransfersAborted
	c.ReadBarriers += o.ReadBarriers
	c.ReadsCoalesced += o.ReadsCoalesced
	c.LeaseReads += o.LeaseReads
	c.DiskStepDowns += o.DiskStepDowns
	c.EntryWrites += o.EntryWrites
	c.SnapshotWrites += o.SnapshotWrites
}
