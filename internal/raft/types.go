// Package raft is an executable Raft-like consensus runtime with hot
// single-node reconfiguration — the Go counterpart of the paper's extracted
// OCaml protocol plus its "small, unverified network library wrapper" (§7).
//
// The protocol itself lives in the sans-IO subpackage raftcore: a pure
// state machine stepped by messages and logical ticks that emits its
// effects in staged Ready batches. This package is the runtime around it.
// Driver (driver.go) executes the stages in the order the core's contract
// requires: persist the hard state and log suffix first, then release what
// that write was backing — votes, acks, the leader's broadcast and commit
// deliveries. Node is the concurrent shell around the Driver: goroutines,
// the group-commit write lane and transports. It has no clock; its owner
// (multiraft.Host) ticks it and hands it its inbox.
// That ordering preserves the acked⇒durable invariant (no promise reaches a
// peer or client before the durable write that backs it), and a failed
// persist fail-stops the node before anything the batch backed escapes. What
// a follower learns committed is not a promise of its own disk and is
// delivered without waiting for it.
//
// The protocol follows the SRaft specification this repository refines into
// Adore (packages raftnet/sraft/refine), made incremental and practical:
//
//   - randomized election timeouts and heartbeats drive leader election;
//   - log replication uses standard AppendEntries consistency checks
//     instead of whole-log shipping;
//   - a new leader immediately appends a no-op entry in its term, which
//     both lets it commit (Raft's current-term commitment rule) and
//     establishes the R3 precondition for reconfiguration;
//   - configuration changes are special log entries that take effect the
//     moment they are appended ("hot"), guarded by R1 (one node at a
//     time), R2 (no uncommitted config entry), and R3 (a committed entry
//     in the leader's current term) — the certified algorithm of the
//     paper, with the published bug toggleable for experiments.
//
// Package transport has the one transport, which carries the length-prefixed
// binary frames of wire.go over the operating system's network or over an
// in-memory one with injectable latency, loss, and partitions.
package raft

import (
	"adore/internal/raft/raftcore"
)

// The wire and log types are defined in the sans-IO core and re-exported
// here so existing callers (transports, cluster harness, chaos, kvstore)
// keep compiling unchanged.

// Role is a node's protocol role.
type Role = raftcore.Role

const (
	// Follower, Candidate, Leader are the standard Raft roles.
	Follower  = raftcore.Follower
	Candidate = raftcore.Candidate
	Leader    = raftcore.Leader
	// PreCandidate is the Pre-Vote probing role: the node is sounding out
	// whether it could win an election without yet bumping its term.
	PreCandidate = raftcore.PreCandidate
)

// EntryKind distinguishes runtime log entries.
type EntryKind = raftcore.EntryKind

const (
	// EntryCommand carries an opaque state-machine command.
	EntryCommand = raftcore.EntryCommand
	// EntryNoOp is the leader's term-opening barrier entry.
	EntryNoOp = raftcore.EntryNoOp
	// EntryConfig carries a new member list (hot reconfiguration).
	EntryConfig = raftcore.EntryConfig
	// EntrySnapshot is an apply-stream-only kind: restore the state
	// machine from the snapshot image in Command.
	EntrySnapshot = raftcore.EntrySnapshot
)

// LogEntry is one slot of the replicated log. Index 0 is unused (logs are
// 1-indexed, as in the Raft paper).
type LogEntry = raftcore.LogEntry

// MessageType enumerates the runtime's RPCs, modeled as asynchronous
// messages.
type MessageType = raftcore.MessageType

const (
	// MsgVoteRequest / MsgVoteResponse implement leader election.
	MsgVoteRequest  = raftcore.MsgVoteRequest
	MsgVoteResponse = raftcore.MsgVoteResponse
	// MsgAppendEntries / MsgAppendResponse implement replication and
	// heartbeats.
	MsgAppendEntries  = raftcore.MsgAppendEntries
	MsgAppendResponse = raftcore.MsgAppendResponse
	// MsgInstallSnapshot streams a leader snapshot to a laggard follower.
	MsgInstallSnapshot = raftcore.MsgInstallSnapshot
	// MsgPreVoteRequest / MsgPreVoteResponse implement the term-neutral
	// Pre-Vote phase that precedes a real election.
	MsgPreVoteRequest  = raftcore.MsgPreVoteRequest
	MsgPreVoteResponse = raftcore.MsgPreVoteResponse
	// MsgTimeoutNow tells a caught-up transfer target to campaign
	// immediately, bypassing Pre-Vote and leader stickiness.
	MsgTimeoutNow = raftcore.MsgTimeoutNow
)

// Message is the single message type for every RPC. In-memory transports
// pass it as a Go value; wire.go is its byte format on a stream.
type Message = raftcore.Message

// ApplyMsg is handed to Options.OnApply for every committed entry, in log
// order.
type ApplyMsg = raftcore.ApplyMsg

// HardState is the durable per-node protocol state that Raft requires to
// survive crashes: the current term and the vote cast in it.
type HardState = raftcore.HardState

// Counters are the driver's fold of the events its core released and the
// writes it landed, exported through Node.Snapshot for monitors and experiments.
type Counters = raftcore.Counters

// Ablation is the core's set of guard-removal switches (experiments only);
// Options embeds it and forwards it whole.
type Ablation = raftcore.Ablation

// LogSnapshot is a durable summary of the committed log prefix [1, Index]:
// a state-machine image plus splice metadata. (The name avoids a clash
// with Node.Snapshot, the consistent status view.)
type LogSnapshot = raftcore.Snapshot

// GroupID identifies one raft group (shard) among the many a process can
// host. The sans-IO core is group-oblivious — a Core instance IS one group —
// so the ID lives purely in the infrastructure layers: transports stamp it
// on outgoing envelopes and demultiplex inbound traffic by it, storage
// namespaces WAL directories by it, and the chaos oracles partition their
// checks by it. Single-group deployments use group 0 everywhere.
type GroupID uint32

// Envelope is a group-tagged message: the routing unit of the multiplexing
// transports. One socket (or in-memory link) per peer carries envelopes for
// every group; the per-group endpoint stamps Group on send and the receiver
// strips it when demultiplexing into that group's inbox. The core never
// sees an Envelope — only the bare Message inside.
type Envelope struct {
	Group GroupID
	Msg   Message
}

// Transport sends messages between nodes. Send must not block for long and
// may drop messages silently; the protocol tolerates loss.
type Transport interface {
	// Send transmits m to m.To (best effort).
	Send(m Message)
	// Close releases transport resources for this endpoint.
	Close() error
}
