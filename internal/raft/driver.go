package raft

import (
	"fmt"
	"slices"
	"sync"

	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// Driver executes the staged Ready contract for one raftcore.Core: it alone
// decides when a batch is handed out (TakeUnstable), when it is reported
// durable (Stable, only after persist wrote it), and in what order what may
// leave is released (TakeEffects). raft.Node and the deterministic simulator
// are two shells around it, so every simulated schedule runs the production
// ordering. The shell serializes every call under its lock (the simulator's
// one thread holds it throughout); the driver releases the lock across the
// storage calls of a write.
//
// A durable driver keeps up to writeDepth writes in flight. The core hands
// out a second batch only beside a pure append, and that batch rewrites the
// log from the stable index up, so it covers every older write: whichever
// write lands first, its Stable makes it and every older one durable at
// once. An older write that lands later changes nothing, but its failure
// still fail-stops the node.
type Driver struct {
	core    *raftcore.Core
	storage Storage     // nil: volatile, a batch is stable as soon as it is taken
	mu      sync.Locker // the shell's lock
	sh      shell

	// writes are the batches handed out and not yet landed, oldest first:
	// the core's outstanding batches, in the same order.
	writes  []write
	nextSeq uint64   // the next write's sequence number
	err     error    // the fail-stop latch: set by a failed write, never cleared
	ctr     Counters // the fold of every event the core released, and the writes landed

	// props are the proposals whose entries are in the log but not yet
	// durable, in index order (the shell appends them); reads the pending
	// read barriers, each answered once with the confirmed index or a
	// negative abort code.
	props     []*Proposal
	reads     map[uint64]chan int
	nextRead  uint64 // the next read barrier's id
	wasLeader bool
}

// writeDepth is how many writes a durable driver keeps in flight: the one
// the core hands out, and one pipelined pure append beside it.
const writeDepth = 2

// write is one batch handed out to the shell's disk.
type write struct {
	seq uint64
	u   raftcore.Unstable
}

// Abort codes a read barrier's channel answers with instead of an index.
const (
	readAborted     = -1 // leadership lost or the node halted: ErrNotLeader
	readSteppedDown = -2 // lost in a CheckQuorum step-down: ErrLeaderStepdown
)

// ReadAborted is the error for a read whose channel answered the abort code
// idx: ErrLeaderStepdown for a read lost in a CheckQuorum step-down (a
// successor is likely up: re-probe at once), otherwise the redirect naming
// leader, the replica's known leader.
func ReadAborted(idx int, leader types.NodeID) error {
	if idx == readSteppedDown {
		return ErrLeaderStepdown
	}
	return raftcore.NotLeader(leader)
}

// shell is a runtime around a Driver. The driver calls it with the shell's
// lock held, in the release order.
type shell interface {
	// Write is asked when the core has a batch to persist and fewer than
	// writeDepth are in flight: take reports whether to hand it out now as
	// write seq, now whether it lands at once (otherwise the shell calls
	// Land(seq) when its write is due).
	Write(seq uint64) (take, now bool)
	Send(m Message)
	Apply(batch []ApplyMsg) // committed entries, a snapshot restore first
	// Snapshot asks for a state-machine image through req.Index, answered
	// now or later with Core.Compact or Core.AbortSnapshot.
	Snapshot(req raftcore.SnapshotRequest)
	// Abort fails the proposals the shell queued that never reached the log.
	Abort(err error)
	Halt(cause error)            // a write failed: the driver fail-stopped
	Events(evs []raftcore.Event) // ends every release with the facts it let out (maybe none)
}

// NewDriver wraps core with storage st (nil: volatile), shell lock mu and sh.
// It numbers its read barriers from firstRead up, which must lie above every
// id an earlier incarnation of the node used: a reply to a forwarded barrier
// can outlive the incarnation that opened it (a peer's send queue keeps it
// across a restart and flushes it on redial), and it is matched on its id
// alone.
func NewDriver(core *raftcore.Core, st Storage, mu sync.Locker, sh shell, firstRead uint64) *Driver {
	return &Driver{core: core, storage: st, mu: mu, sh: sh, reads: make(map[uint64]chan int), nextRead: firstRead}
}

// Ready runs after every core interaction: it hands out the next batch if
// the core has one and there is room in flight, then releases what may leave
// now.
func (d *Driver) Ready() {
	d.start()
	d.release()
}

// Land lands write seq, if it is still in flight, then runs Ready: the next
// batch is handed out before the effects the landing released leave.
func (d *Driver) Land(seq uint64) {
	d.land(seq)
	d.Ready()
}

// Counters returns the fold of the core's released events and the writes landed.
func (d *Driver) Counters() Counters { return d.ctr }

// Stop drops the writes in flight whole, never writing them or reporting them
// Stable (a node shutting down, a simulated power failure), and fails the
// waiting proposals with err.
func (d *Driver) Stop(err error) {
	d.failProps(err)
	d.writes = d.writes[:0]
}

func (d *Driver) start() {
	if d.err != nil || len(d.writes) == writeDepth || !d.core.HasUnstable() {
		return
	}
	seq := d.nextSeq
	take, now := true, true // volatile: no disk, the batch lands at once
	if d.storage != nil {
		take, now = d.sh.Write(seq)
	}
	if !take {
		return
	}
	d.nextSeq++
	u, _ := d.core.TakeUnstable()
	d.writes = append(d.writes, write{seq: seq, u: u})
	if now {
		d.land(seq)
	}
}

// land persists write seq, with the shell's lock released, and reports it
// Stable — or fail-stops with Stable never said, so nothing the failed batch
// was backing ever leaves. A volatile node has nothing to write; a write Stop
// dropped is not written at all.
func (d *Driver) land(seq uint64) {
	i := d.find(seq)
	if i < 0 {
		return
	}
	u := d.writes[i].u
	var err error
	if d.storage != nil {
		d.mu.Unlock()
		err = d.persist(u)
		d.mu.Lock()
		i = d.find(seq) // Stop, or an older write's landing, may have moved it meanwhile
	}
	if err != nil {
		d.failStop(err)
		return
	}
	if i < 0 {
		return
	}
	d.writes = slices.Delete(d.writes, i, i+1)
	if d.storage != nil && u.FirstIndex > 0 {
		d.ctr.EntryWrites++
	}
	if d.storage != nil && u.Snapshot != nil {
		d.ctr.SnapshotWrites++
	}
	d.core.Stable(i + 1)
}

// find returns the position of write seq in flight, or -1.
func (d *Driver) find(seq uint64) int {
	return slices.IndexFunc(d.writes, func(w write) bool { return w.seq == seq })
}

// persist writes u in the durability order: the HardState, then the snapshot
// image, and only then the entries whose SaveEntries may truncate the log
// prefix the image summarizes.
func (d *Driver) persist(u raftcore.Unstable) error {
	var err error
	if u.HardState != nil {
		err = d.storage.SaveState(*u.HardState)
	}
	if u.Snapshot != nil && err == nil {
		err = d.storage.SaveSnapshot(*u.Snapshot)
	}
	if u.FirstIndex > 0 && err == nil {
		err = d.storage.SaveEntries(u.FirstIndex, u.Entries)
	}
	return err
}

// failStop halts the driver because a write failed: voting, acking or
// leading on state that is not on disk would break the crash-recovery
// argument. Release is latched shut, the pending read barriers abort, and
// the queued and in-flight proposals fail.
func (d *Driver) failStop(cause error) {
	if d.err != nil {
		return // a second write failed: the node halted at the first
	}
	d.err = fmt.Errorf("%w: %v", ErrStorageFailed, cause)
	d.fold(d.core.TakeEvents()) // what the core did before the write failed still happened
	for id := range d.reads {
		d.answerRead(id, readAborted)
	}
	d.sh.Abort(raftcore.NotLeader(d.core.Leader()))
	d.failProps(d.err)
	d.sh.Halt(cause)
}

// release drains the core's Effects in the one release order: messages,
// read barriers, committed entries (a Restore first: the image replaces the
// state machine they apply to), the compaction request, leadership loss, the
// proposals a Stable made durable — taken off the list before a step-down can
// fail them, woken only after the broadcast has left — and last the events.
func (d *Driver) release() {
	if d.err != nil {
		return
	}
	k := 0
	for k < len(d.props) && d.props[k].idx <= d.core.StableIndex() {
		k++
	}
	durable := d.props[:k]
	d.props = d.props[k:]
	eff := d.core.TakeEffects()
	steppedDown := d.fold(eff.Events)
	for _, m := range eff.Messages {
		d.sh.Send(m)
	}
	for _, rs := range eff.ReadStates {
		idx := rs.Index
		if idx < 0 && steppedDown {
			idx = readSteppedDown // a successor is likely up: re-probe at once
		}
		d.answerRead(rs.ReqID, idx)
	}
	committed := eff.Committed
	if eff.Restore != nil {
		committed = append([]ApplyMsg{restoreMsg(eff.Restore)}, committed...)
	}
	if len(committed) > 0 {
		d.sh.Apply(committed)
	}
	if eff.TakeSnapshot != nil {
		d.sh.Snapshot(*eff.TakeSnapshot)
	}
	// Leadership lost: a successor may truncate the in-flight proposals. A
	// step-down fails them with the retryable ErrLeaderStepdown.
	isLeader := d.core.Role() == Leader
	if d.wasLeader && !isLeader {
		err := raftcore.NotLeader(d.core.Leader())
		if steppedDown {
			err = fmt.Errorf("%w (was %s)", ErrLeaderStepdown, d.core.ID())
		}
		d.sh.Abort(err)
		d.failProps(err)
	}
	d.wasLeader = isLeader
	for _, p := range durable {
		p.complete()
	}
	d.sh.Events(eff.Events)
}

// fold counts evs and reports whether one was a step-down.
func (d *Driver) fold(evs []raftcore.Event) (steppedDown bool) {
	for _, e := range evs {
		d.ctr.Fold(e.Kind)
		steppedDown = steppedDown || e.Kind == raftcore.EventStepDown
	}
	return steppedDown
}

func (d *Driver) failProps(err error) {
	for _, p := range d.props {
		p.fail(err)
	}
	d.props = nil
}

// Read starts one linearizable read under a fresh id: the core forwards it to
// the known leader, or answers it as the leader (lease, single-voter quorum or
// barrier). The channel answers once, from a later Ready — the shell's next
// one when the answer is at hand — with the confirmed index or a negative
// abort code, unless the read is cancelled first.
func (d *Driver) Read() (id uint64, wait <-chan int, err error) {
	id = d.nextRead
	d.nextRead++
	if err := d.core.ReadIndex(id); err != nil {
		return id, nil, err
	}
	ch := make(chan int, 1)
	d.reads[id] = ch
	return id, ch, nil
}

// CancelRead abandons the read id (its caller stopped waiting): an answer
// that still arrives for it goes nowhere.
func (d *Driver) CancelRead(id uint64) {
	delete(d.reads, id)
	d.core.CancelRead(id)
}

func (d *Driver) answerRead(reqID uint64, idx int) {
	if ch, ok := d.reads[reqID]; ok {
		delete(d.reads, reqID)
		ch <- idx
	}
}
