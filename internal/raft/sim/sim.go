// Package sim is the deterministic simulation shell for the sans-IO raft
// core: an N-node cluster stepped single-threaded on a logical clock, with a
// seeded virtual network (latency, jitter, loss, partitions) and
// fault-injectable in-memory disks. Two runs with the same options produce
// byte-identical event journals, so a failing chaos schedule replays exactly.
//
// Each node runs the very same raft.Driver raft.Node does, which hands out
// batches, lands them (Stable only after the write), fail-stops on a write
// error and releases effects in its one order, over the FileStorage each
// incarnation reopens on its node's disk. This package adds only what the live
// node has instead: writes that land a seeded number of ticks after they
// start (a crash before then loses them), each of the two a driver keeps in
// flight with its own draw, so a later write landing first is a seeded,
// replayable event; the packet heap and the journal.
package sim

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"adore/internal/raft"
	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// ErrDown reports an operation against a crashed or fail-stopped node.
var ErrDown = errors.New("sim: node is down")

// Options sizes and seeds a simulated cluster. All intervals are counted
// in ticks (the abstract clock unit; one Step advances one tick).
type Options struct {
	// Nodes is the cluster size (IDs 1..Nodes).
	Nodes int
	// Seed drives every random draw: election jitter, network latency
	// jitter, and message loss.
	Seed int64

	// ElectionTicks sets the protocol timers: a node campaigns after
	// ElectionTicks + rand(ElectionTicks) ticks without leader contact (a
	// node booted with nothing on disk after 1 + rand(ElectionTicks));
	// leaders broadcast every max(1, ElectionTicks/3). Zero gets 15.
	ElectionTicks int

	// LatencyJitterTicks bounds message delivery delay: uniform in
	// [1, 1+LatencyJitterTicks] ticks after send. Zero gets 2.
	LatencyJitterTicks int

	// SnapshotThreshold is forwarded to the core: after this many applied
	// entries above the snapshot base the core requests a compaction
	// (answered through the OnSnapshot hook). Zero disables local
	// snapshots; nodes still install leader-sent ones.
	SnapshotThreshold int

	// Ablation is forwarded to every core; the chaos harness uses it to
	// prove its oracles bite.
	raftcore.Ablation

	// DiskDelayTicks is the slow-disk model: every write lands a seeded
	// 0..DiskDelayTicks ticks after it started, drawn per write (0 = every
	// write lands in the tick that started it, the synchronous driver's
	// behavior).
	DiskDelayTicks int

	// EarlyStable is a disk MUTANT, for teeth tests only: the disk acks a
	// write when it starts and performs it when it lands, so the driver
	// reports Stable early. The applied ⊆ quorum-durable oracle must catch
	// the first commit no disk holds; the acked⇒durable oracles, the loss
	// once a crash drops an acked write.
	EarlyStable bool
}

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	if o.ElectionTicks <= 0 {
		o.ElectionTicks = 15
	}
	if o.LatencyJitterTicks <= 0 {
		o.LatencyJitterTicks = 2
	}
}

// node is one simulated replica: the core and its driver, plus liveness
// and disk state. It is the driver's shell.
type node struct {
	s        *Cluster
	id       types.NodeID
	core     *raftcore.Core
	d        *raft.Driver
	st       *raft.FileStorage // this incarnation's, on the node's disk (nil: did not open, or wiped)
	early    *earlyDisk        // the EarlyStable mutant's disk (nil otherwise)
	up       bool
	failErr  error // fail-stop cause (nil while healthy)
	lastRole raftcore.Role
	doomAt   int64 // scheduled hard crash (0 = none)

	// writes are the writes on the node's disk (the driver's in flight, or
	// the mutant's acked one), in the order they started, each landing at its
	// own tick, never before stallUntil.
	writes     []diskWrite
	stallUntil int64
}

// diskWrite is one write on a node's disk: the driver's write seq, landing at
// tick at.
type diskWrite struct {
	seq uint64
	at  int64
}

// packet is one in-flight message.
type packet struct {
	at  int64  // delivery tick
	seq uint64 // FIFO tie-break for equal delivery ticks
	m   raftcore.Message
}

// packetHeap orders packets by (at, seq) — a deterministic delivery order.
type packetHeap []packet

func (h packetHeap) Len() int { return len(h) }
func (h packetHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h packetHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *packetHeap) Push(x any)   { *h = append(*h, x.(packet)) }
func (h *packetHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	*h = old[:n-1]
	return p
}

// Cluster is a simulated raft cluster. Not safe for concurrent use: the
// whole point is that exactly one goroutine steps it.
type Cluster struct {
	opt     Options
	rng     *rand.Rand
	now     int64
	sendSeq uint64

	ids      []types.NodeID // sorted, fixed
	members0 []types.NodeID // initial configuration (for restarts)
	nodes    map[types.NodeID]*node
	disks    map[types.NodeID]*raft.FaultFS // each node's disk, across incarnations

	inflight packetHeap
	blocked  map[[2]types.NodeID]bool
	dropRate float64

	boots uint64 // nodes booted so far, restarts included

	onApply    func(id types.NodeID, batch []raftcore.ApplyMsg)
	onSnapshot func(id types.NodeID, index int) []byte

	journal bytes.Buffer
}

// New builds a cluster of opt.Nodes fresh replicas, all stopped at tick 0.
// Call Step to advance time.
func New(opt Options) *Cluster {
	opt.defaults()
	s := &Cluster{
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		nodes:   make(map[types.NodeID]*node, opt.Nodes),
		disks:   make(map[types.NodeID]*raft.FaultFS, opt.Nodes),
		blocked: make(map[[2]types.NodeID]bool),
	}
	for i := 1; i <= opt.Nodes; i++ {
		id := types.NodeID(i)
		s.ids = append(s.ids, id)
		s.members0 = append(s.members0, id)
	}
	for _, id := range s.ids {
		s.disks[id] = raft.NewFaultFS(raft.NewMemFS())
		s.bootNode(id)
	}
	return s
}

// bootNode (re)creates a node's core from a FileStorage it opens on the node's
// disk, closing the previous incarnation's. A recovered snapshot is
// re-delivered through the apply hook before any replayed suffix entries,
// exactly like the runtime driver's restart path. A disk that does not reopen
// leaves the node fail-stopped on the error, with nothing recovered.
func (s *Cluster) bootNode(id types.NodeID) {
	if old := s.nodes[id]; old != nil && old.st != nil {
		old.st.Close()
	}
	var hs raft.HardState
	var snap raft.LogSnapshot
	var log []raft.LogEntry
	st, err := raft.OpenFileStorageOn(s.disks[id], "wal")
	if err == nil {
		hs, snap, log, err = st.Load()
	}
	core := raftcore.New(raftcore.Config{
		ID:                id,
		Members:           s.members0,
		ElectionTicks:     s.opt.ElectionTicks,
		Jitter:            s.jitter,
		HeartbeatTicks:    max(1, s.opt.ElectionTicks/3),
		SnapshotThreshold: s.opt.SnapshotThreshold,
		Ablation:          s.opt.Ablation,
	}, hs, snap, log)
	n := &node{s: s, id: id, core: core, up: true, lastRole: raftcore.Follower}
	var store raft.Storage
	if err != nil {
		n.failErr = fmt.Errorf("sim: reopen S%d: %w", id, err)
		s.Journalf("S%d reopen failed: %v", id, err)
	} else if n.st, store = st, st; s.opt.EarlyStable {
		n.early = &earlyDisk{Storage: st}
		store = n.early
	}
	mu := new(sync.Mutex)
	mu.Lock() // the simulator's one thread holds the driver's lock throughout
	s.boots++ // each incarnation numbers its read barriers in a block of its own
	n.d = raft.NewDriver(core, store, mu, n, s.boots<<32)
	s.nodes[id] = n
	if snap.Index > 0 {
		s.Journalf("S%d recover snapshot@%d", id, snap.Index)
		if s.onApply != nil {
			s.onApply(id, []raftcore.ApplyMsg{{
				Index: snap.Index, Term: snap.Term, Kind: raftcore.EntrySnapshot,
				Command: snap.Data, Members: snap.Members,
			}})
		}
	}
}

func (s *Cluster) jitter() int { return s.rng.Intn(s.opt.ElectionTicks) }

// --- Introspection ---

// Now returns the current tick.
func (s *Cluster) Now() int64 { return s.now }

// IDs returns the node identities in ascending order. Callers must not
// mutate the slice.
func (s *Cluster) IDs() []types.NodeID { return s.ids }

// Alive reports whether the node is running (not crashed, not
// fail-stopped).
func (s *Cluster) Alive(id types.NodeID) bool {
	n := s.nodes[id]
	return n.up && n.failErr == nil
}

// FailStopErr returns the storage error that fail-stopped the node, or nil.
func (s *Cluster) FailStopErr(id types.NodeID) error { return s.nodes[id].failErr }

// Status reports a node's term, role, and known leader. Crashed and
// fail-stopped nodes report followers with no leader (matching the
// runtime driver's post-fail-stop Status).
func (s *Cluster) Status(id types.NodeID) (types.Time, raftcore.Role, types.NodeID) {
	n := s.nodes[id]
	if !s.Alive(id) {
		return n.core.Term(), raftcore.Follower, types.NoNode
	}
	return n.core.Term(), n.core.Role(), n.core.Leader()
}

// CommitIndex returns a node's commit index.
func (s *Cluster) CommitIndex(id types.NodeID) int { return s.nodes[id].core.CommitIndex() }

// StableIndex returns the last log index a node knows durable — the log a
// crash right now would recover, and so the replica's support in the
// paper's sense (what the refinement and committed-prefix oracles observe).
func (s *Cluster) StableIndex(id types.NodeID) int { return s.nodes[id].core.StableIndex() }

// DiskHolds reports whether a node's DISK holds the entry (idx, term), as a log
// entry of that term or folded into its snapshot: what a power cycle at this
// instant would recover, whether the node is up, down, or mid-write — and
// whatever its core believes (a driver that reports Stable early is wrong
// about exactly this).
func (s *Cluster) DiskHolds(id types.NodeID, idx int, term types.Time) bool {
	st := s.nodes[id].st
	if st == nil {
		return false
	}
	_, snap, log, _ := st.Load() // FileStorage.Load reads its cache and never fails
	if idx <= snap.Index {
		return true
	}
	p := idx - snap.Index - 1
	return p < len(log) && log[p].Term == term
}

// LastIndex returns the index of a node's last log entry.
func (s *Cluster) LastIndex(id types.NodeID) int { return s.nodes[id].core.LastIndex() }

// Entry returns a node's log entry at index i (1-based). The index must be
// above the node's snapshot base (see FirstIndex).
func (s *Cluster) Entry(id types.NodeID, i int) raftcore.LogEntry { return s.nodes[id].core.Entry(i) }

// FirstIndex returns the first log index a node still holds as an entry
// (snapshot base + 1). 1 when the node has never compacted.
func (s *Cluster) FirstIndex(id types.NodeID) int { return s.nodes[id].core.FirstIndex() }

// SnapshotIndex returns the node's snapshot base index (0 = no snapshot).
func (s *Cluster) SnapshotIndex(id types.NodeID) int { return s.nodes[id].core.SnapshotIndex() }

// SnapshotTerm returns the term of the entry at the snapshot base.
func (s *Cluster) SnapshotTerm(id types.NodeID) types.Time { return s.nodes[id].core.SnapshotTerm() }

// Members returns a node's effective membership.
func (s *Cluster) Members(id types.NodeID) types.NodeSet { return s.nodes[id].core.Members() }

// Leader returns the alive leader with the highest term, if any.
func (s *Cluster) Leader() (types.NodeID, bool) {
	var best types.NodeID
	var bestTerm types.Time
	found := false
	for _, id := range s.ids {
		if !s.Alive(id) {
			continue
		}
		c := s.nodes[id].core
		if c.Role() == raftcore.Leader && (!found || c.Term() > bestTerm) {
			best, bestTerm, found = id, c.Term(), true
		}
	}
	return best, found
}

// --- Journal ---

// Journalf appends one formatted line to the run journal (the driver
// prefixes the current tick). Chaos runners log nemesis and client events
// here so the whole run is one deterministic transcript.
func (s *Cluster) Journalf(format string, args ...any) {
	fmt.Fprintf(&s.journal, "t=%06d ", s.now)
	fmt.Fprintf(&s.journal, format, args...)
	s.journal.WriteByte('\n')
}

// Journal returns the transcript so far. Two runs with equal Options
// produce byte-identical journals.
func (s *Cluster) Journal() []byte { return s.journal.Bytes() }

// --- Time ---

// Step advances the cluster one tick: scheduled crashes land, due disk
// writes land (each reporting Stable), due messages are delivered (in
// deterministic (tick, send-order) order), then every alive node's clock
// ticks. Each core interaction is followed by its Ready execution, so
// released effects never linger across ticks.
func (s *Cluster) Step() {
	s.now++
	for _, id := range s.ids {
		n := s.nodes[id]
		if n.doomAt != 0 && n.doomAt <= s.now {
			n.doomAt = 0
			if n.up {
				s.Journalf("S%d crash (scheduled)", id)
				s.powerOff(n)
			}
		}
	}
	for _, id := range s.ids {
		n := s.nodes[id]
		for n.up && n.failErr == nil {
			i := n.dueWrite()
			if i < 0 {
				break
			}
			w := n.writes[i]
			n.writes = slices.Delete(n.writes, i, i+1)
			if n.early != nil {
				if err := n.early.land(); err != nil {
					n.Halt(err) // the disk failed a write the driver already believed
					break
				}
			}
			n.d.Land(w.seq)
		}
	}
	for len(s.inflight) > 0 && s.inflight[0].at <= s.now {
		p := heap.Pop(&s.inflight).(packet)
		n := s.nodes[p.m.To]
		if !n.up || n.failErr != nil {
			continue // dropped on the floor: the receiver is down
		}
		n.core.Step(p.m)
		n.d.Ready()
	}
	for _, id := range s.ids {
		n := s.nodes[id]
		if !n.up || n.failErr != nil {
			continue
		}
		n.core.Tick()
		n.d.Ready()
	}
}

// Write puts write seq, which the driver is about to hand out, on the node's
// disk: it lands a seeded 0..DiskDelayTicks ticks later (at once for 0), never
// before a stall clears, whatever the other write in flight draws. The
// mutant's disk acks it at once, so the driver lands it early, and takes no
// other write until it is written.
func (n *node) Write(seq uint64) (take, now bool) {
	if n.early != nil && len(n.writes) > 0 {
		return false, false // the mutant's disk is still writing the acked batch
	}
	at := n.s.now
	if d := n.s.opt.DiskDelayTicks; d > 0 {
		at += int64(n.s.rng.Intn(d + 1))
	}
	at = max(at, n.stallUntil)
	writing := at > n.s.now
	if writing {
		n.writes = append(n.writes, diskWrite{seq: seq, at: at})
	}
	if n.early != nil {
		n.early.held = writing
	}
	return true, !writing || n.early != nil
}

// dueWrite returns the position of the write to land now — the earliest due
// — or -1 when none is due. Two due at the same tick (a stall releasing both)
// land in a seeded order: a disk completes them in either.
func (n *node) dueWrite() int {
	due := -1
	for i, w := range n.writes {
		if w.at <= n.s.now && (due < 0 || w.at < n.writes[due].at) {
			due = i
		}
	}
	if due == 0 && len(n.writes) == 2 && n.writes[1].at == n.writes[0].at && n.s.rng.Intn(2) == 1 {
		return 1
	}
	return due
}

func (n *node) Send(m raftcore.Message) { n.s.deliver(m) }

func (n *node) Apply(batch []raftcore.ApplyMsg) {
	s := n.s
	if batch[0].Kind == raftcore.EntrySnapshot {
		s.Journalf("S%d install snapshot@%d", n.id, batch[0].Index)
	}
	s.Journalf("S%d commit %d..%d", n.id, batch[0].Index, batch[len(batch)-1].Index)
	if s.onApply != nil {
		s.onApply(n.id, batch)
	}
}

// Snapshot answers the compaction policy synchronously: the apply hook has
// already applied through the requested index.
func (n *node) Snapshot(req raftcore.SnapshotRequest) {
	s := n.s
	if s.onSnapshot == nil {
		n.core.AbortSnapshot()
		return
	}
	data := s.onSnapshot(n.id, req.Index)
	if n.core.Compact(req.Index, data) {
		s.Journalf("S%d snapshot@%d (disk through %d)", n.id, req.Index, n.core.StableIndex())
		n.d.Ready() // persist the compaction's effects
	}
}

func (n *node) Abort(error) {} // the simulator queues no proposals outside the log

func (n *node) Halt(cause error) {
	n.failErr = cause
	n.s.Journalf("S%d fail-stop: %v", n.id, cause)
}

// Events journals the election events a release let out, then the node's role
// if it changed, so "did this reconfiguration time an election out?" is a grep.
func (n *node) Events(evs []raftcore.Event) {
	for _, e := range evs {
		if line := journalLine(n.id, e); line != "" {
			n.s.Journalf("%s", line)
		}
	}
	if role := n.core.Role(); role != n.lastRole {
		n.s.Journalf("S%d %s@t%d", n.id, role, n.core.Term())
		n.lastRole = role
	}
}

// journalLine renders the five journaled event kinds, and "" for the kinds the
// journal leaves to the counters.
func journalLine(id types.NodeID, e raftcore.Event) string {
	switch e.Kind {
	case raftcore.EventTransferStarted:
		return fmt.Sprintf("S%d transfer -> S%d", id, e.Peer)
	case raftcore.EventPreVoteRound:
		return fmt.Sprintf("S%d prevote round", id)
	case raftcore.EventTimeoutCampaign:
		return fmt.Sprintf("S%d campaign (timeout)", id)
	case raftcore.EventTransferCampaign:
		return fmt.Sprintf("S%d campaign (transfer)", id)
	case raftcore.EventStepDown:
		return fmt.Sprintf("S%d step-down (no quorum)", id)
	default:
		return ""
	}
}

// powerOff takes a node down. A write that has not landed is lost whole; a
// torn one comes from CrashTorn's power cut, which fires inside the write.
func (s *Cluster) powerOff(n *node) {
	n.up = false
	s.Journalf("S%d down: applied through %d, disk through %d", n.id, n.core.AppliedIndex(), n.core.StableIndex())
	if len(n.writes) == 0 {
		return
	}
	n.writes = n.writes[:0]
	s.Journalf("S%d in-flight write lost", n.id)
	n.d.Stop(ErrDown) // the mutant's held saves go with its incarnation
}

// earlyDisk is the EarlyStable mutant's disk: while held it acks each save
// and only records it, so the real driver reports Stable for a batch no disk
// holds yet.
type earlyDisk struct {
	raft.Storage
	held   bool
	writes []func() error // the held saves, in order
}

func (e *earlyDisk) SaveState(hs raft.HardState) error {
	return e.save(func() error { return e.Storage.SaveState(hs) })
}
func (e *earlyDisk) SaveSnapshot(snap raft.LogSnapshot) error {
	return e.save(func() error { return e.Storage.SaveSnapshot(snap) })
}
func (e *earlyDisk) SaveEntries(first int, es []raft.LogEntry) error {
	return e.save(func() error { return e.Storage.SaveEntries(first, es) })
}

func (e *earlyDisk) save(write func() error) error {
	if !e.held {
		return write()
	}
	e.writes = append(e.writes, write)
	return nil
}

// land performs the held saves.
func (e *earlyDisk) land() (err error) {
	for _, write := range e.writes {
		if err == nil {
			err = write()
		}
	}
	e.writes, e.held = nil, false
	return err
}

// deliver enqueues one outbound message, applying partitions and loss at
// send time (like the runtime's in-memory network).
func (s *Cluster) deliver(m raftcore.Message) {
	if s.blocked[[2]types.NodeID{m.From, m.To}] {
		return
	}
	if s.dropRate > 0 && s.rng.Float64() < s.dropRate {
		return
	}
	delay := int64(1 + s.rng.Intn(s.opt.LatencyJitterTicks+1))
	s.sendSeq++
	heap.Push(&s.inflight, packet{at: s.now + delay, seq: s.sendSeq, m: m})
}

// OnApply registers the committed-entry hook (one per cluster): batches
// arrive in commit order per node, including replays after restarts.
func (s *Cluster) OnApply(f func(id types.NodeID, batch []raftcore.ApplyMsg)) { s.onApply = f }

// OnSnapshot registers the state-machine capture hook: given a node and
// the index the policy requested, return the serialized image of that
// node's state machine as applied through exactly that index (the sim's
// apply hook is synchronous, so "current state" is correct). Without a
// hook, TakeSnapshot effects are aborted.
func (s *Cluster) OnSnapshot(f func(id types.NodeID, index int) []byte) { s.onSnapshot = f }

// --- Client-facing operations ---

// op runs one client operation at node id: the core call, then the node's
// Ready, also after a refusal (a refused ProposeConfig may have started a
// hand-off). A fail-stop inside that Ready is the operation's error.
func (s *Cluster) op(id types.NodeID, call func(n *node) error) error {
	n := s.nodes[id]
	if !s.Alive(id) {
		return ErrDown
	}
	err := call(n)
	n.d.Ready()
	if err != nil {
		return err
	}
	return n.failErr
}

// Propose appends a command at node id and starts its write. Unlike the
// runtime driver's blocking Propose it returns at once: the entry is durable
// (and broadcast) only when the node's disk lands the write.
func (s *Cluster) Propose(id types.NodeID, cmd []byte) (idx int, term types.Time, err error) {
	err = s.op(id, func(n *node) (err error) { idx, term, err = n.core.Propose(cmd); return err })
	return idx, term, err
}

// ProposeConfig proposes a membership change at node id (R1/R2/R3 guards
// apply as configured; a change removing the leader starts its hand-off).
func (s *Cluster) ProposeConfig(id types.NodeID, members types.NodeSet) (idx int, term types.Time, err error) {
	err = s.op(id, func(n *node) (err error) { idx, term, err = n.core.ProposeConfig(members); return err })
	return idx, term, err
}

// TransferLeader starts a graceful leadership handoff at node id (which
// must be the leader) to peer to; NoNode picks the most caught-up voter.
func (s *Cluster) TransferLeader(id, to types.NodeID) error {
	return s.op(id, func(n *node) error { return n.core.TransferLeader(to) })
}

// Driver returns the driver of a node's current incarnation (Restart replaces it).
func (s *Cluster) Driver(id types.NodeID) *raft.Driver { return s.nodes[id].d }

// Read starts one linearizable read at node id: a follower forwards it to
// its known leader, a leader answers it itself (lease, single-voter quorum or
// barrier). wait answers once with the index to serve the read at on node id
// — in this call's Ready when the answer is at hand, otherwise on a later
// tick — negative if the read aborted (leadership lost, the forward refused,
// the node halted): retry.
func (s *Cluster) Read(id types.NodeID) (wait <-chan int, err error) {
	err = s.op(id, func(n *node) (err error) { _, wait, err = n.d.Read(); return err })
	return wait, err
}

// LeaseProbe is the side-effect-free lease inspection used by the chaos
// stale-read oracle: whether node id would answer a read from its lease right
// now, and at what index, without serving one.
func (s *Cluster) LeaseProbe(id types.NodeID) (idx int, ok bool) {
	if !s.Alive(id) {
		return 0, false
	}
	return s.nodes[id].core.LeaseStatus()
}

// --- Nemesis operations ---

// DiskStalled reports whether a StallDisk is still holding the node's writes.
func (s *Cluster) DiskStalled(id types.NodeID) bool { return s.nodes[id].stallUntil > s.now }

// Partition blocks all traffic between the two groups (both directions).
func (s *Cluster) Partition(a, b []types.NodeID) {
	for _, x := range a {
		for _, y := range b {
			s.blocked[[2]types.NodeID{x, y}] = true
			s.blocked[[2]types.NodeID{y, x}] = true
		}
	}
	s.Journalf("partition %v | %v", a, b)
}

// Isolate cuts one node off from everyone else.
func (s *Cluster) Isolate(id types.NodeID) {
	for _, other := range s.ids {
		if other != id {
			s.blocked[[2]types.NodeID{id, other}] = true
			s.blocked[[2]types.NodeID{other, id}] = true
		}
	}
	s.Journalf("isolate S%d", id)
}

// BlockOneWay blocks traffic from a to b only (an asymmetric link fault:
// b still reaches a). One-way faults are what make Pre-Vote and
// CheckQuorum earn their keep — a node that can hear but not be heard.
func (s *Cluster) BlockOneWay(a, b types.NodeID) {
	s.blocked[[2]types.NodeID{a, b}] = true
	s.Journalf("block S%d->S%d", a, b)
}

// Linked reports whether the link between a and b is clean in BOTH
// directions (no partition or one-way block; probabilistic loss does not
// count).
func (s *Cluster) Linked(a, b types.NodeID) bool {
	return !s.blocked[[2]types.NodeID{a, b}] && !s.blocked[[2]types.NodeID{b, a}]
}

// DropRate returns the current message-loss probability.
func (s *Cluster) DropRate() float64 { return s.dropRate }

// Heal removes all partitions.
func (s *Cluster) Heal() {
	s.blocked = make(map[[2]types.NodeID]bool)
	s.Journalf("heal")
}

// SetDropRate sets the probability of dropping each message.
func (s *Cluster) SetDropRate(p float64) {
	s.dropRate = p
	s.Journalf("drop-rate %.2f", p)
}

// Crash stops a node immediately (clean crash: the WAL keeps every synced
// frame; in-flight messages to it are lost).
func (s *Cluster) Crash(id types.NodeID) {
	n := s.nodes[id]
	if n.up {
		s.Journalf("S%d crash (clean)", id)
		s.powerOff(n)
	}
	n.doomAt = 0
}

// StallDisk freezes a node's disk for the next ticks ticks: no write — those
// in flight included — lands before the stall clears. Messages, ticks
// and reads go on: only what waits for Stable waits.
func (s *Cluster) StallDisk(id types.NodeID, ticks int64) {
	n := s.nodes[id]
	n.stallUntil = s.now + ticks
	for i := range n.writes {
		n.writes[i].at = max(n.writes[i].at, n.stallUntil)
	}
	s.Journalf("S%d disk stalled for %d ticks", id, ticks)
}

// TornBytes bounds a torn crash's seeded cut: the power goes after
// 0..TornBytes-1 more bytes, inside the next record or two.
const TornBytes = 64

// CrashTorn arms a power cut on the node's disk after a seeded number of
// bytes and schedules a hard crash graceTicks later: if the node writes past
// the cut in the window, that write is torn and the node fail-stops on it
// (exercising the fail-stop path), otherwise the scheduled crash lands.
// Mirrors the real-time executor's torn-crash sequencing.
func (s *Cluster) CrashTorn(id types.NodeID, graceTicks int64) {
	n := s.rng.Intn(TornBytes)
	s.disks[id].CutAfter(n)
	s.nodes[id].doomAt = s.now + graceTicks
	s.Journalf("S%d crash (torn after %d bytes, grace=%d)", id, n, graceTicks)
}

// CrashWound arms a plain error on the node's next disk write, of any record,
// and schedules the hard crash, like CrashTorn but with a non-torn fault.
func (s *Cluster) CrashWound(id types.NodeID, graceTicks int64) {
	s.disks[id].FailNextWrite(fmt.Errorf("sim: injected write error on S%d", id))
	s.nodes[id].doomAt = s.now + graceTicks
	s.Journalf("S%d crash (wound, grace=%d)", id, graceTicks)
}

// WipeStorage destroys a node's durable raft state while it is down (the
// node is crashed first if needed). This is NOT a raft fault mode — a
// correct single-group deployment can lose a disk but not silently lose
// only its WAL — it models the cross-group storage-corruption bug the
// multiraft per-group subdirectories exist to prevent: another group's
// compaction unlinking this group's segment files. The wiped node restarts
// as a blank follower with its vote and log gone, which is exactly the
// state from which raft can be induced to overwrite a committed prefix;
// the per-group oracles must flag the resulting divergence.
func (s *Cluster) WipeStorage(id types.NodeID) {
	n := s.nodes[id]
	if n.up {
		s.Journalf("S%d crash (for wipe)", id)
		s.powerOff(n)
	}
	n.doomAt = 0
	if n.st != nil {
		n.st.Close()
		n.st = nil
	}
	s.disks[id] = raft.NewFaultFS(raft.NewMemFS())
	s.Journalf("S%d storage wiped", id)
}

// Disk returns a node's disk, which outlives its incarnations (not a wipe).
func (s *Cluster) Disk(id types.NodeID) *raft.FaultFS { return s.disks[id] }

// ClearFaults disarms any armed (not yet tripped) storage faults on the
// node without restarting it — the epilogue's "repair the disk" step.
func (s *Cluster) ClearFaults(id types.NodeID) { s.disks[id].Clear() }

// Restart repairs a node's storage faults and boots a fresh incarnation
// from its durable state. It is a no-op for a node that is still healthy.
func (s *Cluster) Restart(id types.NodeID) {
	n := s.nodes[id]
	if n.up && n.failErr == nil {
		return
	}
	s.disks[id].Clear()
	s.bootNode(id)
	s.Journalf("S%d restart", id)
}
