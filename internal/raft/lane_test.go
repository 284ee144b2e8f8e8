package raft_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// This file pins the write lane's contract from outside the node: the disk
// is out of the node mutex (reads, snapshots and heartbeat acks do not wait
// for a blocked SaveEntries), nothing persistence-dependent leaves before
// its write returned (no ack above the durable index, no vote before its
// SaveState), a follower persists several AppendEntries with one write, a
// follower applies what the quorum committed without waiting for its own
// write, and Stop during a write is clean.

// laneStorage is the test's storage seam: it can hold SaveEntries calls at a
// gate, and it records — at the moment each Save call RETURNS — the highest
// durable log index and every durable ballot, which is what the recording
// transport checks outgoing messages against.
type laneStorage struct {
	raft.Storage
	delay time.Duration // every SaveEntries takes at least this long

	mu      sync.Mutex
	gate    chan struct{} // non-nil: SaveEntries blocks until it is closed
	entered chan struct{} // receives once per SaveEntries call held at the gate
	durable int
	ballots map[raft.HardState]bool
}

func newLaneStorage(inner raft.Storage) *laneStorage {
	return &laneStorage{Storage: inner, entered: make(chan struct{}, 64), ballots: map[raft.HardState]bool{}}
}

func (s *laneStorage) hold() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = make(chan struct{})
}

func (s *laneStorage) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
}

func (s *laneStorage) SaveEntries(first int, entries []raft.LogEntry) error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		s.entered <- struct{}{}
		<-gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if err := s.Storage.SaveEntries(first, entries); err != nil {
		return err
	}
	// What the disk holds now: a truncating write lowers it, and a write of
	// entries the disk already held (a pipelined write's older, covered
	// twin landing late) keeps the suffix above them.
	s.mu.Lock()
	defer s.mu.Unlock()
	_, snap, log, err := s.Storage.Load()
	s.durable = snap.Index + len(log)
	return err
}

func (s *laneStorage) SaveState(hs raft.HardState) error {
	if err := s.Storage.SaveState(hs); err != nil {
		return err
	}
	s.mu.Lock()
	s.ballots[hs] = true
	s.mu.Unlock()
	return nil
}

func (s *laneStorage) durableIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

func (s *laneStorage) voted(hs raft.HardState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ballots[hs]
}

// checkedTransport checks every outgoing message against the sender's own
// storage at the instant it leaves, and counts the entry-carrying appends.
// As the host's transport it wraps the group's network endpoint.
type checkedTransport struct {
	raft.Transport
	net multiraft.Transport
	st  *laneStorage

	mu         sync.Mutex
	violations []string
	appendsTo  map[types.NodeID]int // non-empty AppendEntries per destination
}

func (c *checkedTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	c.Transport = c.net.Endpoint(g, inbox)
	return c
}

func (c *checkedTransport) Send(m raft.Message) {
	c.mu.Lock()
	switch {
	case m.Type == raft.MsgAppendResponse && m.Success:
		if d := c.st.durableIndex(); m.MatchIndex > d {
			c.violations = append(c.violations,
				fmt.Sprintf("ack to %s claims MatchIndex %d, durable index is %d", m.To, m.MatchIndex, d))
		}
	case m.Type == raft.MsgVoteResponse && m.Granted:
		if !c.st.voted(raft.HardState{Term: m.Term, VotedFor: m.To}) {
			c.violations = append(c.violations,
				fmt.Sprintf("vote for %s in term %d left before its SaveState returned", m.To, m.Term))
		}
	case m.Type == raft.MsgAppendEntries && len(m.Entries) > 0:
		c.appendsTo[m.To]++
	}
	c.mu.Unlock()
	c.Transport.Send(m)
}

func (c *checkedTransport) appends(to types.NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendsTo[to]
}

// laneCluster is three one-group hosts over a zero-latency MemNetwork, each
// with a laneStorage and a checkedTransport; applied is the last index each
// node's apply stream delivered.
type laneCluster struct {
	net     *transport.MemNetwork
	nodes   map[types.NodeID]*raft.Node
	st      map[types.NodeID]*laneStorage
	tr      map[types.NodeID]*checkedTransport
	applied map[types.NodeID]*atomic.Int64
}

func startLaneCluster(t *testing.T, delayFor func(types.NodeID) time.Duration, ab raft.Ablation) *laneCluster {
	t.Helper()
	members := []types.NodeID{1, 2, 3}
	lc := &laneCluster{
		net:     transport.NewMemNetwork(0, 0, 1),
		nodes:   map[types.NodeID]*raft.Node{},
		st:      map[types.NodeID]*laneStorage{},
		tr:      map[types.NodeID]*checkedTransport{},
		applied: map[types.NodeID]*atomic.Int64{},
	}
	var hosts []*multiraft.Host
	t.Cleanup(func() {
		for _, id := range members {
			if st := lc.st[id]; st != nil {
				st.release()
			}
		}
		for _, h := range hosts {
			h.Stop()
		}
		lc.net.Close()
	})
	for _, id := range members {
		st := newLaneStorage(openWAL(t, raft.NewMemFS()))
		if delayFor != nil {
			st.delay = delayFor(id)
		}
		tr := &checkedTransport{net: transport.HostTransport{Net: lc.net, ID: id}, st: st, appendsTo: map[types.NodeID]int{}}
		applied := new(atomic.Int64)
		h, err := multiraft.Start(multiraft.Options{
			ID: id, Members: members, Transport: tr,
			StorageFor:         func(raft.GroupID) raft.Storage { return st },
			ElectionTimeoutMin: 150 * time.Millisecond, // 25 ms ticks, a heartbeat on each
			Ablation:           ab,
			// S1 times out first, so it leads.
			Seed: int64(id),
			OnApply: func(_ raft.GroupID, batch []raft.ApplyMsg) {
				applied.Store(int64(batch[len(batch)-1].Index))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
		lc.nodes[id], lc.st[id], lc.tr[id], lc.applied[id] = h.Node(0), st, tr, applied
	}
	return lc
}

func (lc *laneCluster) leader(t *testing.T) types.NodeID {
	t.Helper()
	deadline := time.Now().Add(waitLeader)
	for time.Now().Before(deadline) {
		for id, n := range lc.nodes {
			if n.Snapshot().Role == raft.Leader {
				// Settled: the term-opening no-op committed.
				if n.Snapshot().CommitIndex >= 1 {
					return id
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no leader")
	return types.NoNode
}

// warm commits one entry and waits until every replica has it on disk, so a
// gate armed afterwards holds only the writes the test provokes.
func (lc *laneCluster) warm(t *testing.T, lid types.NodeID) {
	t.Helper()
	idx, _, err := lc.nodes[lid].ProposeAsync([]byte("warm")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for id, st := range lc.st {
		for st.durableIndex() < idx {
			if time.Now().After(deadline) {
				t.Fatalf("%s never persisted the warm-up entry", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func (lc *laneCluster) violations() []string {
	var out []string
	for _, tr := range lc.tr {
		tr.mu.Lock()
		out = append(out, tr.violations...)
		tr.mu.Unlock()
	}
	return out
}

// leaseArms are the two ways a leader proves a read: the blocked-disk tests
// run once with leases on, once with every read a quorum barrier.
var leaseArms = []struct {
	name string
	ab   raft.Ablation
}{{"lease", raft.Ablation{}}, {"barrier", raft.Ablation{DisableLeaseRead: true}}}

// leaderRead runs a read at the leader L within the 50 ms bound and checks
// that the arm's proof answered it: the lease, or a barrier.
func leaderRead(t *testing.T, L *raft.Node, ab raft.Ablation) {
	t.Helper()
	before := L.Snapshot().Counters
	within(t, "leader read", func() {
		if _, err := L.FollowerReadIndex(time.Second); err != nil {
			t.Fatalf("leader read: %v", err)
		}
	})
	after := L.Snapshot().Counters
	if lease := after.LeaseReads > before.LeaseReads; lease == ab.DisableLeaseRead {
		t.Fatalf("leader read served from the lease = %v with DisableLeaseRead = %v", lease, ab.DisableLeaseRead)
	}
}

// within runs f and fails the test if it takes 50 ms or more — the bound the
// lock-scope tests hold every disk-free operation to while a 1 s write is
// blocked.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	start := time.Now()
	f()
	if d := time.Since(start); d >= 50*time.Millisecond {
		t.Fatalf("%s took %s with a write blocked; it must not wait for the disk", what, d)
	}
}

// TestLockScopeFollowerWriteBlocked: with a follower's SaveEntries blocked
// — and the third replica cut off, so the blocked follower IS the quorum —
// the follower still answers Snapshot() and heartbeats, so the leader's
// lease and its ReadIndex round keep working.
func TestLockScopeFollowerWriteBlocked(t *testing.T) {
	for _, arm := range leaseArms {
		t.Run(arm.name, func(t *testing.T) { testLockScopeFollowerWriteBlocked(t, arm.ab) })
	}
}

func testLockScopeFollowerWriteBlocked(t *testing.T, ab raft.Ablation) {
	lc := startLaneCluster(t, nil, ab)
	lid := lc.leader(t)
	var fid, oid types.NodeID
	for id := range lc.nodes {
		if id != lid {
			if fid == types.NoNode {
				fid = id
			} else {
				oid = id
			}
		}
	}
	L, F := lc.nodes[lid], lc.nodes[fid]
	lc.warm(t, lid)
	lc.net.Isolate(oid)
	lc.st[fid].hold()
	idx, _, err := L.ProposeAsync([]byte("blocked-on-follower")).Wait() // durable on the leader
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-lc.st[fid].entered:
	case <-time.After(2 * time.Second):
		t.Fatal("follower never started the write")
	}

	within(t, "follower Snapshot()", func() { F.Snapshot() })
	leaderRead(t, L, ab) // the lease, or a round: either needs the blocked follower's heartbeat acks
	within(t, "follower-forwarded read barrier", func() {
		if _, err := F.FollowerReadIndex(time.Second); err != nil {
			t.Fatalf("FollowerReadIndex: %v", err)
		}
	})
	if got := L.Snapshot().CommitIndex; got >= idx {
		t.Fatalf("entry %d committed with the only reachable follower's write still blocked", idx)
	}

	lc.st[fid].release()
	deadline := time.Now().Add(2 * time.Second)
	for L.Snapshot().CommitIndex < idx && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if L.Snapshot().CommitIndex < idx {
		t.Fatalf("entry %d never committed after the follower's disk came back", idx)
	}
	if v := lc.violations(); len(v) > 0 {
		t.Fatalf("acked⇒durable violated: %v", v)
	}
}

// TestFollowerAppliesAheadOfBlockedWrite: an entry the leader and the OTHER
// follower made durable is committed, whatever this follower's disk is doing.
// With its SaveEntries blocked the follower's read barrier still names the
// entry and its apply stream still delivers it — a follower-served read waits
// for the quorum's disks, never for its own — while its acks go on claiming
// nothing its disk does not hold.
func TestFollowerAppliesAheadOfBlockedWrite(t *testing.T) {
	lc := startLaneCluster(t, nil, raft.Ablation{})
	lid := lc.leader(t)
	var fid types.NodeID
	for id := range lc.nodes {
		if id != lid {
			fid = id
			break
		}
	}
	L, F := lc.nodes[lid], lc.nodes[fid]
	lc.warm(t, lid)
	lc.st[fid].hold()
	idx, _, err := L.ProposeAsync([]byte("committed-without-F")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-lc.st[fid].entered:
	case <-time.After(2 * time.Second):
		t.Fatal("follower never started the write")
	}
	deadline := time.Now().Add(2 * time.Second)
	for L.Snapshot().CommitIndex < idx {
		if time.Now().After(deadline) {
			t.Fatalf("entry %d never committed on the leader and the other follower", idx)
		}
		time.Sleep(time.Millisecond)
	}

	within(t, "follower read barrier + apply of an entry its own disk does not hold", func() {
		ri, err := F.FollowerReadIndex(time.Second)
		if err != nil {
			t.Fatalf("FollowerReadIndex: %v", err)
		}
		if ri < idx {
			t.Fatalf("read index %d, below the committed entry %d", ri, idx)
		}
		deadline := time.Now().Add(time.Second)
		for lc.applied[fid].Load() < int64(ri) {
			if time.Now().After(deadline) {
				t.Fatalf("follower applied through %d of read index %d with its write blocked: apply waited for the follower's own disk",
					lc.applied[fid].Load(), ri)
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
	if d := lc.st[fid].durableIndex(); d >= idx {
		t.Fatalf("follower's disk already holds %d (durable %d); the test lost its premise", idx, d)
	}
	if s := F.Snapshot(); s.AppliedIndex < idx || s.StableIndex >= idx {
		t.Fatalf("follower Snapshot: applied %d, stable %d; want applied ≥ %d over a disk below it", s.AppliedIndex, s.StableIndex, idx)
	}

	lc.st[fid].release()
	deadline = time.Now().Add(2 * time.Second)
	for lc.st[fid].durableIndex() < idx {
		if time.Now().After(deadline) {
			t.Fatalf("follower never persisted entry %d after its disk came back", idx)
		}
		time.Sleep(time.Millisecond)
	}
	if v := lc.violations(); len(v) > 0 {
		t.Fatalf("acked⇒durable violated: %v", v)
	}
}

// TestLockScopeLeaderWriteBlocked: with the leader's own SaveEntries blocked
// it still serves Snapshot(), lease reads, ReadIndex rounds and forwarded
// follower reads — none of them needs the leader's disk.
func TestLockScopeLeaderWriteBlocked(t *testing.T) {
	for _, arm := range leaseArms {
		t.Run(arm.name, func(t *testing.T) { testLockScopeLeaderWriteBlocked(t, arm.ab) })
	}
}

func testLockScopeLeaderWriteBlocked(t *testing.T, ab raft.Ablation) {
	lc := startLaneCluster(t, nil, ab)
	lid := lc.leader(t)
	L := lc.nodes[lid]
	var F *raft.Node
	for id, n := range lc.nodes {
		if id != lid {
			F = n
			break
		}
	}
	lc.warm(t, lid)
	shipped := lc.tr[lid].appends(F.ID())
	lc.st[lid].hold()
	p := L.ProposeAsync([]byte("blocked-on-leader"))
	select {
	case <-lc.st[lid].entered:
	case <-time.After(2 * time.Second):
		t.Fatal("leader never started the write")
	}

	within(t, "leader Snapshot()", func() { L.Snapshot() })
	leaderRead(t, L, ab)
	within(t, "follower-forwarded read barrier", func() {
		if _, err := F.FollowerReadIndex(time.Second); err != nil {
			t.Fatalf("FollowerReadIndex: %v", err)
		}
	})
	// A second proposal during the write joins the next one.
	p2 := L.ProposeAsync([]byte("second"))
	select {
	case <-p.Done():
		t.Fatal("Proposal.Wait returned before the leader's write did")
	case <-p2.Done():
		t.Fatal("Proposal.Wait returned before the leader's write did")
	case <-time.After(20 * time.Millisecond):
	}
	if got := lc.tr[lid].appends(F.ID()) - shipped; got != 0 {
		t.Fatalf("leader shipped %d entry-carrying appends with its own write blocked (persist before replicate)", got)
	}

	lc.st[lid].release()
	if _, _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if v := lc.violations(); len(v) > 0 {
		t.Fatalf("acked⇒durable violated: %v", v)
	}
}

// TestNoEffectBeforeItsWrite drives elections and a pipelined proposal
// stream over slow disks and checks every message as it leaves: no success
// ack above the sender's durable index, no vote grant before its SaveState
// returned.
func TestNoEffectBeforeItsWrite(t *testing.T) {
	lc := startLaneCluster(t, func(types.NodeID) time.Duration { return 500 * time.Microsecond }, raft.Ablation{})
	lid := lc.leader(t)
	L := lc.nodes[lid]
	var ps []*raft.Proposal
	for i := 0; i < 200; i++ {
		ps = append(ps, L.ProposeAsync([]byte(fmt.Sprintf("cmd-%d", i))))
		if i%20 == 19 {
			time.Sleep(time.Millisecond)
		}
	}
	var last int
	for _, p := range ps {
		idx, _, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		last = idx
	}
	// Force a second election so vote grants are exercised after the log
	// has content: the old leader hands off.
	if err := L.TransferLeader(types.NoNode); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitLeader)
	for time.Now().Before(deadline) {
		if L.Snapshot().Role != raft.Leader {
			break
		}
		time.Sleep(time.Millisecond)
	}
	nl := lc.nodes[lc.leader(t)]
	if _, _, err := nl.ProposeAsync([]byte("after-transfer")).Wait(); err != nil && !errors.Is(err, raft.ErrNotLeader) {
		t.Fatal(err)
	}
	for id, n := range lc.nodes {
		deadline := time.Now().Add(2 * time.Second)
		for n.Snapshot().CommitIndex < last && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n.Snapshot().CommitIndex < last {
			t.Fatalf("%s stuck at commit %d of %d", id, n.Snapshot().CommitIndex, last)
		}
	}
	if v := lc.violations(); len(v) > 0 {
		t.Fatalf("acked⇒durable violated (%d): %v", len(v), v[0])
	}
}

// TestFollowerGroupCommit: AppendEntries that arrive while a follower's
// previous write is in flight are persisted by ONE following SaveEntries.
func TestFollowerGroupCommit(t *testing.T) {
	const slow = types.NodeID(3)
	lc := startLaneCluster(t, func(id types.NodeID) time.Duration {
		if id == slow {
			return 5 * time.Millisecond
		}
		return 0
	}, raft.Ablation{})
	lid := lc.leader(t)
	if lid == slow {
		t.Skip("the slow replica won the election")
	}
	L := lc.nodes[lid]
	baseAppends, baseSaves := lc.tr[lid].appends(slow), lc.nodes[slow].Snapshot().Counters.EntryWrites
	const n = 40
	var last int
	for i := 0; i < n; i++ {
		// Synchronous proposals on a fast leader disk: one entry-carrying
		// append per proposal.
		idx, _, err := L.ProposeAsync([]byte(fmt.Sprintf("cmd-%d", i))).Wait()
		if err != nil {
			t.Fatal(err)
		}
		last = idx
	}
	deadline := time.Now().Add(5 * time.Second)
	for lc.st[slow].durableIndex() < last && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := lc.st[slow].durableIndex(); got < last {
		t.Fatalf("slow follower durable through %d of %d", got, last)
	}
	appends := lc.tr[lid].appends(slow) - baseAppends
	saves := int(lc.nodes[slow].Snapshot().Counters.EntryWrites - baseSaves)
	if appends < n/2 {
		t.Fatalf("only %d entry-carrying appends reached the slow follower for %d proposals; the test lost its premise", appends, n)
	}
	if saves*2 > appends {
		t.Fatalf("slow follower made %d SaveEntries calls for %d appends: appends arriving during a write must share the next one", saves, appends)
	}
}

// TestStopDuringInflightWrite: Stop while a write is on the lane returns once
// that write does, fails or completes the waiting proposal, and leaves a WAL
// that loads.
func TestStopDuringInflightWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	inner, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatal(err)
	}
	st := newLaneStorage(inner)
	n := startSingleNode(t, st)
	idx, _, err := n.ProposeAsync([]byte("durable")).Wait()
	if err != nil {
		t.Fatal(err)
	}
	st.hold()
	p := n.ProposeAsync([]byte("in-flight"))
	select {
	case <-st.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("write never started")
	}
	stopped := make(chan struct{})
	go func() {
		n.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the write was still on the lane")
	case <-time.After(20 * time.Millisecond):
	}
	st.release()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung after the write returned")
	}
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("the in-flight proposal never resolved")
	}
	if _, _, err := p.Wait(); err != nil && !errors.Is(err, raft.ErrStopped) {
		t.Fatalf("in-flight proposal failed with %v, want success or ErrStopped", err)
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := raft.OpenFileStorage(path)
	if err != nil {
		t.Fatalf("WAL does not reopen after Stop during a write: %v", err)
	}
	defer re.Close()
	_, _, log, err := re.Load()
	if err != nil {
		t.Fatalf("WAL does not load after Stop during a write: %v", err)
	}
	if len(log) < idx {
		t.Fatalf("reloaded %d entries, want ≥ %d (the acked one)", len(log), idx)
	}
}
