package main

// stack.go is the only file of the benchmark that imports the serving-path
// packages. Everything the benchmark pins of them is listed here, so a
// refactor of the runtime (ROADMAP item 3) knows what it must keep or what
// it must change in this one file:
//
//	transport: NewTCPTransport, (*TCPTransport).Addr, SetPeer, Endpoint,
//	           Send, Counters, Reconnects, Close
//	multiraft: Start, Options{ID, Members, Groups, Transport,
//	           ElectionTimeoutMin, StorageFor, OnApply, Seed},
//	           Transport (interface), GroupStorageDir, (*Host).Node, Stop
//	raft:      (*Node).ProposeAsync(..).Wait, ProposeConfig, TransferLeader,
//	           FollowerReadIndex, Snapshot (Role, Term, LastIndex, Counters,
//	           Err); ErrLeaderStepdown;
//	           Storage, Transport (interfaces); OpenFileStorage,
//	           (*FileStorage).SaveState/SaveEntries/SaveSnapshot/Load/Close
//	           (wrapped by the disk model); Message, LogEntry,
//	           ApplyMsg, HardState, LogSnapshot, GroupID; MsgAppendEntries,
//	           MsgAppendResponse and the other Msg* kinds (one exhaustive
//	           switch), EntryCommand, Leader
//	raftcore:  MsgReadIndexRequest, MsgReadIndexResponse (raft does not
//	           re-export them)
//	kvstore:   NewStore, (*Store).Apply, LocalGet, Snapshot, LastApplied;
//	           Command{Op, Key, Value, Client, Seq}.Encode, OpPut
//	backoff:   New, (*Backoff).Reset, Sleep (workload.go; the client's
//	           leader-probe backoff, shared with kvstore.Client)
//
// The rest of the benchmark sees replicas only through the plain-typed
// methods below.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/raftcore"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

const (
	// electionTimeoutMin is raft-kv's default; multiraft derives a 50 ms
	// heartbeat and a 25 ms host tick from it. Follower apply waits quantise
	// to the tick, so it is part of every result's env block.
	electionTimeoutMin = 150 * time.Millisecond
	tickPeriod         = electionTimeoutMin / 3 / 2

	// The disk model of the durable workloads: a SaveEntries or SaveState
	// call returns no sooner than a floor after it began, and the floor is
	// drawn per call as diskFloorMin plus an exponential with mean
	// diskFloorMean-diskFloorMin. FileStorage still writes and fsyncs the
	// WAL; only the time the caller sees is floored.
	//
	// Why: the virtual disk this runs on moves its fsync median between 110
	// and 285 us from one minute to the next (three concurrent writers: p50
	// 280, p95 520 us), and every durable number followed it by 20%. The
	// minimum sits at that p95, so the device shows through the floor on a
	// few calls in a hundred (storage.over_floor_share) and otherwise not at
	// all. The draw is there because a constant service time lets the
	// replicas fall into fixed phase patterns that differ from run to run.
	diskFloorMin  = 500 * time.Microsecond
	diskFloorMean = time.Millisecond
)

// replica is one in-process raft-kv replica: its own TCP transport on
// loopback, a one-group multiraft host, a FileStorage (nil when volatile)
// and the kvstore state machine fed by OnApply.
type replica struct {
	id     types.NodeID
	tr     *transport.TCPTransport
	host   *multiraft.Host
	node   *raft.Node
	store  *kvstore.Store
	fs     *raft.FileStorage
	disk   *flooredStorage
	walDir string
	cur    cursor
}

// cluster is the assembled stack. leader caches the index of the replica
// last seen leading (-1 = unknown), the way a raft-kv client remembers the
// last redirect.
type cluster struct {
	reps   []*replica
	leader atomic.Int32
}

// startCluster assembles n replicas the way cmd/raft-kv deploys them, in one
// process. walRoot "" means volatile (Storage nil); seed feeds the disk
// model's draws. With rec set, the storage and transport seams are wrapped
// for tracing.
func startCluster(n int, walRoot string, seed int64, rec *recorder) (*cluster, error) {
	c := &cluster{}
	c.leader.Store(-1)
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i + 1)
	}
	for i := 0; i < n; i++ {
		tr, err := transport.NewTCPTransport(members[i], "127.0.0.1:0", nil, nil)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.reps = append(c.reps, &replica{id: members[i], tr: tr, store: kvstore.NewStore()})
	}
	for _, a := range c.reps {
		for _, b := range c.reps {
			if a != b {
				a.tr.SetPeer(b.id, b.tr.Addr())
			}
		}
	}
	for i, r := range c.reps {
		var rt *replicaTrace
		if rec != nil {
			rt = rec.reps[i]
		}
		var storage raft.Storage
		if walRoot != "" {
			r.walDir = multiraft.GroupStorageDir(filepath.Join(walRoot, fmt.Sprintf("S%d", r.id)), 0)
			fs, err := raft.OpenFileStorage(r.walDir)
			if err != nil {
				c.stop()
				return nil, err
			}
			r.fs, r.disk = fs, &flooredStorage{inner: fs, seed: splitmix(uint64(seed)*8 + uint64(r.id))}
			storage = r.disk
			if rec != nil {
				storage = &tracedStorage{inner: r.disk, rec: rec, rt: rt}
			}
		}
		var tr multiraft.Transport = r.tr
		if rec != nil {
			tr = &tracedTransport{inner: r.tr, rec: rec, rt: rt}
		}
		host, err := multiraft.Start(multiraft.Options{
			ID:                 r.id,
			Members:            members,
			Groups:             1,
			Transport:          tr,
			ElectionTimeoutMin: electionTimeoutMin,
			StorageFor:         func(raft.GroupID) raft.Storage { return storage },
			OnApply:            func(_ raft.GroupID, batch []raft.ApplyMsg) { r.apply(batch, rec, rt) },
			// Election jitter is not a workload input: the same draws on
			// every run keep set-up time comparable across seeds.
			Seed: int64(r.id),
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		r.host, r.node = host, host.Node(0)
	}
	return c, nil
}

// apply feeds one committed batch to the replica's store and advances its
// apply cursor entry by entry (kvstore.Store wakes its waiters per entry
// too).
func (r *replica) apply(batch []raft.ApplyMsg, rec *recorder, rt *replicaTrace) {
	if rec == nil || !rec.on.Load() {
		for _, m := range batch {
			r.store.Apply(m)
			r.cur.advance(m.Index)
		}
		return
	}
	start := rec.now()
	done := make([]int64, len(batch))
	for i, m := range batch {
		r.store.Apply(m)
		done[i] = rec.now()
		r.cur.advance(m.Index)
	}
	rt.addBatch(applyBatch{first: batch[0].Index, last: batch[len(batch)-1].Index, start: start, end: rec.now(), done: done})
}

// stop tears the stack down in dependency order: hosts (which drain their
// apply streams), then the storages they wrote to, then the transports.
// Callers stop their load generators first: a proposal racing Host.Stop
// would hit a closed FileStorage and fail-stop the leader.
func (c *cluster) stop() {
	for _, r := range c.reps {
		if r.host != nil {
			r.host.Stop()
		}
	}
	for _, r := range c.reps {
		if r.fs != nil {
			_ = r.fs.Close() // nothing is written after the hosts stopped
		}
	}
	for _, r := range c.reps {
		_ = r.tr.Close() // listener close error carries no information here
	}
}

// nodeView is raft.Node.Snapshot() in plain types.
type nodeView struct {
	leader bool
	term   uint64
	last   int
	err    string // fail-stop cause, "" when healthy

	elections, termBumps, readBarriers, readsCoalesced, leaseReads uint64
}

func (r *replica) view() nodeView {
	s := r.node.Snapshot()
	v := nodeView{
		leader:         s.Role == raft.Leader,
		term:           uint64(s.Term),
		last:           s.LastIndex,
		elections:      s.Counters.Elections,
		termBumps:      s.Counters.TermBumps,
		readBarriers:   s.Counters.ReadBarriers,
		readsCoalesced: s.Counters.ReadsCoalesced,
		leaseReads:     s.Counters.LeaseReads,
	}
	if s.Err != nil {
		v.err = s.Err.Error()
	}
	return v
}

// probeLeader asks every replica and caches the leader of the highest term
// (-1 when none claims leadership).
func (c *cluster) probeLeader() int {
	best, bestTerm := -1, uint64(0)
	for i, r := range c.reps {
		if v := r.view(); v.leader && v.err == "" && v.term >= bestTerm {
			best, bestTerm = i, v.term
		}
	}
	c.leader.Store(int32(best))
	return best
}

// awaitLeader polls until some replica leads.
func (c *cluster) awaitLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := c.probeLeader(); l >= 0 {
			return l, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return -1, errors.New("no leader elected")
}

// pinLeader moves leadership to replica target with TransferLeader and waits
// until it leads. A transfer can abort (target not caught up within an
// election interval), so it is re-issued until the deadline.
func (c *cluster) pinLeader(target int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		l := c.probeLeader()
		if l == target {
			return nil
		}
		if l >= 0 {
			// Rejections (no committed entry in the term yet, transfer
			// already running) are retried by the loop.
			_ = c.reps[l].node.TransferLeader(c.reps[target].id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("leadership did not reach S%d", c.reps[target].id)
}

// propose submits one command through replica r's group-commit path and
// returns the log index it was assigned.
func (r *replica) propose(cmd []byte) (int, error) {
	idx, _, err := r.node.ProposeAsync(cmd).Wait()
	return idx, err
}

// readIndex runs a linearizable read barrier from r (forwarded to the leader
// when r is a follower).
func (r *replica) readIndex(timeout time.Duration) (int, error) {
	return r.node.FollowerReadIndex(timeout)
}

// retryNow reports the one error after which kvstore.Client re-probes
// without backing off: the leader said it stepped down, so a successor is
// likely already up.
func retryNow(err error) bool { return errors.Is(err, raft.ErrLeaderStepdown) }

// reconfigure proposes a new membership (ids are 1-based node ids) at
// replica r.
func (r *replica) reconfigure(ids []int) (int, error) {
	m := make([]types.NodeID, len(ids))
	for i, id := range ids {
		m[i] = types.NodeID(id)
	}
	idx, _, err := r.node.ProposeConfig(types.NewNodeSet(m...))
	return idx, err
}

func encodePut(key, value string, client, seq uint64) []byte {
	return kvstore.Command{Op: kvstore.OpPut, Key: key, Value: value, Client: client, Seq: seq}.Encode()
}

// appliedSeq is the highest request number of client that r has applied.
func (r *replica) appliedSeq(client uint64) uint64 {
	seq, _ := r.store.LastApplied(client)
	return seq
}

func (r *replica) localGet(key string) (string, bool) { return r.store.LocalGet(key) }

func (r *replica) storeSnapshot() map[string]string { return r.store.Snapshot() }

// transportCounters sums the replicas' transport counters.
func (c *cluster) transportCounters() (dropped, shed, reconnects uint64) {
	for _, r := range c.reps {
		d, s := r.tr.Counters()
		dropped, shed, reconnects = dropped+d, shed+s, reconnects+r.tr.Reconnects()
	}
	return
}

// cmdHash is FNV-1a, inline so the put path does not allocate a hasher.
func cmdHash(cmd []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range cmd {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// loadWAL reopens a stopped replica's WAL and returns the command hash at
// every log index (out[i-1] is index i). The benchmark never snapshots, so
// the log starts at index 1.
func loadWAL(dir string) ([]uint64, error) {
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		return nil, err
	}
	_, snap, entries, err := fs.Load()
	if cerr := fs.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if snap.Index != 0 {
		return nil, fmt.Errorf("%s: unexpected snapshot at %d", dir, snap.Index)
	}
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = cmdHash(e.Command)
	}
	return out, nil
}

// walBytes is the size of a replica's WAL segment files.
func (r *replica) walBytes() int64 {
	var total int64
	files, _ := filepath.Glob(filepath.Join(r.walDir, "wal-*.seg"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return total
}

// cursor is a replica's apply position with precise wake-ups: a waiter
// blocks until the replica has applied through its index, as
// kvstore.Store's internal waiters do for kvstore.Client.
type cursor struct {
	applied atomic.Int64
	mu      sync.Mutex
	waiters []cursorWaiter
}

type cursorWaiter struct {
	idx int
	ch  chan struct{}
}

func (c *cursor) advance(idx int) {
	c.mu.Lock()
	c.applied.Store(int64(idx))
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if w.idx <= idx {
			close(w.ch)
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	c.mu.Unlock()
}

// wait blocks until the cursor has passed idx or d has elapsed.
func (c *cursor) wait(idx int, d time.Duration) bool {
	if c.applied.Load() >= int64(idx) {
		return true
	}
	c.mu.Lock()
	if c.applied.Load() >= int64(idx) {
		c.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	c.waiters = append(c.waiters, cursorWaiter{idx, ch})
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return c.applied.Load() >= int64(idx)
	}
}

// flooredStorage is the disk model (see diskFloorMin): FileStorage does the
// real work, and the call then blocks in the kernel until its floor has
// passed, as it would in a slower fsync. It counts what the device itself
// took, so the real disk stays visible per layer.
type flooredStorage struct {
	inner  *raft.FileStorage
	seed   uint64 // of the floor draws
	calls  atomic.Int64
	realNs atomic.Int64 // time inside FileStorage
	over   atomic.Int64 // calls the device alone kept past the floor
}

func (s *flooredStorage) floor(start time.Time) {
	took := time.Since(start)
	n := s.calls.Add(1)
	s.realNs.Add(int64(took))
	// The n-th call's draw depends on the seed and n alone, not on which
	// goroutine got here first.
	u := (float64(splitmix(s.seed+uint64(n))>>11) + 0.5) / (1 << 53)
	floor := diskFloorMin + time.Duration(-math.Log(u)*float64(diskFloorMean-diskFloorMin))
	if took >= floor {
		s.over.Add(1)
		return
	}
	sleepUntil(start.Add(floor))
}

// splitmix is the SplitMix64 finalizer: a stateless hash from a counter to
// 64 well-mixed bits.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *flooredStorage) SaveState(hs raft.HardState) error {
	start := time.Now()
	err := s.inner.SaveState(hs)
	s.floor(start)
	return err
}

func (s *flooredStorage) SaveEntries(first int, entries []raft.LogEntry) error {
	start := time.Now()
	err := s.inner.SaveEntries(first, entries)
	s.floor(start)
	return err
}

func (s *flooredStorage) SaveSnapshot(snap raft.LogSnapshot) error { return s.inner.SaveSnapshot(snap) }

func (s *flooredStorage) Load() (raft.HardState, raft.LogSnapshot, []raft.LogEntry, error) {
	return s.inner.Load()
}

func (s *flooredStorage) Close() error { return s.inner.Close() }

// sleepUntil blocks the calling thread in nanosleep until deadline. A
// time.Sleep of less than a millisecond takes a whole one when the process
// is otherwise idle (the runtime's poller rounds up), and nanosleep with the
// default 50 us timer slack overshoots by about 85 us; with the slack set to
// 1 ns on this thread it overshoots by about 30 us.
func sleepUntil(deadline time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack = 29
	// A refused prctl only leaves the default slack in force.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	if d := time.Until(deadline); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens one call's floor
	}
}

// diskSample is a point reading of the disk model's counters.
type diskSample struct {
	calls, over int64
	realNs      int64
}

// diskCounters sums the replicas' disk-model counters (zero when volatile).
func (c *cluster) diskCounters() (d diskSample) {
	for _, r := range c.reps {
		if r.disk != nil {
			d.calls += r.disk.calls.Load()
			d.over += r.disk.over.Load()
			d.realNs += r.disk.realNs.Load()
		}
	}
	return d
}

// tracedStorage interposes on raft.Storage (installed through
// multiraft.Options.StorageFor).
type tracedStorage struct {
	inner raft.Storage
	rec   *recorder
	rt    *replicaTrace
}

func (s *tracedStorage) SaveState(hs raft.HardState) error {
	if s.rec.on.Load() {
		s.rt.addStateSave()
	}
	return s.inner.SaveState(hs)
}

func (s *tracedStorage) SaveEntries(first int, entries []raft.LogEntry) error {
	if !s.rec.on.Load() {
		return s.inner.SaveEntries(first, entries)
	}
	start := s.rec.now()
	err := s.inner.SaveEntries(first, entries)
	s.rt.addSave(saveCall{first: first, n: len(entries), start: start, end: s.rec.now()})
	return err
}

func (s *tracedStorage) SaveSnapshot(snap raft.LogSnapshot) error { return s.inner.SaveSnapshot(snap) }

func (s *tracedStorage) Load() (raft.HardState, raft.LogSnapshot, []raft.LogEntry, error) {
	return s.inner.Load()
}

func (s *tracedStorage) Close() error { return s.inner.Close() }

// tracedTransport interposes on multiraft.Transport: the endpoint it mints
// records every Send.
type tracedTransport struct {
	inner *transport.TCPTransport
	rec   *recorder
	rt    *replicaTrace
}

func (t *tracedTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	return &tracedEndpoint{inner: t.inner.Endpoint(g, inbox), rec: t.rec, rt: t.rt}
}

type tracedEndpoint struct {
	inner raft.Transport
	rec   *recorder
	rt    *replicaTrace
}

func (e *tracedEndpoint) Send(m raft.Message) {
	if !e.rec.on.Load() {
		e.inner.Send(m)
		return
	}
	c := sendCall{to: int(m.To)}
	switch m.Type {
	case raft.MsgAppendEntries:
		c.class, c.first, c.n = sendAppend, m.PrevLogIndex+1, len(m.Entries)
		for _, en := range m.Entries {
			c.bytes += len(en.Command)
		}
	case raft.MsgAppendResponse:
		c.class = sendAppendResp
		if m.Success {
			c.match = m.MatchIndex
		}
	case raftcore.MsgReadIndexRequest:
		c.class, c.ctx = sendReadReq, m.ReadCtx
	case raftcore.MsgReadIndexResponse:
		c.class, c.ctx = sendReadResp, m.ReadCtx
	case raft.MsgVoteRequest, raft.MsgVoteResponse, raft.MsgPreVoteRequest, raft.MsgPreVoteResponse,
		raft.MsgTimeoutNow, raft.MsgInstallSnapshot:
		c.class = sendOther // counted, not joined to any request
	}
	c.t = e.rec.now()
	e.inner.Send(m)
	c.dur = e.rec.now() - c.t
	e.rt.addSend(c)
}

func (e *tracedEndpoint) Close() error { return e.inner.Close() }

// probeStorage measures the disk floor on a fresh WAL directory: a raw
// 128-byte write + fsync, and FileStorage.SaveEntries of 1 and of 16
// entries (medians, µs).
func probeStorage(dir string) (fsyncUs, save1Us, save16Us float64, err error) {
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "fsync.probe"))
	if err != nil {
		return
	}
	buf := make([]byte, 128)
	var raw []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err = f.Write(buf); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return
		}
		raw = append(raw, float64(time.Since(t))/1e3)
	}
	if err = f.Close(); err != nil {
		return
	}
	fs, err := raft.OpenFileStorage(filepath.Join(dir, "wal"))
	if err != nil {
		return
	}
	defer fs.Close()
	entry := raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: encodePut("k00000", valueFor(0, 1, 0), 1, 1)}
	batch := make([]raft.LogEntry, 16)
	for i := range batch {
		batch[i] = entry
	}
	next := 1
	timeSave := func(n, reps int) (float64, error) {
		var v []float64
		for i := 0; i < reps; i++ {
			t := time.Now()
			if err := fs.SaveEntries(next, batch[:n]); err != nil {
				return 0, err
			}
			v = append(v, float64(time.Since(t))/1e3)
			next += n
		}
		return median(v), nil
	}
	if save1Us, err = timeSave(1, 200); err != nil {
		return
	}
	save16Us, err = timeSave(16, 100)
	return median(raw), save1Us, save16Us, err
}

// probeTransport measures two loopback TCPTransports in isolation: the
// one-way time of a 1-entry append (half a ping-pong round trip, median,
// µs) and the streaming rate of 16-entry appends for d.
func probeTransport(d time.Duration) (onewayUs, msgsPerS, mbPerS float64, err error) {
	// Inbox capacity matches multiraft's per-group default.
	inA, inB := make(chan raft.Message, 4096), make(chan raft.Message, 4096)
	a, err := transport.NewTCPTransport(1, "127.0.0.1:0", nil, inA)
	if err != nil {
		return
	}
	defer a.Close()
	b, err := transport.NewTCPTransport(2, "127.0.0.1:0", nil, inB)
	if err != nil {
		return
	}
	defer b.Close()
	a.SetPeer(2, b.Addr())
	b.SetPeer(1, a.Addr())

	cmd := encodePut("k00000", valueFor(0, 1, 0), 1, 1)
	one := raft.Message{Type: raft.MsgAppendEntries, To: 2, Term: 1,
		Entries: []raft.LogEntry{{Term: 1, Kind: raft.EntryCommand, Command: cmd}}}
	var rtt []float64
	for i := 0; i < 2200; i++ {
		t := time.Now()
		a.Send(one)
		select {
		case <-inB:
		case <-time.After(2 * time.Second):
			return 0, 0, 0, errors.New("transport probe: ping lost")
		}
		b.Send(raft.Message{Type: raft.MsgAppendResponse, To: 1, Term: 1, Success: true, MatchIndex: i})
		select {
		case <-inA:
		case <-time.After(2 * time.Second):
			return 0, 0, 0, errors.New("transport probe: pong lost")
		}
		if i >= 200 { // connections dialled, gob type tables sent
			rtt = append(rtt, float64(time.Since(t))/1e3)
		}
	}
	onewayUs = median(rtt) / 2

	many := one
	many.Entries = make([]raft.LogEntry, 16)
	for i := range many.Entries {
		many.Entries[i] = one.Entries[0]
	}
	var received atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-inB:
				received.Add(1)
			case <-stop:
				return
			}
		}
	}()
	start := time.Now()
	sent := int64(0)
	for time.Since(start) < d {
		// Send drops when the 1024-slot peer queue is full; keep the
		// in-flight window below it so the probe measures the pipe, not
		// the drop counter.
		if sent-received.Load() >= 512 {
			runtime.Gosched()
			continue
		}
		a.Send(many)
		sent++
	}
	for deadline := time.Now().Add(time.Second); received.Load() < sent && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	got := float64(received.Load())
	return onewayUs, got / elapsed, got * 16 * float64(len(cmd)) / elapsed / 1e6, nil
}

// probeKV measures the state machine in isolation: Store.Apply of a put and
// Command.Encode (mean ns per call).
func probeKV() (applyNs, encodeNs float64) {
	const n = 50000
	cmds := make([][]byte, 1000)
	for i := range cmds {
		cmds[i] = encodePut(keyName(i), valueFor(i, 1, 0), 1, 0)
	}
	st := kvstore.NewStore()
	t := time.Now()
	for i := 0; i < n; i++ {
		st.Apply(raft.ApplyMsg{Index: i + 1, Term: 1, Kind: raft.EntryCommand, Command: cmds[i%len(cmds)]})
	}
	applyNs = float64(time.Since(t)) / n
	val := valueFor(0, 1, 0)
	t = time.Now()
	for i := 0; i < n; i++ {
		cmds[i%len(cmds)] = encodePut("k00000", val, 1, uint64(i))
	}
	encodeNs = float64(time.Since(t)) / n
	return
}
