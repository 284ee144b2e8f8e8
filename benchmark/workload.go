package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"adore/internal/backoff"
)

// workloadSpec is one named traffic shape. Clients are closed-loop: each
// waits for its reply before sending the next request, as kvstore.Client.Do
// and the paper's client do.
type workloadSpec struct {
	name     string
	why      string // one line, repeated in BENCHMARK.json
	replicas int
	durable  bool
	clients  int
	getShare float64
	// think > 0: after each reply a client pauses for an exponentially
	// distributed time with this mean before its next request. Sixteen
	// clients with no pause at all fall into lockstep behind the leader's
	// group commit — everyone in one batch wakes, and re-proposes, together —
	// and which lockstep (one cohort of 16, 13+3, 8+8, ...) a run lands in
	// lasts for seconds and moves throughput by 30%. Real clients are not in
	// lockstep; the pause keeps these from it.
	think time.Duration
	// reconfigEvery > 0: the (single) client proposes a membership change
	// after every so many requests, cycling remove S5, remove S4, add S4,
	// add S5. Removed hosts keep running and catch up when re-added.
	reconfigEvery int
}

var workloads = []workloadSpec{
	{
		name: "put-durable", replicas: 3, durable: true, clients: 16, think: clientThink,
		why: "3 replicas, FileStorage behind a 1 ms disk model, 16 clients pausing ~0.5 ms between puts: the real-path headline; fsync count, group commit and the node lock decide it",
	},
	{
		name: "put-volatile", replicas: 3, durable: false, clients: 16,
		why: "3 replicas, no storage, 16 clients, all puts: takes the disk out, so codec, core stepping, apply and allocation wins show here and not on put-durable",
	},
	{
		name: "mixed-follower-read", replicas: 3, durable: true, clients: 16, getShare: 0.9, think: clientThink,
		why: "put-durable's stack and clients, 90% linearizable gets rotated over all replicas beside 10% puts: read barriers, forwarding and follower apply lag",
	},
	{
		name: "reconfig-fig16", replicas: 5, durable: true, clients: 1, reconfigEvery: 250,
		why: "the paper's Fig. 16: 5 durable replicas, one sequential client, a change every 250 puts cycling 5->4->3->4->5; unbatched latency floor and catch-up",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runOpts are the knobs of one run that are not part of the workload.
type runOpts struct {
	seed   int64
	window time.Duration // measured window
	warmup time.Duration // discarded before the window
	ref    time.Duration // traced runs: untraced reference window before the traced one
	trace  bool
	dir    string // scratch root for WAL directories and trace files
	keys   int    // keyCount, fewer in tests and probes
	setups int    // how many times set-up is timed (the last cluster is used)
}

const (
	opDeadline   = 5 * time.Second
	attemptSlice = 300 * time.Millisecond
	keyCount     = 10000
	valueLen     = 64
	loaders      = 64 // preload sessions
	// clientThink is the mean pause of a client on the durable multi-client
	// workloads (see workloadSpec.think). The runtime's timers round a pause
	// this short up when the process is idle; client.think_mean_us reports
	// what the pauses came to.
	clientThink = 500 * time.Microsecond
	// warmup is discarded before the measured window: the heap, the logs'
	// backing arrays and the GC pace settle in it (with 1 s the put-volatile
	// spread was 16-20%).
	warmup = 3 * time.Second
	// Leader-probe backoff, as kvstore.Client.
	backoffInitial = time.Millisecond
	backoffMax     = 40 * time.Millisecond
)

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// valueFor is the 64-byte value of key at version ver: a 16-digit version
// followed by filler derived from the seed and the key.
func valueFor(key int, ver uint64, seed int64) string {
	b := make([]byte, valueLen)
	for i := range b {
		b[i] = byte('a' + (uint64(seed)+uint64(key+i))%26)
	}
	for i := 15; i >= 0; i-- {
		b[i] = byte('0' + ver%10)
		ver /= 10
	}
	b[16] = '|'
	return string(b)
}

// versionOf parses the version out of a value ("" and malformed = 0).
func versionOf(v string) uint64 {
	if len(v) < 16 {
		return 0
	}
	n, err := strconv.ParseUint(v[:16], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// client is one closed-loop session. Only its own goroutine touches it while
// the run is live.
type client struct {
	id   int
	kvID uint64 // kvstore client identity (dedup table key)
	seq  uint64 // kvstore request number, puts only
	n    uint64 // requests issued, all kinds
	rng  *rand.Rand
	own  []int // keys this client writes
	bo   *backoff.Backoff
	ops  chunked[opRec]
}

// change is one membership change the reconfig client proposed.
type change struct {
	op      int   // position in the client's request sequence
	t       int64 // when ProposeConfig was called
	idx     int   // log index of the config entry
	added   int   // node id added, 0 for a removal
	members int   // member count after the change
}

// run is the live state of one workload execution.
type run struct {
	spec  workloadSpec
	opts  runOpts
	c     *cluster
	rec   *recorder
	epoch time.Time

	keys  []string
	ver   []uint64        // per key, touched only by the key's writer
	acked []atomic.Uint64 // per key, last acknowledged version
	stop  atomic.Bool

	mu       sync.Mutex
	stale    []staleRead
	catchups []float64 // ms, add -> added node within 16 entries of the leader
	lags     []float64 // entries, leader's last index - a member follower's

	// Reconfiguration state, owned by the single reconfig client.
	members   map[int]bool
	step      int
	changeDue bool // the last proposal was rejected
	changes   []change
	rejected  int
	watchers  sync.WaitGroup
}

func (rn *run) now() int64 { return int64(time.Since(rn.epoch)) + 1 }

// resetState forgets a previous set-up's writes.
func (rn *run) resetState() {
	n := rn.opts.keys
	rn.keys = make([]string, n)
	for i := range rn.keys {
		rn.keys[i] = keyName(i)
	}
	rn.ver = make([]uint64, n)
	rn.acked = make([]atomic.Uint64, n)
	rn.members = make(map[int]bool)
	for id := 1; id <= rn.spec.replicas; id++ {
		rn.members[id] = true
	}
}

func (rn *run) newClient(id int, kvID uint64, sessions int) *client {
	cl := &client{
		id:   id,
		kvID: kvID,
		rng:  rand.New(rand.NewSource(rn.opts.seed*7919 + int64(kvID))),
		bo:   backoff.New(backoffInitial, backoffMax, rn.opts.seed*104729+int64(kvID)),
	}
	for k := id; k < rn.opts.keys; k += sessions {
		cl.own = append(cl.own, k)
	}
	return cl
}

// setup assembles the stack, elects, pins leadership on S1 and preloads
// every key at version 1. It is what setup_s times.
func (rn *run) setup(walRoot string) error {
	rn.resetState()
	root := ""
	if rn.spec.durable {
		root = walRoot
	}
	c, err := startCluster(rn.spec.replicas, root, rn.opts.seed, rn.rec)
	if err != nil {
		return err
	}
	rn.c = c
	if _, err := c.awaitLeader(10 * time.Second); err != nil {
		return err
	}
	if err := c.pinLeader(0, 5*time.Second); err != nil {
		return err
	}
	// Preload in rounds: every loader writes one key, all wait, next round.
	// Left to run free, the loaders fall into the same lockstep cohorts as
	// clients without a pause (workloadSpec.think) and set-up time follows
	// whichever cohort pattern it lands in; rounds are independent of each
	// other, so their sum repeats.
	ls := make([]*client, loaders)
	for j := range ls {
		ls[j] = rn.newClient(j, uint64(1000+j), loaders)
	}
	for round := 0; round < len(ls[0].own); round++ {
		var wg sync.WaitGroup
		for _, cl := range ls {
			if round < len(cl.own) {
				wg.Add(1)
				go func(cl *client) {
					defer wg.Done()
					rn.put(cl, cl.own[round])
				}(cl)
			}
		}
		wg.Wait()
	}
	for _, cl := range ls {
		for _, op := range cl.ops.slice() {
			if op.failed {
				return errors.New("preload: a put missed its deadline")
			}
		}
	}
	return nil
}

// put is one closed-loop write: encode, propose at the cached leader, wait
// until that replica applied the assigned index, confirm through the dedup
// table that the entry there was ours. Retryable failures re-probe the
// leader like kvstore.Client; the request fails only at its deadline.
func (rn *run) put(cl *client, key int) {
	cl.seq++
	cl.n++
	ver := rn.ver[key] + 1
	op := opRec{client: cl.id, seq: cl.n, t0: rn.now()}
	cmd := encodePut(rn.keys[key], valueFor(key, ver, rn.opts.seed), cl.kvID, cl.seq)
	deadline := time.Now().Add(opDeadline)
	cl.bo.Reset()
	for {
		if !time.Now().Before(deadline) {
			op.failed = true
			break
		}
		li := int(rn.c.leader.Load())
		if li < 0 {
			if li = rn.c.probeLeader(); li < 0 {
				op.retries++
				cl.bo.Sleep(deadline)
				continue
			}
		}
		r := rn.c.reps[li]
		idx, err := r.propose(cmd)
		if err != nil {
			op.retries++
			if retryNow(err) {
				cl.bo.Reset()
			} else {
				cl.bo.Sleep(deadline)
			}
			rn.c.probeLeader()
			continue
		}
		op.t1 = rn.now()
		attempt := time.Until(deadline)
		if attempt > attemptSlice {
			attempt = attemptSlice
		}
		// A deposed leader never applies our index, and a new leader may
		// put another entry there: either way re-probe and re-propose (the
		// dedup table makes the retry idempotent).
		if !r.cur.wait(idx, attempt) || r.appliedSeq(cl.kvID) < cl.seq {
			op.retries++
			rn.c.probeLeader()
			continue
		}
		op.t2 = rn.now()
		op.idx, op.replica = idx, li
		break
	}
	op.t3 = rn.now()
	if !op.failed {
		rn.ver[key] = ver
		rn.acked[key].Store(ver)
		if rn.spec.durable {
			op.hash = cmdHash(cmd)
		}
	}
	cl.ops.add(op)
}

// get is one closed-loop linearizable read served by replica ri: a read
// barrier (forwarded to the leader when ri follows), a wait until ri itself
// applied through the barrier's index, then a local lookup.
func (rn *run) get(cl *client, key, ri int) {
	cl.n++
	floor := rn.acked[key].Load()
	op := opRec{get: true, client: cl.id, seq: cl.n, replica: ri, t0: rn.now(),
		forward: ri != int(rn.c.leader.Load())}
	r := rn.c.reps[ri]
	deadline := time.Now().Add(opDeadline)
	cl.bo.Reset()
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			op.failed = true
			break
		}
		attempt := remain
		if attempt > attemptSlice {
			attempt = attemptSlice
		}
		idx, err := r.readIndex(attempt)
		if err != nil {
			op.retries++
			if retryNow(err) {
				cl.bo.Reset()
			} else {
				cl.bo.Sleep(deadline)
			}
			continue
		}
		op.t1 = rn.now()
		if !r.cur.wait(idx, time.Until(deadline)) {
			op.failed = true
			break
		}
		op.t2 = rn.now()
		v, _ := r.localGet(rn.keys[key])
		if got := versionOf(v); got < floor {
			rn.mu.Lock()
			rn.stale = append(rn.stale, staleRead{rn.keys[key], floor, got})
			rn.mu.Unlock()
		}
		op.idx = idx
		break
	}
	op.t3 = rn.now()
	cl.ops.add(op)
}

// reconfigCycle is the paper's Fig. 16 schedule.
var reconfigCycle = []struct {
	add bool
	id  int
}{{false, 5}, {false, 4}, {true, 4}, {true, 5}}

// reconfigStep proposes the next change of the cycle at the leader. A
// rejected proposal (previous change uncommitted, leadership moving) is
// counted, and clientLoop retries it before the client's next request.
func (rn *run) reconfigStep(cl *client) bool {
	li := int(rn.c.leader.Load())
	if li < 0 {
		rn.rejected++
		return false
	}
	next := reconfigCycle[rn.step%len(reconfigCycle)]
	return rn.applyChange(li, next.add, next.id, int(cl.n))
}

// applyChange proposes adding or removing node id and records it.
func (rn *run) applyChange(li int, add bool, id, opNumber int) bool {
	var ids []int
	for m := 1; m <= rn.spec.replicas; m++ {
		in := rn.members[m]
		if m == id {
			in = add
		}
		if in {
			ids = append(ids, m)
		}
	}
	t := rn.now()
	idx, err := rn.c.reps[li].reconfigure(ids)
	if err != nil {
		rn.rejected++
		return false
	}
	rn.mu.Lock()
	rn.members[id] = add // lagSampler reads the set
	rn.mu.Unlock()
	rn.step++
	ch := change{op: opNumber, t: t, idx: idx, members: len(ids)}
	if add {
		ch.added = id
		if rn.rec != nil && rn.rec.on.Load() {
			rn.watchCatchup(li, id-1, t)
		}
	}
	rn.mu.Lock()
	rn.changes = append(rn.changes, ch)
	rn.mu.Unlock()
	return true
}

// watchCatchup times how long the re-added replica takes to come within 16
// entries of the leader's apply position.
func (rn *run) watchCatchup(li, ri int, t0 int64) {
	rn.watchers.Add(1)
	go func() {
		defer rn.watchers.Done()
		leader, added := &rn.c.reps[li].cur, &rn.c.reps[ri].cur
		for deadline := time.Now().Add(opDeadline); time.Now().Before(deadline); {
			if added.applied.Load() >= leader.applied.Load()-16 {
				rn.mu.Lock()
				rn.catchups = append(rn.catchups, float64(rn.now()-t0)/1e6)
				rn.mu.Unlock()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
}

// restoreMembers re-adds every removed node after the load stopped, so the
// convergence and durability checks cover all replicas.
func (rn *run) restoreMembers() []string {
	var problems []string
	for id := 1; id <= rn.spec.replicas; id++ {
		if rn.members[id] {
			continue
		}
		ok := false
		for deadline := time.Now().Add(opDeadline); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			li := rn.c.probeLeader()
			if li >= 0 && rn.applyChange(li, true, id, -1) {
				ch := rn.changes[len(rn.changes)-1]
				ok = rn.c.reps[li].cur.wait(ch.idx, time.Until(deadline))
				break
			}
		}
		if !ok {
			problems = append(problems, fmt.Sprintf("could not re-add S%d after the run", id))
		}
	}
	return problems
}

// clientLoop issues requests until the run stops. Gets rotate over the
// replicas per request: pinning a client to one replica would let the
// leader-pinned clients finish far more reads and swamp pooled percentiles.
func (rn *run) clientLoop(cl *client) {
	for !rn.stop.Load() {
		if e := rn.spec.reconfigEvery; e > 0 && cl.n > 0 && (cl.n%uint64(e) == 0 || rn.changeDue) {
			rn.changeDue = !rn.reconfigStep(cl)
		}
		if rn.spec.think > 0 {
			time.Sleep(time.Duration(cl.rng.ExpFloat64() * float64(rn.spec.think)))
		}
		if rn.spec.getShare > 0 && cl.rng.Float64() < rn.spec.getShare {
			rn.get(cl, cl.rng.Intn(rn.opts.keys), (cl.id+int(cl.n))%rn.spec.replicas)
		} else {
			rn.put(cl, cl.own[cl.rng.Intn(len(cl.own))])
		}
	}
}

// procSample is a point reading of whole-process cost.
type procSample struct {
	cpuUs      float64
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	maxRSSKB   int64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return procSample{tv(ru.Utime) + tv(ru.Stime), ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, int64(ru.Maxrss)}
}

// lagSampler samples how far each member follower's log trails the leader's
// every 50 ms while tracing is on.
func (rn *run) lagSampler(done <-chan struct{}) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		li := int(rn.c.leader.Load())
		if li < 0 || !rn.rec.on.Load() {
			continue
		}
		last := rn.c.reps[li].view().last
		rn.mu.Lock()
		for i, r := range rn.c.reps {
			if i != li && rn.members[i+1] {
				rn.lags = append(rn.lags, float64(last-r.view().last))
			}
		}
		rn.mu.Unlock()
	}
}

// observed is everything a run hands to the metric code.
type observed struct {
	spec       workloadSpec
	setups     []float64 // seconds, one per timed set-up
	ops        []opRec   // every request of every measured client
	wStart     int64
	wEnd       int64
	refStart   int64 // traced runs: the untraced reference window
	refEnd     int64
	changes    []change
	rejected   int
	catchups   []float64
	lags       []float64
	procA      procSample
	procB      procSample
	viewsA     []nodeView
	viewsB     []nodeView
	walA, walB int64      // leader WAL bytes at the window edges
	diskA      diskSample // disk-model counters at the window edges, all replicas
	diskB      diskSample
	leader     int
	dropped    uint64
	shed       uint64
	reconnects uint64
	failstops  int
	violations []string
	rec        *recorder
}

// execute runs one workload once: timed set-ups, warm-up, the measured
// window, then the correctness gate.
func execute(spec workloadSpec, opts runOpts) (*observed, error) {
	rn := &run{spec: spec, opts: opts, epoch: time.Now()}
	obs := &observed{spec: spec}
	walRoot := filepath.Join(opts.dir, fmt.Sprintf("wal-%s-%d", spec.name, os.Getpid()))
	defer os.RemoveAll(walRoot)

	for i := 0; i < opts.setups; i++ {
		last := i == opts.setups-1
		if last && opts.trace {
			rn.rec = newRecorder(spec.replicas, rn.epoch)
		}
		t := time.Now()
		err := rn.setup(filepath.Join(walRoot, strconv.Itoa(i)))
		obs.setups = append(obs.setups, time.Since(t).Seconds())
		if err != nil {
			if rn.c != nil {
				rn.c.stop()
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if !last {
			rn.c.stop()
			if err := os.RemoveAll(filepath.Join(walRoot, strconv.Itoa(i))); err != nil {
				return nil, err
			}
		}
	}
	obs.rec = rn.rec

	clients := make([]*client, spec.clients)
	var wg sync.WaitGroup
	for i := range clients {
		clients[i] = rn.newClient(i, uint64(i+1), spec.clients)
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			rn.clientLoop(cl)
		}(clients[i])
	}
	time.Sleep(opts.warmup)
	samplerDone := make(chan struct{})
	var samplerWG sync.WaitGroup
	if opts.trace {
		obs.refStart = rn.now()
		time.Sleep(opts.ref)
		obs.refEnd = rn.now()
		obs.leader = int(rn.c.leader.Load())
		for _, r := range rn.c.reps {
			obs.viewsA = append(obs.viewsA, r.view())
		}
		if obs.leader >= 0 {
			obs.walA = rn.c.reps[obs.leader].walBytes()
		}
		obs.diskA = rn.c.diskCounters()
		obs.procA = sampleProc()
		rn.rec.on.Store(true)
		samplerWG.Add(1)
		go func() {
			defer samplerWG.Done()
			rn.lagSampler(samplerDone)
		}()
	}
	obs.wStart = rn.now()
	time.Sleep(opts.window)
	obs.wEnd = rn.now()
	if opts.trace {
		obs.procB = sampleProc()
		obs.diskB = rn.c.diskCounters()
		if obs.leader >= 0 {
			obs.walB = rn.c.reps[obs.leader].walBytes()
		}
		for _, r := range rn.c.reps {
			obs.viewsB = append(obs.viewsB, r.view())
		}
	}

	// Generators first (clients, which include the reconfig driver, then
	// the watchers), hosts after them, transports last.
	rn.stop.Store(true)
	wg.Wait()
	close(samplerDone)
	samplerWG.Wait()
	rn.watchers.Wait()
	if rn.rec != nil {
		rn.rec.on.Store(false)
	}
	for _, cl := range clients {
		obs.ops = append(obs.ops, cl.ops.slice()...)
	}
	obs.changes, obs.rejected, obs.catchups, obs.lags = rn.changes, rn.rejected, rn.catchups, rn.lags

	gate := rn.collect()
	obs.dropped, obs.shed, obs.reconnects = rn.c.transportCounters()
	rn.c.stop()
	if spec.durable {
		for _, r := range rn.c.reps {
			w, err := loadWAL(r.walDir)
			if err != nil {
				gate.failed = append(gate.failed, fmt.Sprintf("reload WAL of S%d: %v", r.id, err))
			}
			gate.wals = append(gate.wals, w)
		}
		for _, op := range obs.ops {
			if !op.get && !op.failed {
				gate.puts = append(gate.puts, ackedPut{op.idx, op.hash})
			}
		}
	}
	for _, e := range gate.errs {
		if e != "" {
			obs.failstops++
		}
	}
	obs.violations = checkGate(gate)
	return obs, nil
}

// collect restores full membership, waits for every replica to apply what
// the leader applied, and gathers the gate's inputs from the live stack.
func (rn *run) collect() gateInput {
	in := gateInput{keys: rn.keys, stale: rn.stale, failed: rn.restoreMembers()}
	target := 0
	if li := rn.c.probeLeader(); li >= 0 {
		target = int(rn.c.reps[li].cur.applied.Load())
	} else {
		in.failed = append(in.failed, "no leader at the end of the run")
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, r := range rn.c.reps {
		if !r.cur.wait(target, time.Until(deadline)) {
			in.failed = append(in.failed, fmt.Sprintf("replica S%d applied %d of %d", r.id, r.cur.applied.Load(), target))
		}
	}
	for _, r := range rn.c.reps {
		in.stores = append(in.stores, r.storeSnapshot())
		in.errs = append(in.errs, r.view().err)
	}
	in.acked = make([]uint64, len(rn.acked))
	for k := range rn.acked {
		in.acked[k] = rn.acked[k].Load()
	}
	return in
}
