package chaos

import (
	"fmt"
	"time"

	"adore/internal/config"
	"adore/internal/kvstore"
	"adore/internal/linear"
	"adore/internal/raft"
	"adore/internal/raft/sim"
	"adore/internal/refine"
	"adore/internal/types"
)

// This file replays chaos schedules deterministically: the same Schedule
// that Run executes against live goroutines is driven here through
// internal/raft/sim — single-threaded, on a logical clock, every random
// draw from the schedule's seed. One schedule millisecond is one sim tick,
// so the generated timelines (events in [10%, 80%] of the horizon, clients
// paced across it) keep their shape.
//
// The executor, the run loop, the epilogue and the sampled oracles are the
// live runner's own, written against Env, and the clients run the live
// client's request logic (kvstore.Session) on ticks. Here is what only a fully
// inspectable cluster allows: the oracles that read link state, disks, lease
// state and the stable log.
// The run checks applied ⊆ quorum-durable at every delivery to a state
// machine (checkQuorumDurable: the sim can read the disks) and executable
// refinement: every few ticks each replica's STABLE log — what its disk
// holds, its support in the paper's sense — and commit index are fed through
// refine.ExecChecker.ObserveNode, which rebuilds the Adore cache tree and
// requires logMatch plus one committed branch. A run of the R2-disabled
// schedule fails this oracle at the exact tick the histories fork.
//
// Disks are slow here: every write lands a seeded few ticks after it
// started, nemesis events stall them for whole election intervals, and a
// crash loses or tears the write in flight. A stalled leader with a healthy
// linked majority behind it arms a liveness oracle: someone else must be
// leading and committing within a bounded number of election intervals.

// refineEvery is how many ticks pass between executable-refinement sweeps.
const refineEvery = 25

// RunSimSeed generates the schedule for seed and replays it in the
// deterministic simulator.
func RunSimSeed(seed int64, opt Options) (*Report, error) {
	return RunSim(Generate(seed, opt), opt)
}

// groupSeedStride decorrelates the groups' random draws (election jitter,
// latency, loss) while keeping each group's run a pure function of
// (schedule seed, group). Same stride the multiraft host uses.
const groupSeedStride = 1000003

// RunSim executes a schedule in the deterministic simulator and returns
// the same Report shape as Run, plus the replayable journal. Two calls
// with equal schedule and options produce byte-identical journals.
//
// With opt.Groups > 1 the schedule is replayed once per raft group — the
// sharded deployment's verification story. Groups share nothing in the
// simulator (as in the real host, consensus state is fully per-group; the
// shared transport and tick loop have their own tests), so the replay keeps
// each group an independent deterministic run: node-level nemesis events
// apply to every group, exactly as one dead process takes down all the
// groups it hosts, while group-targeted events (EvWALWipe) apply only to
// their group. Each client's script is routed by kvstore.ShardOf, each
// group checks every oracle over its own shard of the workload, and
// violations come back prefixed "gN:" — a cross-group storage bug shows up
// as one group's violations against the other groups' clean runs.
func RunSim(sched *Schedule, opt Options) (*Report, error) {
	opt.defaults()
	if sched.Nodes > 0 {
		opt.Nodes = sched.Nodes
	}
	if opt.Groups <= 1 {
		return runSimGroup(sched, opt, 0, 1)
	}
	rep := &Report{Seed: sched.Seed, Hash: sched.Hash(), Events: len(sched.Events)}
	for g := 0; g < opt.Groups; g++ {
		sub, err := runSimGroup(sched, opt, raft.GroupID(g), opt.Groups)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		rep.Ops += sub.Ops
		rep.Timeouts += sub.Timeouts
		rep.Faults += sub.Faults
		rep.Stats.Add(sub.Stats)
		for _, v := range sub.Violations {
			rep.Violations = append(rep.Violations, fmt.Sprintf("g%d: %s", g, v))
		}
		for _, w := range sub.Warnings {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("g%d: %s", g, w))
		}
		rep.Journal = append(rep.Journal, []byte(fmt.Sprintf("=== group %d ===\n", g))...)
		rep.Journal = append(rep.Journal, sub.Journal...)
	}
	return rep, nil
}

// runSimGroup replays one group's view of the schedule: its shard of every
// client's script, all node-level events, and only its own group-targeted
// events.
func runSimGroup(sched *Schedule, opt Options, g raft.GroupID, groups int) (*Report, error) {
	scripts := sched.Scripts
	if groups > 1 {
		scripts = make([][]ClientOp, len(sched.Scripts))
		for ci, script := range sched.Scripts {
			for _, op := range script {
				if kvstore.ShardOf(op.Key, groups) == g {
					scripts[ci] = append(scripts[ci], op)
				}
			}
		}
	}
	if err := checkKeyBound(scripts); err != nil {
		return nil, err
	}
	rep := &Report{Seed: sched.Seed, Hash: sched.Hash(), Events: len(sched.Events)}

	et := int(ticksOf(opt.ElectionTimeoutMin))
	r := &simRun{
		s: sim.New(sim.Options{
			Nodes:             opt.Nodes,
			Seed:              sched.Seed + groupSeedStride*int64(g),
			ElectionTicks:     et,
			Ablation:          opt.Ablation,
			SnapshotThreshold: opt.snapThreshold(),
			DiskDelayTicks:    opt.diskDelayTicks(),
			EarlyStable:       opt.EarlyStable,
		}),
		et:        int64(et),
		horizon:   ticksOf(opt.Duration),
		opTimeout: ticksOf(opt.OpTimeout),
		stores:    make(map[types.NodeID]*kvstore.Store, opt.Nodes),
		applied:   make(map[types.NodeID][]raft.ApplyMsg, opt.Nodes),
		incarn:    make(map[types.NodeID]int, opt.Nodes),
		staleFor:  make(map[types.NodeID]int64),
		curLeader: types.NoNode,
	}
	for _, id := range r.s.IDs() {
		r.stores[id] = kvstore.NewStore()
	}
	r.s.OnApply(func(id types.NodeID, batch []raft.ApplyMsg) {
		r.checkQuorumDurable(id, batch[len(batch)-1])
		r.applied[id] = append(r.applied[id], batch...)
		for _, msg := range batch {
			r.stores[id].Apply(msg)
		}
	})
	// The sim's apply hook runs synchronously inside the same ready drain
	// that raises TakeSnapshot, so by the time the capture hook fires the
	// store has applied exactly the requested prefix — any mismatch is a
	// harness bug, not a race.
	r.s.OnSnapshot(func(id types.NodeID, index int) []byte {
		data, applied, err := r.stores[id].SaveSnapshot()
		if err != nil {
			return nil // abort this snapshot; the policy re-fires later
		}
		if applied != index {
			panic(fmt.Sprintf("chaos: snapshot capture on S%d saw applied index %d, policy requested %d", id, applied, index))
		}
		return data
	})
	r.exec = refine.NewExec(types.NewNodeSet(r.s.IDs()...))

	for ci, script := range scripts {
		cl := newScriptClient(ci, script, r.horizon, sched.Seed+groupSeedStride*int64(g)+int64(ci))
		cl.sess.FreshSeqOnRetry = opt.FreshSeqRetry
		r.clients = append(r.clients, cl)
	}

	env := simEnv{r.s, r}
	r.mon = newMonitor(env)
	x := newNemesis(env, g, opt.ElectionTimeoutMin)
	x.onEvent = func() { r.stallWatch = nil } // the window is no longer clean
	x.onStall = r.watchStall
	// A graceful hand-off deposes a perfectly healthy leader on purpose: mute
	// the disruption oracle for a transfer window.
	x.onHandoff = func() { r.suppressUntil = r.s.Now() + 10*r.et }

	// Per tick, after the nemesis: advance the clients (in client order:
	// determinism requires a fixed one), sample the shared monitor, run the
	// oracles only the simulator can answer.
	quantum := func() (busy bool) {
		for _, cl := range r.clients {
			cl.tick(r)
		}
		r.mon.sample()
		r.checkElections()
		r.checkLeases()
		r.checkStallLiveness()
		if r.s.Now()%refineEvery == 0 {
			r.checkRefinement()
		}
		return r.clientsPending()
	}
	x.run(sched.Events, r.horizon, quantum, false)
	// The epilogue also lets in-flight client ops resolve or time out.
	if w := x.finish(opt.SettleTimeout, quantum); w != "" {
		rep.Warnings = append(rep.Warnings, w)
	}
	r.checkRefinement()

	for _, cl := range r.clients {
		rep.Ops += cl.ops
		rep.Timeouts += cl.timeouts
	}
	rep.Faults = r.s.Faults()
	for _, id := range r.s.IDs() {
		rep.final = append(rep.final, env.Observe(id))
	}
	rep.Stats = r.mon.stats()
	rep.Violations = append(rep.Violations, r.mon.report()...)
	rep.Violations = append(rep.Violations, checkAppliedStreams(r.applied, opt.Nodes)...)
	rep.Violations = append(rep.Violations, checkLinearizable(r.history)...)
	rep.Violations = append(rep.Violations, r.refineViolations...)
	rep.Journal = append([]byte(nil), r.s.Journal()...)
	return rep, nil
}

// simRun is the simulator-only half of a deterministic run: the cluster, the
// clients and the replicas' stores, and the oracles that need more of the
// cluster than Env offers.
type simRun struct {
	s         *sim.Cluster
	mon       *monitor // the shared sampled oracles; also collects the sim-only oracles' violations
	et        int64    // election interval in ticks
	horizon   int64
	opTimeout int64

	stores  map[types.NodeID]*kvstore.Store
	applied map[types.NodeID][]raft.ApplyMsg
	incarn  map[types.NodeID]int
	clients []*scriptClient
	history linear.History

	// election-disruption oracle state
	curLeader        types.NodeID // established-leader candidate (NoNode = none)
	curLeaderTerm    types.Time
	curLeaderMembers types.NodeSet          // configuration healthyFor was accumulated under
	healthyFor       int64                  // consecutive ticks curLeader has been healthy
	suppressUntil    int64                  // disruption oracle muted through this tick (transfers)
	staleFor         map[types.NodeID]int64 // consecutive ticks leading without a linked quorum

	// stalled-leader liveness oracle: armed by a disk stall on the sitting
	// leader, disarmed by any other nemesis event (only clean windows are
	// judged).
	stallWatch *stallWatch

	// quorumDurable is the highest index found on the disks of a majority at
	// a delivery (checkQuorumDurable).
	quorumDurable int

	// executable refinement
	exec             *refine.ExecChecker
	refineBroken     bool
	refineViolations []string
}

// simEnv is *sim.Cluster as an Env: the simulator's method set is the
// interface's, plus the consistent sample and the harness's own per-node state
// on restart.
type simEnv struct {
	*sim.Cluster
	r *simRun
}

// Restart boots a fallen node (no-op when healthy) with a fresh store; the
// replayed apply stream rebuilds it, and the accumulated stream keeps both
// incarnations for checkAppliedStreams.
func (e simEnv) Restart(id types.NodeID) {
	if e.Alive(id) {
		return
	}
	e.r.incarn[id]++
	e.r.stores[id] = kvstore.NewStore()
	e.Cluster.Restart(id)
}

func (e simEnv) Observe(id types.NodeID) Sample {
	term, role, _ := e.Status(id)
	return Sample{
		Alive: e.Alive(id), Incarnation: e.r.incarn[id], Term: term, Role: role,
		Commit: e.CommitIndex(id), Members: e.Members(id), Counters: e.Driver(id).Counters(),
	}
}

// stallWatch is one armed liveness obligation.
type stallWatch struct {
	stalled  types.NodeID // whose disk froze while it led
	commit   int          // highest commit index anywhere at that instant
	deadline int64
}

// stallLivenessIntervals bounds (in election intervals) how long a healthy
// majority may take to have a leader that can write and commits past the
// stall: one interval for the stalled leader to notice, up to two timeouts
// with jitter for the followers, and slack for the vote and no-op rounds.
const stallLivenessIntervals = 10

// watchStall arms the liveness oracle when the disk the nemesis just froze
// is the sitting leader's and a healthy majority stands behind it.
func (r *simRun) watchStall(id types.NodeID) {
	if lid, ok := r.s.Leader(); ok && lid == id && r.othersHealthy(id) {
		r.stallWatch = &stallWatch{
			stalled:  id,
			commit:   r.maxCommit(),
			deadline: r.s.Now() + stallLivenessIntervals*r.et,
		}
	}
}

// checkStallLiveness samples an armed stall watch every tick. It is
// satisfied the first time a leader with a working disk is committing — past
// the stall-time frontier, or with nothing left to commit; a successor, or
// the same node if the stall was short enough to ride out — and violated if
// the deadline passes first.
func (r *simRun) checkStallLiveness() {
	w := r.stallWatch
	if w == nil {
		return
	}
	if lid, ok := r.s.Leader(); ok && !r.s.DiskStalled(lid) &&
		(r.s.CommitIndex(lid) > w.commit || r.s.CommitIndex(lid) == r.s.LastIndex(lid)) {
		r.stallWatch = nil
		return
	}
	if r.s.Now() < w.deadline {
		return
	}
	r.stallWatch = nil
	r.mon.flag("liveness: S%d's disk stalled while it led a healthy majority, and %d election intervals later no leader with a working disk is committing (the stalled-disk step-down should have handed over)",
		w.stalled, stallLivenessIntervals)
	r.s.Journalf("stall-liveness violation: S%d", w.stalled)
}

// checkLeases is the stale-lease oracle, probed every tick: any node that
// would answer a lease read right now must grant an index at or beyond
// every alive replica's commit index. A valid lease means no newer leader
// can have been elected (every election path that could outrun the lease
// window — transfer, reconfig — invalidates it first), so nothing can have
// committed past the holder's read floor; a grant below the global commit
// frontier is a stale read waiting to be served. LeaseProbe is
// side-effect-free, so probing does not perturb the run.
func (r *simRun) checkLeases() {
	maxCommit := r.maxCommit()
	for _, id := range r.s.IDs() {
		if !r.s.Alive(id) {
			continue
		}
		if _, role, _ := r.s.Status(id); role != raft.Leader {
			continue
		}
		if idx, ok := r.s.LeaseProbe(id); ok && idx < maxCommit {
			r.mon.flag("stale lease on S%d: would serve reads at index %d while index %d is committed elsewhere", id, idx, maxCommit)
			r.s.Journalf("stale-lease violation: S%d idx=%d commit=%d", id, idx, maxCommit)
		}
	}
}

// checkElections runs the two election-robustness oracles every tick.
//
// Stale-leader oracle (CheckQuorum's contract): an alive node still
// claiming leadership long after its last linked quorum disappeared should
// have stepped down within an election interval; tolerating several
// intervals of slack, a persistent minority reign is a violation.
//
// Disruption oracle (Pre-Vote + sticky leadership's contract): a leader
// that has been continuously healthy — alive, no probabilistic loss, a
// quorum of its configuration alive and bidirectionally linked — for two
// full election intervals is "established": its quorum hears heartbeats,
// so every member of it denies (pre-)votes, and no rejoining node can
// assemble a majority. If such a leader is deposed anyway outside a
// leadership-transfer window, election robustness is broken.
func (r *simRun) checkElections() {
	estThreshold := 4 * r.et // 2 × the longest timeout (ElectionTicks + jitter < 2 × ElectionTicks)
	staleThreshold := 6 * r.et
	now := r.s.Now()

	for _, id := range r.s.IDs() {
		_, role, _ := r.s.Status(id)
		if !r.s.Alive(id) || role != raft.Leader || !r.s.Members(id).Contains(id) || r.quorumLinked(id) {
			delete(r.staleFor, id)
			continue
		}
		r.staleFor[id]++
		if r.staleFor[id] == staleThreshold {
			r.mon.flag("stale leader S%d kept leading %d ticks after losing quorum contact (CheckQuorum should step it down)", id, staleThreshold)
			r.s.Journalf("stale-leader violation: S%d", id)
		}
	}

	if r.curLeader != types.NoNode {
		term, role, _ := r.s.Status(r.curLeader)
		if !r.s.Alive(r.curLeader) {
			r.curLeader, r.healthyFor = types.NoNode, 0
		} else if role != raft.Leader || term != r.curLeaderTerm {
			if r.healthyFor >= estThreshold && now >= r.suppressUntil {
				r.mon.flag("healthy leader S%d (term %d) deposed by election disruption", r.curLeader, r.curLeaderTerm)
				r.s.Journalf("disruption violation: S%d term %d", r.curLeader, r.curLeaderTerm)
			}
			r.curLeader, r.healthyFor = types.NoNode, 0
		}
	}
	if r.curLeader == types.NoNode {
		if lid, ok := r.s.Leader(); ok && r.s.Alive(lid) {
			term, _, _ := r.s.Status(lid)
			r.curLeader, r.curLeaderTerm, r.healthyFor = lid, term, 0
			r.curLeaderMembers = r.s.Members(lid)
		}
	}
	if r.curLeader != types.NoNode {
		// "Established" is relative to a configuration: the guarantee rests
		// on the leader's quorum having heard heartbeats for two election
		// intervals, and a membership change swaps in a quorum that hasn't.
		// (A voter added one tick ago counts as linked here, but CheckQuorum
		// rightly won't count it until it actually acks — deposing the
		// leader then is correct behavior, not disruption.) Restart the
		// clock whenever the configuration changes.
		if m := r.s.Members(r.curLeader); !m.Equal(r.curLeaderMembers) {
			r.curLeaderMembers = m
			r.healthyFor = 0
		}
		if r.healthy(r.curLeader) {
			r.healthyFor++
		} else {
			r.healthyFor = 0
		}
	}
}

// healthy reports whether id is a leader the disruption oracle would
// protect: alive, a voter in its own configuration, no probabilistic
// message loss, a disk that takes writes (a stalled leader is SUPPOSED to be
// replaced), and a quorum of that configuration alive and linked.
func (r *simRun) healthy(id types.NodeID) bool {
	if !r.s.Alive(id) || r.s.DropRate() > 0 || r.s.DiskStalled(id) {
		return false
	}
	if !r.s.Members(id).Contains(id) {
		return false
	}
	return r.quorumLinked(id)
}

// quorumLinked reports whether a majority of id's configuration (counting
// itself) is alive with a clean bidirectional link to id.
func (r *simRun) quorumLinked(id types.NodeID) bool {
	members := r.s.Members(id)
	contact := 0
	for _, m := range members.Slice() {
		if m == id || (r.s.Alive(m) && r.s.Linked(id, m)) {
			contact++
		}
	}
	return config.MajorityCount(contact, members)
}

// othersHealthy reports whether the configuration minus id still holds a
// majority of alive, mutually linked members with no message loss — the
// "healthy majority" a stalled leader's step-down hands the cluster to.
func (r *simRun) othersHealthy(id types.NodeID) bool {
	if r.s.DropRate() > 0 {
		return false
	}
	members := r.s.Members(id)
	var rest []types.NodeID
	for _, m := range members.Slice() {
		if m != id && r.s.Alive(m) {
			rest = append(rest, m)
		}
	}
	for i, a := range rest {
		for _, b := range rest[i+1:] {
			if !r.s.Linked(a, b) {
				return false
			}
		}
	}
	return config.MajorityCount(len(rest), members)
}

// maxCommit is the highest commit index on any alive replica.
func (r *simRun) maxCommit() int {
	maxCommit := 0
	for _, id := range r.s.IDs() {
		if r.s.Alive(id) {
			if ci := r.s.CommitIndex(id); ci > maxCommit {
				maxCommit = ci
			}
		}
	}
	return maxCommit
}

// checkQuorumDurable is the applied ⊆ quorum-durable oracle, run at every
// delivery to any replica's state machine. Replicas apply what they KNOW
// committed, ahead of their own disks; what makes that safe is that the leader
// only names an index committed once a majority of the configuration it judged
// the commit under holds it on disk. The leader is the first to deliver an
// index it commits — in the very drain that follows its advanceCommit, with
// its membership unchanged — so that is where the claim is checked, against
// the disks themselves (config.MajorityCount, the predicate advanceCommit
// uses; a powered-off node's disk still counts). The certified index only
// rises: a committed entry never leaves a disk that held it. Whatever a
// replica delivers at or below it is the same entry (the applied-stream oracle
// checks that); anything above it rests on no quorum.
func (r *simRun) checkQuorumDurable(id types.NodeID, last raft.ApplyMsg) {
	if last.Index <= r.quorumDurable {
		return
	}
	members := r.s.Members(id)
	count := 0
	for _, m := range members.Slice() {
		if r.s.DiskHolds(m, last.Index, last.Term) {
			count++
		}
	}
	if config.MajorityCount(count, members) {
		r.quorumDurable = last.Index
		return
	}
	r.mon.flag("quorum-durable: S%d applied index %d (term %d) with it on the disks of only %d of %s, above the quorum-durable index %d",
		id, last.Index, last.Term, count, members, r.quorumDurable)
	r.s.Journalf("quorum-durable violation: S%d applied %d, on %d of %s disks", id, last.Index, count, members)
}

// checkRefinement feeds every replica's retained log suffix and commit
// index through the executable-refinement checker. Compacted replicas are
// observed from their snapshot base: the fingerprint (index, term) must
// name the committed cache at that depth before the suffix is matched.
// The first violation is recorded and further sweeps stop (a forked tree
// keeps failing).
func (r *simRun) checkRefinement() {
	if r.refineBroken {
		return
	}
	for _, id := range r.s.IDs() {
		// The stable log is the replica's support: an entry still on its
		// way to disk backs nothing yet (no ack, no commit counts it).
		first, last := r.s.FirstIndex(id), r.s.StableIndex(id)
		if last < first-1 {
			continue // a snapshot above the WAL still being written: no durable view
		}
		log := make([]raft.LogEntry, 0, last-first+1)
		for i := first; i <= last; i++ {
			log = append(log, r.s.Entry(id, i))
		}
		commit := r.s.CommitIndex(id)
		if commit > last {
			commit = last
		}
		err := r.exec.ObserveNodeAt(id, r.s.SnapshotIndex(id), r.s.SnapshotTerm(id), log, commit)
		if err != nil {
			r.refineViolations = append(r.refineViolations, err.Error())
			r.refineBroken = true
			r.s.Journalf("refinement violation: %v", err)
			return
		}
	}
}

func (r *simRun) clientsPending() bool {
	for _, cl := range r.clients {
		if cl.busy {
			return true
		}
	}
	return false
}

// scriptClient is one scripted client in the simulator: a kvstore.Session —
// the request logic kvstore.Client runs — carried out on logical ticks, one
// operation at a time, each recorded in the shared history with sim-tick
// call/return times. It learns only what the replica it addresses tells it:
// a proposal's index or refusal, a read's index or abort (with that
// replica's known leader), and the outcome in that replica's own Store.
type scriptClient struct {
	idx      int
	script   []ClientOp
	startAt  []int64
	next     int
	sess     *kvstore.Session
	step     kvstore.Step
	busy     bool
	call     int64
	read     <-chan int // the pending read step's answer (nil: not asked yet)
	ops      int
	timeouts int
}

func newScriptClient(idx int, script []ClientOp, horizon, seed int64) *scriptClient {
	interval := horizon / int64(len(script)+1)
	starts := make([]int64, len(script))
	for i := range script {
		starts[i] = int64(i) * interval
	}
	return &scriptClient{idx: idx, script: script, startAt: starts, sess: kvstore.NewSession(uint64(idx)+1, seed)}
}

// tick starts the next scripted operation when its time has come, or tells
// the session the time, then carries out its steps.
func (cl *scriptClient) tick(r *simRun) {
	now := time.Duration(r.s.Now()) * simTick
	switch {
	case cl.busy:
		cl.follow(r, cl.sess.Tick(now))
	case cl.next < len(cl.script) && r.s.Now() >= cl.startAt[cl.next] && r.s.Now() < r.horizon:
		op := cl.script[cl.next]
		cl.next++
		cl.busy, cl.call = true, r.s.Now()
		timeout := time.Duration(r.opTimeout) * simTick
		if op.FastRead {
			cl.follow(r, cl.sess.Read(now, op.Via, timeout, r.s.IDs()))
		} else {
			cmd := kvstore.Command{Op: op.Op, Key: op.Key, Value: op.Value, Old: op.Old}
			cl.follow(r, cl.sess.Write(now, cmd, timeout, r.s.IDs()))
		}
	}
}

// follow carries out steps until one has to wait for a later tick. A read
// step asks its replica once and polls the answer on every tick: an answer
// the replica has at hand (lease, single voter) is served in the tick it was
// asked.
func (cl *scriptClient) follow(r *simRun, st kvstore.Step) {
	now := time.Duration(r.s.Now()) * simTick
	for {
		if st != cl.step {
			cl.read = nil // a new step: an old read's answer is stale
		}
		cl.step = st
		switch st.Kind {
		case kvstore.StepDone:
			cl.finish(r)
			return
		case kvstore.StepSleep:
			return
		case kvstore.StepPropose:
			idx, _, err := r.s.Propose(st.Node, st.Cmd.Encode())
			st = cl.sess.Answered(now, idx, err)
		case kvstore.StepRead:
			if cl.read == nil {
				wait, err := r.s.Read(st.Node)
				if err != nil {
					st = cl.sess.Answered(now, 0, err)
					continue
				}
				cl.read = wait
			}
			select {
			case idx := <-cl.read:
				var err error
				if idx < 0 {
					_, _, leader := r.s.Status(st.Node)
					err = raft.ReadAborted(idx, leader)
				}
				st = cl.sess.Answered(now, idx, err)
			default:
				return
			}
		case kvstore.StepAwait:
			store := r.stores[st.Node]
			res, mine, ok := store.Outcome(st.Index, st.Cmd.Client, st.Cmd.Seq)
			if !ok || !r.s.Alive(st.Node) {
				return
			}
			if op := cl.script[cl.next-1]; op.FastRead {
				res.Value, res.Found = store.LocalGet(op.Key)
			}
			st = cl.sess.Applied(now, res, mine)
		}
	}
}

// finish records the finished operation, as the live runner does.
func (cl *scriptClient) finish(r *simRun) {
	op, st := cl.script[cl.next-1], cl.step
	cl.busy = false
	cl.ops++
	verdict := "ok"
	if st.Err != nil {
		cl.timeouts++
		verdict = "timeout"
	}
	r.s.Journalf("client %d op %d %s(%q) %s", cl.idx, cl.next, op.Op, op.Key, verdict)
	r.history = record(r.history, cl.idx, op, cl.call, r.s.Now(), st.Result, st.Err, st.Maybe)
}
