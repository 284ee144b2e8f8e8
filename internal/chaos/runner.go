package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adore/internal/kvstore"
	"adore/internal/linear"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// Report is the outcome of one chaos run. Violations are safety failures
// (the run found a bug); Warnings are liveness observations (the cluster
// did not reconverge in time) that do not fail the run.
type Report struct {
	Seed       int64
	Hash       string // schedule fingerprint: identical for every run of this seed
	Violations []string
	Warnings   []string
	Ops        int // client operations attempted
	Timeouts   int // operations with unknown outcome
	Faults     uint64
	Events     int

	// Stats sums the election-disruption counters across every node (and
	// every incarnation — a restart resets a node's own counters): how
	// hard the run churned leadership and how the robustness guards
	// responded.
	Stats raft.Counters

	// Journal is the deterministic event transcript (simulation runs
	// only); byte-identical across runs of the same seed and options.
	Journal []byte
}

// addStats folds one node's counters into the report sum.
func (r *Report) addStats(c raft.Counters) {
	r.Stats.Elections += c.Elections
	r.Stats.PreVoteRounds += c.PreVoteRounds
	r.Stats.PreVotesWon += c.PreVotesWon
	r.Stats.TimeoutElections += c.TimeoutElections
	r.Stats.TransferElections += c.TransferElections
	r.Stats.TermBumps += c.TermBumps
	r.Stats.StepDowns += c.StepDowns
	r.Stats.TransfersStarted += c.TransfersStarted
	r.Stats.TransfersAborted += c.TransfersAborted
}

// Ok reports whether the run found no safety violation.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String summarizes the report.
func (r *Report) String() string {
	status := "ok"
	if !r.Ok() {
		status = fmt.Sprintf("FAILED (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("seed %d: %s — %d events, %d ops (%d unknown), %d storage faults, %d warnings, %d elections (%d pre-vote rounds, %d step-downs, %d transfers)",
		r.Seed, status, r.Events, r.Ops, r.Timeouts, r.Faults, len(r.Warnings),
		r.Stats.Elections, r.Stats.PreVoteRounds, r.Stats.StepDowns, r.Stats.TransfersStarted)
}

// RunSeed generates the schedule for seed and executes it.
func RunSeed(seed int64, opt Options) (*Report, error) {
	return Run(Generate(seed, opt), opt)
}

// Run executes a schedule against a live cluster: nodes over fault-injectable
// WALs, scripted concurrent clients recording a history, the nemesis timeline
// driving the network and the disks, then a heal-repair-restart epilogue and
// the safety checks.
func Run(sched *Schedule, opt Options) (*Report, error) {
	opt.defaults()
	if sched.Nodes > 0 {
		opt.Nodes = sched.Nodes
	}
	// The linearizability checker's bitmask search caps per-key histories;
	// the generator deals keys round-robin precisely to respect this.
	perKey := map[string]int{}
	for _, script := range sched.Scripts {
		for _, op := range script {
			perKey[op.Key]++
		}
	}
	for k, cnt := range perKey {
		if cnt > 62 {
			return nil, fmt.Errorf("chaos: key %q would see %d ops, beyond the checker's 62-event bound; raise Keys or lower the workload", k, cnt)
		}
	}

	rep := &Report{Seed: sched.Seed, Hash: sched.Hash(), Events: len(sched.Events)}

	// Per-node storage: a FaultStorage over a file WAL (or MemStorage when
	// the run opts out of real files). The same wrapper instance serves
	// every incarnation of the node, so armed faults and durable state
	// carry across crash/restart exactly like a disk does.
	faults := make(map[types.NodeID]*raft.FaultStorage, opt.Nodes)
	if !opt.MemWAL {
		dir := opt.Dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "raft-chaos-*")
			if err != nil {
				return nil, err
			}
			dir = tmp
			defer os.RemoveAll(tmp)
		}
		defer func() {
			for _, f := range faults {
				f.Close()
			}
		}()
		for i := 1; i <= opt.Nodes; i++ {
			id := types.NodeID(i)
			inner, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("wal-%d", id)))
			if err != nil {
				return nil, fmt.Errorf("chaos: open wal for S%d: %w", id, err)
			}
			faults[id] = raft.NewFaultStorage(inner)
		}
	} else {
		for i := 1; i <= opt.Nodes; i++ {
			faults[types.NodeID(i)] = raft.NewFaultStorage(raft.NewMemStorage())
		}
	}

	r := kvstore.NewReplicated(cluster.Options{
		N:                  opt.Nodes,
		Latency:            opt.Latency,
		Jitter:             opt.Jitter,
		ElectionTimeoutMin: opt.ElectionTimeoutMin,
		Ablation:           opt.Ablation,
		Seed:               sched.Seed,
		StorageFor:         func(_ raft.GroupID, id types.NodeID) raft.Storage { return faults[id] },
		SnapshotThreshold:  opt.snapThreshold(),
	})
	defer r.Stop()
	c := r.Cluster
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: cluster never elected an initial leader: %w", err)
	}

	start := time.Now()
	mon := startMonitor(c)
	defer mon.stop()

	// Concurrent scripted clients, one kvstore session each (per-client
	// sequence numbers are what make retried requests idempotent).
	hist := &recorder{}
	var wg sync.WaitGroup
	for ci, script := range sched.Scripts {
		wg.Add(1)
		go func(ci int, script []ClientOp) {
			defer wg.Done()
			runClient(r.NewClient(), hist, ci, script, start, opt)
		}(ci, script)
	}

	// The nemesis executes the timeline in schedule order at the planned
	// offsets (a slow action pushes later ones, never reorders them).
	ex := &executor{c: c, faults: faults, members: types.Range(1, types.NodeID(opt.Nodes)).Copy()}
	for _, e := range sched.Events {
		if d := time.Until(start.Add(e.At)); d > 0 {
			time.Sleep(d)
		}
		ex.apply(e)
	}
	if d := time.Until(start.Add(opt.Duration)); d > 0 {
		time.Sleep(d)
	}
	wg.Wait()
	rep.Ops, rep.Timeouts = hist.counts()

	// Epilogue: heal the network, repair every disk, restart every node
	// that is down or fail-stopped, then wait for commit indexes to agree.
	c.Net.Heal()
	c.Net.SetDropRate(0)
	for i := 1; i <= opt.Nodes; i++ {
		id := types.NodeID(i)
		faults[id].ClearFaults()
		if n := c.Node(id); n == nil {
			c.RestartNode(id, ex.members)
		} else if n.Snapshot().Err != nil {
			c.CrashNode(id)
			c.RestartNode(id, ex.members)
		}
	}
	if w := waitConverged(c, opt.SettleTimeout); w != "" {
		rep.Warnings = append(rep.Warnings, w)
	}
	mon.stop()

	for _, f := range faults {
		rep.Faults += f.Injected()
	}
	rep.Stats = mon.stats()
	rep.Violations = append(rep.Violations, mon.report()...)
	rep.Violations = append(rep.Violations, checkApplied(c, opt.Nodes)...)
	rep.Violations = append(rep.Violations, checkLinearizable(hist.snapshot())...)
	return rep, nil
}

// recorder collects the concurrent history.
type recorder struct {
	mu       sync.Mutex
	events   linear.History // guarded by mu
	ops      int            // guarded by mu
	timeouts int            // guarded by mu
}

func (rc *recorder) add(e linear.Event) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.events = append(rc.events, e)
}

func (rc *recorder) count(timedOut bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ops++
	if timedOut {
		rc.timeouts++
	}
}

func (rc *recorder) counts() (ops, timeouts int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ops, rc.timeouts
}

func (rc *recorder) snapshot() linear.History {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append(linear.History(nil), rc.events...)
}

// runClient walks one script until the horizon, recording every completed
// operation and recording timed-out writes as outcome-unknown (Maybe)
// events — a Put whose ack was lost may still have committed, and the
// checker must be allowed to place it. Timed-out reads are side-effect-free
// and are simply dropped.
func runClient(cl *kvstore.Client, hist *recorder, ci int, script []ClientOp, start time.Time, opt Options) {
	// Ops are paced across the whole horizon (catching up immediately when
	// a slow op puts the client behind), so the workload overlaps every
	// nemesis event instead of finishing before the first fault lands.
	interval := opt.Duration / time.Duration(len(script)+1)
	for i, op := range script {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		if time.Since(start) >= opt.Duration {
			return
		}
		call := int64(time.Since(start))
		if op.FastRead {
			v, found, err := cl.FastGetMode(op.Key, op.Via, opt.OpTimeout)
			hist.count(err != nil)
			if err != nil {
				continue
			}
			hist.add(linear.Event{
				Client: ci, Op: kvstore.OpGet, Key: op.Key,
				Out:  kvstore.Result{Value: v, Found: found},
				Call: call, Return: int64(time.Since(start)),
			})
			continue
		}
		out, err := cl.Do(op.Op, op.Key, op.Value, op.Old, opt.OpTimeout)
		ret := int64(time.Since(start))
		hist.count(err != nil)
		if err != nil {
			if op.Op != kvstore.OpGet {
				hist.add(linear.Event{
					Client: ci, Op: op.Op, Key: op.Key, Value: op.Value, Old: op.Old,
					Call: call, Maybe: true,
				})
			}
			continue
		}
		hist.add(linear.Event{
			Client: ci, Op: op.Op, Key: op.Key, Value: op.Value, Old: op.Old,
			Out: out, Call: call, Return: ret,
		})
	}
}

// executor applies planned events to the live cluster. It runs on a single
// goroutine; the only cross-event state is the active leader-partition (for
// shed events) and the initial member list (for restarts).
type executor struct {
	c       *cluster.Cluster
	faults  map[types.NodeID]*raft.FaultStorage
	members []types.NodeID

	near, far  []types.NodeID // sides of the active leader partition
	partLeader *raft.Node     // the leader cut off by EvPartitionLeader
}

func (ex *executor) apply(e Event) {
	switch e.Kind {
	case EvPartition:
		ex.clearPartition()
		ex.c.Net.Partition(e.A, e.B)
	case EvPartitionLeader:
		ex.partitionLeader(e.Keep)
	case EvHeal:
		ex.clearPartition()
		ex.c.Net.Heal()
	case EvIsolate:
		ex.clearPartition()
		var rest []types.NodeID
		for _, id := range ex.members {
			if id != e.Node {
				rest = append(rest, id)
			}
		}
		ex.c.Net.Partition([]types.NodeID{e.Node}, rest)
	case EvDropRate:
		ex.c.Net.SetDropRate(e.Rate)
	case EvCrash:
		ex.crash(e)
	case EvRestart:
		ex.faults[e.Node].ClearFaults()
		if ex.c.Node(e.Node) == nil {
			ex.c.RestartNode(e.Node, ex.members)
		}
	case EvReconfigRemove, EvReconfigAdd:
		l := ex.c.Leader()
		if l == nil {
			return
		}
		members := l.Snapshot().Members
		target := members.Add(e.Node)
		if e.Kind == EvReconfigRemove {
			target = members.Remove(e.Node)
		}
		if target.Len() == members.Len() {
			return // already applied or already absent
		}
		// Best effort: under faults the change may be rejected (R2/R3) or
		// never commit; both are legitimate outcomes the checkers observe.
		ex.c.Reconfigure(target, 200*time.Millisecond)
	case EvReconfigShed:
		ex.shed()
	case EvPartialPartition:
		ex.c.Net.BlockOneWay(e.A[0], e.B[0])
	case EvIsolateLeader:
		ex.clearPartition()
		if l := ex.c.Leader(); l != nil {
			ex.c.Net.Isolate(l.ID())
		}
	case EvIsolateFollower:
		ex.clearPartition()
		var lid types.NodeID
		if l := ex.c.Leader(); l != nil {
			lid = l.ID()
		}
		for _, id := range ex.members {
			if id != lid && ex.c.Node(id) != nil {
				ex.c.Net.Isolate(id)
				return
			}
		}
	case EvTransferLeader:
		if l := ex.c.Leader(); l != nil {
			l.TransferLeader(types.NoNode) // best effort; no-op on errors
		}
	case EvReconfigDropLeader:
		l := ex.c.Leader()
		if l == nil {
			return
		}
		members := l.Snapshot().Members
		if !members.Contains(l.ID()) || members.Len() <= 3 {
			return
		}
		// cluster.Reconfigure hands leadership off before proposing a
		// change that sheds the sitting leader.
		ex.c.Reconfigure(members.Remove(l.ID()), 200*time.Millisecond)
	case EvWALWipe:
		// Deterministic-sim only: the live cluster has no hook to destroy
		// one group's storage out from under a node, and the multi-group
		// replay path is RunSim. A live run of a wipe schedule simply skips
		// the wipe — its teeth test would then (correctly) fail to find the
		// expected violation rather than pass vacuously.
	case EvDeafenLeader:
		// Deterministic-sim only, like EvWALWipe: the stale-lease oracle
		// needs the sim's link-state visibility, so the lease teeth run
		// there and a live replay skips the deafening.
	case EvStallDisk:
		id := e.Node
		if id == types.NoNode {
			l := ex.c.Leader()
			if l == nil {
				return
			}
			id = l.ID()
		}
		// Every write on the node sleeps For until the stall is lifted,
		// For from now (the epilogue's ClearFaults lifts it regardless).
		fs := ex.faults[id]
		fs.SetStall(e.For)
		time.AfterFunc(e.For, func() { fs.SetStall(0) })
	default:
		panic(fmt.Sprintf("chaos: executor saw unknown event kind %v", e.Kind))
	}
}

func (ex *executor) clearPartition() {
	ex.near, ex.far, ex.partLeader = nil, nil, nil
}

// partitionLeader cuts the current leader plus keep followers (lowest IDs
// first, crashed nodes included so restarts come back on the same side)
// off from the rest of the cluster.
func (ex *executor) partitionLeader(keep int) {
	ex.clearPartition()
	l := ex.c.Leader()
	var lid types.NodeID
	if l != nil {
		lid = l.ID()
	} else {
		lid = ex.members[0] // no leader right now: cut the lowest ID off
	}
	near := []types.NodeID{lid}
	var far []types.NodeID
	for _, id := range ex.members {
		if id == lid {
			continue
		}
		if len(near) < 1+keep {
			near = append(near, id)
		} else {
			far = append(far, id)
		}
	}
	ex.c.Net.Partition(near, far)
	ex.near, ex.far, ex.partLeader = near, far, l
}

// shed asks the partitioned stale leader to remove one far-side node from
// the membership — the move R2/R3 must police. With the guards on, at most
// one such change is accepted and it cannot commit from the minority; with
// DisableR2 the second one shrinks the config until the minority becomes a
// quorum of it.
func (ex *executor) shed() {
	if ex.partLeader == nil {
		return
	}
	members := ex.partLeader.Snapshot().Members
	for _, id := range ex.far {
		if members.Contains(id) {
			ex.partLeader.ProposeConfig(members.Remove(id))
			return
		}
	}
}

// crash takes a node down. Torn/wound modes first arm a storage fault and
// give the node a moment to trip over it (exercising the fail-stop path);
// if no write happens in time the node is crashed the hard way regardless.
func (ex *executor) crash(e Event) {
	fs := ex.faults[e.Node]
	switch e.Mode {
	case CrashClean:
		// No disk fault: just the process dying.
	case CrashTorn:
		fs.TearNextWrite()
	case CrashWound:
		fs.FailNextSaveEntries(fmt.Errorf("chaos: injected write error on S%d", e.Node))
	default:
		panic(fmt.Sprintf("chaos: unknown crash mode %v", e.Mode))
	}
	if e.Mode != CrashClean {
		if n := ex.c.Node(e.Node); n != nil {
			select {
			case <-n.Done():
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
	ex.c.CrashNode(e.Node)
}

// waitConverged waits for every member of the leader's configuration to
// report the same commit index, stable across consecutive samples. Failure
// is a liveness warning, not a safety violation.
func waitConverged(c *cluster.Cluster, timeout time.Duration) string {
	deadline := time.Now().Add(timeout)
	lastMax, stable := -1, 0
	for time.Now().Before(deadline) {
		if l := c.Leader(); l != nil {
			lo, hi, ok := 0, 0, true
			for i, id := range l.Snapshot().Members.Slice() {
				n := c.Node(id)
				if n == nil {
					ok = false
					break
				}
				ci := n.Snapshot().CommitIndex
				if i == 0 || ci < lo {
					lo = ci
				}
				if ci > hi {
					hi = ci
				}
			}
			if ok && lo == hi && hi == lastMax {
				stable++
				if stable >= 3 {
					return ""
				}
			} else {
				stable = 0
				lastMax = hi
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Sprintf("cluster did not converge within %s of the run ending", timeout)
}
