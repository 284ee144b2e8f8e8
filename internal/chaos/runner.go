package chaos

import (
	"fmt"
	"math/rand"
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

	// final is every node as the epilogue left it, in ID order (single-group
	// runs; the live/sim parity test compares it).
	final []Sample
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
	if opt.Groups > 1 {
		return nil, fmt.Errorf("chaos: Run drives one live raft group and Options.Groups is %d; replay a multi-group schedule with RunSim", opt.Groups)
	}
	if sched.Nodes > 0 {
		opt.Nodes = sched.Nodes
	}
	if err := checkKeyBound(sched.Scripts); err != nil {
		return nil, err
	}
	rep := &Report{Seed: sched.Seed, Hash: sched.Hash(), Events: len(sched.Events)}

	// Per-node disk: the os under a directory of the run (or an in-memory
	// file system when the run opts out of real files), behind a fault
	// wrapper that outlives every incarnation of the node, so armed faults
	// and durable state carry across crash/restart exactly like a disk does.
	dir, disks := opt.Dir, make(map[types.NodeID]*raft.FaultFS, opt.Nodes)
	if !opt.MemWAL && dir == "" {
		tmp, err := os.MkdirTemp("", "raft-chaos-*")
		if err != nil {
			return nil, err
		}
		dir = tmp
		defer os.RemoveAll(tmp)
	}
	for id := types.NodeID(1); int(id) <= opt.Nodes; id++ {
		disks[id] = raft.NewFaultFS(raft.OSFS)
		if opt.MemWAL {
			disks[id] = raft.NewFaultFS(raft.NewMemFS())
		}
	}
	// Each start of a node opens a FileStorage on its disk, which its host
	// closes on stop. A disk that does not reopen is a violation. Nodes start
	// only on this goroutine: the nemesis restarts them in line.
	var reopenErrs []string
	open := func(_ raft.GroupID, id types.NodeID) raft.Storage {
		st, err := raft.OpenFileStorageOn(disks[id], filepath.Join(dir, fmt.Sprintf("wal-%d", id)))
		if err != nil {
			reopenErrs = append(reopenErrs, fmt.Sprintf("replay: S%d did not reopen its disk: %v", id, err))
			return nil
		}
		return st
	}

	r := kvstore.NewReplicated(cluster.Options{
		N:                  opt.Nodes,
		Latency:            opt.Latency,
		Jitter:             opt.Jitter,
		ElectionTimeoutMin: opt.ElectionTimeoutMin,
		Ablation:           opt.Ablation,
		Seed:               sched.Seed,
		StorageFor:         open,
		SnapshotThreshold:  opt.snapThreshold(),
	})
	defer r.Stop()
	c := r.Cluster
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		return nil, fmt.Errorf("chaos: cluster never elected an initial leader: %w", err)
	}

	// The schedule clock starts here.
	env := &liveEnv{MemNet: c.Net, c: c, disks: disks, rng: rand.New(rand.NewSource(sched.Seed)),
		ids: types.Range(1, types.NodeID(opt.Nodes)).Copy(), start: time.Now()}
	mon := newMonitor(env)
	stopSampling := mon.startSampling()

	// Concurrent scripted clients, one kvstore session each (per-client
	// sequence numbers are what make retried requests idempotent).
	hist := &recorder{}
	var wg sync.WaitGroup
	for ci, script := range sched.Scripts {
		wg.Add(1)
		go func(ci int, script []ClientOp) {
			defer wg.Done()
			runClient(r.NewClient(), hist, ci, script, env.start, opt)
		}(ci, script)
	}

	// Clients and monitor are goroutines: no per-quantum work for the loop.
	x := newNemesis(env, 0, opt.ElectionTimeoutMin)
	idle := func() bool { return false }
	x.run(sched.Events, ticksOf(opt.Duration), idle, false)
	wg.Wait()
	rep.Ops, rep.Timeouts = hist.counts()
	if w := x.finish(opt.SettleTimeout, idle); w != "" {
		rep.Warnings = append(rep.Warnings, w)
	}
	stopSampling()

	streams := make(map[types.NodeID][]raft.ApplyMsg, opt.Nodes)
	for _, id := range env.ids {
		rep.Faults += disks[id].Injected()
		streams[id] = c.Applied(id)
		rep.final = append(rep.final, env.Observe(id))
	}
	rep.Stats = mon.stats()
	rep.Violations = append(rep.Violations, mon.report()...)
	rep.Violations = append(rep.Violations, checkAppliedStreams(streams, opt.Nodes)...)
	rep.Violations = append(rep.Violations, checkLinearizable(hist.snapshot())...)
	rep.Violations = append(rep.Violations, reopenErrs...)
	return rep, nil
}

// recorder collects the concurrent history.
type recorder struct {
	mu       sync.Mutex
	events   linear.History // guarded by mu
	ops      int            // guarded by mu
	timeouts int            // guarded by mu
}

func (rc *recorder) record(ci int, op ClientOp, call, ret int64, out kvstore.Result, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ops++
	if err != nil {
		rc.timeouts++
	}
	// A timed-out write's fate is unknown, as kvstore.Session marks it.
	rc.events = record(rc.events, ci, op, call, ret, out, err, op.Op != kvstore.OpGet)
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

// runClient walks one script until the horizon, recording every operation.
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
		var out kvstore.Result
		var err error
		if op.FastRead {
			out.Value, out.Found, err = cl.FastGetMode(op.Key, op.Via, opt.OpTimeout)
		} else {
			out, err = cl.Do(op.Op, op.Key, op.Value, op.Old, opt.OpTimeout)
		}
		hist.record(ci, op, call, int64(time.Since(start)), out, err)
	}
}

// record appends op's history event: a completed one; timed out, an
// outcome-unknown (Maybe) event when the op may still take effect — a Put
// whose ack was lost may still have committed, and the checker must be
// allowed to place it — and nothing for a read, which has no effect.
func record(h linear.History, ci int, op ClientOp, call, ret int64, out kvstore.Result, err error, maybe bool) linear.History {
	e := linear.Event{Client: ci, Op: op.Op, Key: op.Key, Value: op.Value, Old: op.Old, Call: call}
	switch {
	case err == nil:
		e.Out, e.Return = out, ret
	case maybe:
		e.Maybe = true
	default:
		return h
	}
	return append(h, e)
}
