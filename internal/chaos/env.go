package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/raft/sim"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// Env is the cluster as the chaos harness sees it: a clock, one consistent
// look at a node, and the handles the nemesis pulls. What is the same for a
// live cluster and for the deterministic simulator — the event executor, the
// sampled oracles, convergence, the epilogue, the run loop — is written once
// against it. The method set is *sim.Cluster's; time is in schedule
// milliseconds (simTick) on both sides. What is deliberately not here, and
// why, is in DESIGN.md ("Chaos: one harness, two runtimes").
type Env interface {
	// Step advances Now one quantum: the simulator steps every node, a live
	// cluster lets a millisecond pass.
	Now() int64
	Step()

	// IDs lists every node of the schedule, up or down, ascending; Leader is
	// the healthy leader at the highest term.
	IDs() []types.NodeID
	Observe(id types.NodeID) Sample
	Leader() (types.NodeID, bool)

	// Isolate cuts id off from every node of the schedule, crashed ones
	// included: a node restarted mid-isolation comes back on the far side.
	Partition(a, b []types.NodeID)
	Heal()
	Isolate(id types.NodeID)
	BlockOneWay(a, b types.NodeID)
	SetDropRate(p float64)

	// CrashTorn and CrashWound arm a storage fault and take the node down at
	// most grace quanta later, sooner if it trips over the fault and
	// fail-stops. Restart boots a crashed or fail-stopped node from its disk
	// and leaves a healthy one alone. ClearFaults disarms faults not yet
	// tripped. WipeStorage destroys a down node's durable state.
	Crash(id types.NodeID)
	CrashTorn(id types.NodeID, grace int64)
	CrashWound(id types.NodeID, grace int64)
	Restart(id types.NodeID)
	ClearFaults(id types.NodeID)
	StallDisk(id types.NodeID, quanta int64)
	WipeStorage(id types.NodeID)

	// Requests made at node id, all best effort: a rejection (not leader, R2,
	// R3, transfer in progress) is an outcome the oracles observe.
	ProposeConfig(id types.NodeID, members types.NodeSet) (int, types.Time, error)
	TransferLeader(id, to types.NodeID) error
}

// Sample is one consistent view of one node. Live it is a single
// Node.Snapshot() call, so fields checked against each other (term and role,
// term and commit) never come from different protocol steps and a torn read
// cannot fabricate a violation. Of a crashed or fail-stopped node only Alive
// (false) means anything.
type Sample struct {
	Alive bool
	// Incarnation identifies one boot of the node, compared for equality
	// only: a restart legitimately resets the commit index and the counters.
	Incarnation any
	Term        types.Time
	Role        raft.Role
	Commit      int
	Members     types.NodeSet
	Counters    raft.Counters
}

// liveEnv is a cluster.Cluster over fault-injectable disks as an Env. The
// nemesis goroutine and the monitor goroutine both call it. The network
// faults are the cluster network's own: its Isolate cuts a node off from
// every node that ever joined, crashed ones included.
type liveEnv struct {
	*transport.MemNet
	c     *cluster.Cluster
	disks map[types.NodeID]*raft.FaultFS
	rng   *rand.Rand // the torn crashes' cuts (the nemesis goroutine's alone)
	ids   []types.NodeID
	start time.Time
}

func (l *liveEnv) Now() int64 { return int64(time.Since(l.start) / simTick) }

// Step sleeps to the next quantum boundary (not at all after a slow nemesis
// action: planned events run late, never out of order).
func (l *liveEnv) Step() {
	time.Sleep(time.Until(l.start.Add(time.Duration(l.Now()+1) * simTick)))
}

func (l *liveEnv) IDs() []types.NodeID { return l.ids }

// Observe names the incarnation by the *raft.Node it sampled, not by counting
// restarts: a sample of the old node taken while the nemesis restarts it must
// not be filed under the new one.
func (l *liveEnv) Observe(id types.NodeID) Sample {
	n := l.c.Node(id)
	if n == nil {
		return Sample{}
	}
	s := n.Snapshot()
	return Sample{
		Alive: s.Err == nil, Incarnation: n, Term: s.Term, Role: s.Role,
		Commit: s.CommitIndex, Members: s.Members, Counters: s.Counters,
	}
}

func (l *liveEnv) Leader() (types.NodeID, bool) {
	if n := l.c.Leader(); n != nil {
		return n.ID(), true
	}
	return types.NoNode, false
}

func (l *liveEnv) Crash(id types.NodeID) { l.c.CrashNode(id) }

func (l *liveEnv) CrashTorn(id types.NodeID, grace int64) {
	l.disks[id].CutAfter(l.rng.Intn(sim.TornBytes))
	l.crashAfter(id, grace)
}

func (l *liveEnv) CrashWound(id types.NodeID, grace int64) {
	l.disks[id].FailNextWrite(fmt.Errorf("chaos: injected write error on S%d", id))
	l.crashAfter(id, grace)
}

// crashAfter gives the node grace quanta to trip over the fault just armed
// (exercising the fail-stop path), then crashes it the hard way regardless.
func (l *liveEnv) crashAfter(id types.NodeID, grace int64) {
	if n := l.c.Node(id); n != nil {
		// Not time.After: under go 1.22 its timer outlives a node that
		// fail-stops early.
		timer := time.NewTimer(time.Duration(grace) * simTick)
		select {
		case <-n.Done():
		case <-timer.C:
		}
		timer.Stop()
	}
	l.c.CrashNode(id)
}

func (l *liveEnv) Restart(id types.NodeID) {
	if n := l.c.Node(id); n != nil {
		if n.Snapshot().Err == nil {
			return
		}
		l.c.CrashNode(id) // fail-stopped: clear the wreck away first
	}
	l.c.RestartNode(id, l.ids)
}

func (l *liveEnv) ClearFaults(id types.NodeID) { l.disks[id].Clear() }

// StallDisk makes every write on the node sleep until the stall is lifted,
// quanta from now (the epilogue's ClearFaults lifts it regardless).
func (l *liveEnv) StallDisk(id types.NodeID, quanta int64) {
	fs, d := l.disks[id], time.Duration(quanta)*simTick
	fs.SetStall(d)
	time.AfterFunc(d, func() { fs.SetStall(0) })
}

// WipeStorage does nothing live. The hook exists — every node keeps its WAL
// on its own FaultFS disk (l.disks), which a wipe could swap for a blank one
// while the node is down, as the simulator does (ROADMAP item 3) — but no
// live schedule uses it yet: multi-group wipe schedules replay in RunSim. A
// live run of a wipe schedule skips the wipe, so its teeth test would
// (correctly) fail to find the violation rather than pass vacuously.
func (l *liveEnv) WipeStorage(types.NodeID) {}

var errNodeDown = errors.New("chaos: node is down")

func (l *liveEnv) ProposeConfig(id types.NodeID, members types.NodeSet) (int, types.Time, error) {
	if n := l.c.Node(id); n != nil {
		return n.ProposeConfig(members)
	}
	return 0, 0, errNodeDown
}

func (l *liveEnv) TransferLeader(id, to types.NodeID) error {
	if n := l.c.Node(id); n != nil {
		return n.TransferLeader(to)
	}
	return errNodeDown
}
