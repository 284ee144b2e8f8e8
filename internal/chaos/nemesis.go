package chaos

import (
	"fmt"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// simTick is the schedule-time quantum: one Env step (one simulator tick)
// per millisecond of scheduled time.
const simTick = time.Millisecond

// crashGraceTicks bounds how long an armed torn/wound fault may wait for a
// write before the hard crash lands.
const crashGraceTicks = 50

// ticksOf converts a schedule offset to quanta (at least 1).
func ticksOf(d time.Duration) int64 {
	t := int64(d / simTick)
	if t < 1 {
		t = 1
	}
	return t
}

// nemesis executes planned events against an Env and runs the loop around
// them, on one goroutine.
type nemesis struct {
	env   Env
	group raft.GroupID // whose replay this is: EvWALWipe is group-targeted
	et    int64        // election interval in quanta

	far        []types.NodeID // far side of the active leader partition
	partLeader types.NodeID   // the leader it cut off (NoNode = none active)

	// A drop-leader reconfiguration in flight: the membership the leader must
	// transfer out of before the change is proposed.
	dropPending  bool
	dropTarget   types.NodeSet
	dropDeadline int64

	// Premises: how many quanta they have held the plan back (every later
	// event fires that much later), when the head event started waiting for
	// its own (0: it is not waiting), PremStuck's run of one commit index
	// under one term, and what the run's premises did (Report.Premises).
	lag         int64
	waitSince   int64
	stuckSince  int64
	stuckTerm   types.Time
	stuckCommit int
	premises    []string

	// What the sim-only oracles hear from the executor (no-ops live): an
	// event is about to run, so the window is no longer clean; this node's
	// disk was just frozen; a hand-off was asked for, so a healthy leader is
	// about to be deposed on purpose; a premise line for the journal.
	onEvent   func()
	onStall   func(types.NodeID)
	onHandoff func()
	onPremise func(line string)
}

func newNemesis(env Env, group raft.GroupID, electionTimeout time.Duration) *nemesis {
	return &nemesis{
		env: env, group: group, et: ticksOf(electionTimeout), partLeader: types.NoNode,
		onEvent: func() {}, onStall: func(types.NodeID) {}, onHandoff: func() {}, onPremise: func(string) {},
	}
}

// notReached marks the Report.Premises line of an event the run never fired:
// its premise never held, or waiting pushed it past the run's end.
const notReached = "not reached: "

// reached reports whether e may fire now: it waits for no premise, or its
// premise holds. The first quantum it waits, and the one its premise holds,
// are noted; firing moves lag to how late e fires.
func (x *nemesis) reached(e Event) bool {
	if e.Wait.Kind == PremNone {
		return true
	}
	now := x.env.Now()
	if x.waitSince == 0 {
		x.waitSince = now
		x.note("wait: %s", e)
	}
	if !x.holds(e.Wait) {
		return false
	}
	x.note("reached after %d quanta: %s", now-x.waitSince, e.Wait)
	x.waitSince, x.stuckSince = 0, 0
	x.lag = max(x.lag, now-ticksOf(e.At))
	return true
}

// note records a premise line, stamped with the quantum it was seen in.
func (x *nemesis) note(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	x.premises = append(x.premises, fmt.Sprintf("t=%06d %s", x.env.Now(), line))
	x.onPremise(line)
}

// holds evaluates a premise on what Env.Observe shows now.
func (x *nemesis) holds(p Premise) bool {
	switch p.Kind {
	case PremLeads:
		for _, id := range p.Nodes {
			if s := x.env.Observe(id); s.Alive && s.Role == raft.Leader && s.Term >= p.Term {
				return true
			}
		}
		return false
	case PremWriting:
		s := x.env.Observe(p.Nodes[0])
		return s.Alive && s.Writing
	case PremLanded:
		return !x.env.Observe(p.Nodes[0]).Holding
	case PremStuck:
		s := x.env.Observe(p.Nodes[0])
		if !s.Alive || s.Role != raft.Leader || s.Last <= s.Commit {
			x.stuckSince = 0
			return false
		}
		if x.stuckSince == 0 || s.Term != x.stuckTerm || s.Commit != x.stuckCommit {
			x.stuckSince, x.stuckTerm, x.stuckCommit = x.env.Now(), s.Term, s.Commit
		}
		return x.env.Now()-x.stuckSince >= ticksOf(p.For)
	default:
		panic(fmt.Sprintf("chaos: executor saw unknown premise kind %d", p.Kind))
	}
}

// checkKeyBound enforces the linearizability checker's limit (its bitmask
// search caps per-key histories; the generator deals keys round-robin for it).
func checkKeyBound(scripts [][]ClientOp) error {
	perKey := map[string]int{}
	for _, script := range scripts {
		for _, op := range script {
			perKey[op.Key]++
		}
	}
	for k, cnt := range perKey {
		if cnt > 62 {
			return fmt.Errorf("chaos: key %q would see %d ops, beyond the checker's 62-event bound; raise Keys or lower the workload", k, cnt)
		}
	}
	return nil
}

// run is the one loop of a chaos run: step the clock, fire the events that
// came due and whose premises hold (in schedule order: a slow action or a
// premise delays later ones, never reorders them), push a pending drop-leader
// hand-off one step, then let the runtime do its per-quantum work (the
// simulator ticks its clients and oracles; a live run's are goroutines) and
// report whether client work is still in flight. With settle set the loop
// ends early, returning true, once the cluster has been converged and idle
// for three quanta in a row. An event still waiting for its premise at until,
// or pushed past until by earlier waits, is noted as not reached.
func (x *nemesis) run(events []Event, until int64, quantum func() (busy bool), settle bool) bool {
	calm := 0
	for x.env.Now() < until {
		x.env.Step()
		for ; len(events) > 0 && ticksOf(events[0].At)+x.lag <= x.env.Now() && x.reached(events[0]); events = events[1:] {
			x.apply(events[0])
		}
		x.driveReconfig()
		busy := quantum()
		if !settle {
			continue
		}
		if busy || !x.converged() {
			calm = 0
		} else if calm++; calm >= 3 {
			return true
		}
	}
	for i, e := range events {
		if i == 0 && x.waitSince != 0 {
			x.note("premise %s%s, waited from t=%06d", notReached, e, x.waitSince)
			x.waitSince = 0
		} else {
			x.note("event %s%s, due at t=%06d", notReached, e, ticksOf(e.At)+x.lag)
		}
	}
	return false
}

// finish is the fixed epilogue every run ends with: heal the network, repair
// every disk, restart every node that is down or fail-stopped, then run on
// until every member agrees on the commit index. Not getting there in time
// is a liveness warning, not a safety violation.
func (x *nemesis) finish(timeout time.Duration, quantum func() bool) (warning string) {
	x.env.Heal()
	x.env.SetDropRate(0)
	for _, id := range x.env.IDs() {
		x.env.ClearFaults(id)
		x.env.Restart(id)
	}
	if !x.run(nil, x.env.Now()+ticksOf(timeout), quantum, true) {
		return fmt.Sprintf("cluster did not converge within %s of the run ending", timeout)
	}
	return ""
}

// converged reports whether every member of the leader's configuration is
// up and agrees with it on the commit index.
func (x *nemesis) converged() bool {
	lid, ok := x.env.Leader()
	if !ok {
		return false
	}
	l := x.env.Observe(lid)
	for _, id := range l.Members.Slice() {
		if s := x.env.Observe(id); !s.Alive || s.Commit != l.Commit {
			return false
		}
	}
	return true
}

func (x *nemesis) apply(e Event) {
	x.onEvent()
	switch e.Kind {
	case EvPartition:
		x.clearPartition()
		x.env.Partition(e.A, e.B)
	case EvPartitionLeader:
		x.partitionLeader(e.Keep)
	case EvHeal:
		x.clearPartition()
		x.env.Heal()
	case EvIsolate:
		x.clearPartition()
		x.env.Isolate(e.Node)
	case EvDropRate:
		x.env.SetDropRate(e.Rate)
	case EvCrash:
		switch e.Mode {
		case CrashClean:
			x.env.Crash(e.Node)
		case CrashTorn:
			x.env.CrashTorn(e.Node, crashGraceTicks)
		case CrashWound:
			x.env.CrashWound(e.Node, crashGraceTicks)
		default:
			panic(fmt.Sprintf("chaos: unknown crash mode %v", e.Mode))
		}
	case EvRestart:
		x.env.ClearFaults(e.Node)
		x.env.Restart(e.Node)
	case EvReconfigRemove, EvReconfigAdd, EvReconfigDropLeader:
		lid, ok := x.env.Leader()
		if !ok {
			return
		}
		members := x.env.Observe(lid).Members
		target := members.Remove(lid) // EvReconfigDropLeader
		switch {
		case e.Kind == EvReconfigAdd:
			target = members.Add(e.Node)
		case e.Kind == EvReconfigRemove:
			target = members.Remove(e.Node)
		case members.Len() <= 3:
			return // never drop the leader of a three-node configuration
		}
		if target.Len() == members.Len() {
			return // already applied, already absent, or the leader is no member
		}
		if !target.Contains(lid) {
			x.startDropLeader(target) // the change sheds the sitting leader: hand off first
			return
		}
		// Best effort, one shot: under faults the change may be rejected
		// (R2/R3) or never commit; both are outcomes the checkers observe.
		x.env.ProposeConfig(lid, target)
	case EvReconfigShed:
		x.shed()
	case EvPartialPartition:
		x.env.BlockOneWay(e.A[0], e.B[0])
	case EvIsolateLeader:
		x.clearPartition()
		if lid, ok := x.env.Leader(); ok {
			x.env.Isolate(lid)
		}
	case EvIsolateFollower:
		x.clearPartition()
		lid, ok := x.env.Leader()
		for _, id := range x.env.IDs() {
			if (!ok || id != lid) && x.env.Observe(id).Alive {
				x.env.Isolate(id)
				return
			}
		}
	case EvTransferLeader:
		if lid, ok := x.env.Leader(); ok && lid != e.Node {
			x.onHandoff()
			x.env.TransferLeader(lid, e.Node) // best effort; no-op on errors
		}
	case EvWALWipe:
		// Only the named group's replay executes the wipe; every other group
		// runs the identical nemesis without it and is the control arm.
		if e.Group == x.group {
			x.env.WipeStorage(e.Node)
		}
	case EvDeafenLeader:
		// Cut every inbound link to the current leader, leaving its outbound
		// side intact: it keeps heartbeating but hears no acks, so its lease
		// freshness is frozen at whatever was banked before the cut.
		if lid, ok := x.env.Leader(); ok {
			for _, id := range x.env.IDs() {
				if id != lid {
					x.env.BlockOneWay(id, lid)
				}
			}
		}
	case EvStallDisk:
		id := e.Node
		if id == types.NoNode {
			lid, ok := x.env.Leader()
			if !ok {
				return
			}
			id = lid
		}
		if !x.env.Observe(id).Alive {
			return
		}
		x.env.StallDisk(id, ticksOf(e.For))
		x.onStall(id)
	case EvHoldWrite:
		x.env.HoldWrite(e.Node)
	default:
		panic(fmt.Sprintf("chaos: executor saw unknown event kind %v", e.Kind))
	}
}

func (x *nemesis) clearPartition() {
	x.far, x.partLeader = nil, types.NoNode
}

// partitionLeader cuts the current leader plus keep followers (lowest IDs
// first, crashed nodes included so restarts come back on the same side)
// off from the rest of the cluster.
func (x *nemesis) partitionLeader(keep int) {
	x.clearPartition()
	lid, ok := x.env.Leader()
	if !ok {
		lid = x.env.IDs()[0] // no leader right now: cut the lowest ID off
	}
	near := []types.NodeID{lid}
	var far []types.NodeID
	for _, id := range x.env.IDs() {
		if id == lid {
			continue
		}
		if len(near) < 1+keep {
			near = append(near, id)
		} else {
			far = append(far, id)
		}
	}
	x.env.Partition(near, far)
	x.far = far
	if ok {
		x.partLeader = lid
	}
}

// shed asks the partitioned stale leader to remove one far-side node from
// the membership — the move R2/R3 must police. With the guards on, at most
// one such change is accepted and it cannot commit from the minority; with
// DisableR2 the second one shrinks the config until the minority becomes a
// quorum of it.
func (x *nemesis) shed() {
	if x.partLeader == types.NoNode {
		return
	}
	s := x.env.Observe(x.partLeader)
	if !s.Alive {
		return
	}
	for _, id := range x.far {
		if s.Members.Contains(id) {
			x.env.ProposeConfig(x.partLeader, s.Members.Remove(id))
			return
		}
	}
}

func (x *nemesis) startDropLeader(target types.NodeSet) {
	x.dropPending, x.dropTarget, x.dropDeadline = true, target, x.env.Now()+40*x.et
	x.onHandoff()
}

// driveReconfig advances a pending drop-leader reconfiguration one step per
// quantum: it proposes the change at whoever leads until a leader accepts it.
// A leader outside the target refuses and hands off into the surviving set (a
// TimeoutNow transfer instead of waiting out an election on the removed
// leader's silence), so the change lands at a leader that survives it.
func (x *nemesis) driveReconfig() {
	if !x.dropPending {
		return
	}
	if x.env.Now() > x.dropDeadline {
		x.dropPending = false // the run moved on (stacked reconfigs): give up
		return
	}
	lid, ok := x.env.Leader()
	if !ok {
		return
	}
	l := x.env.Observe(lid)
	if !l.Alive {
		return
	}
	if l.Members.Equal(x.dropTarget) {
		x.dropPending = false
		return
	}
	if _, _, err := x.env.ProposeConfig(lid, x.dropTarget); err == nil {
		x.dropPending = false
	}
	if !x.dropTarget.Contains(lid) {
		x.onHandoff() // the core is handing off; retried next quantum
	}
}
