package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// fakeEnv is a scripted cluster that records every action the executor
// takes on it (queries — Now, IDs, Observe, Leader — are answered from its
// fields and not recorded).
type fakeEnv struct {
	now     int64
	ids     []types.NodeID
	leader  types.NodeID // NoNode = nobody leads
	down    map[types.NodeID]bool
	members types.NodeSet // every node's configuration
	commit  map[types.NodeID]int
	propErr error // ProposeConfig's answer to a leader inside the target
	calls   []string
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		ids:     types.Range(1, 5).Copy(),
		leader:  2,
		down:    map[types.NodeID]bool{},
		members: types.Range(1, 5),
		commit:  map[types.NodeID]int{},
	}
}

func (f *fakeEnv) rec(format string, args ...any) {
	f.calls = append(f.calls, fmt.Sprintf(format, args...))
}

func (f *fakeEnv) Now() int64          { return f.now }
func (f *fakeEnv) Step()               { f.now++ }
func (f *fakeEnv) IDs() []types.NodeID { return f.ids }
func (f *fakeEnv) Leader() (types.NodeID, bool) {
	return f.leader, f.leader != types.NoNode
}
func (f *fakeEnv) Observe(id types.NodeID) Sample {
	s := Sample{Alive: !f.down[id], Role: raft.Follower, Members: f.members, Commit: f.commit[id]}
	if id == f.leader {
		s.Role = raft.Leader
	}
	return s
}
func (f *fakeEnv) Partition(a, b []types.NodeID)       { f.rec("Partition(%v|%v)", a, b) }
func (f *fakeEnv) Heal()                               { f.rec("Heal") }
func (f *fakeEnv) Isolate(id types.NodeID)             { f.rec("Isolate(S%d)", id) }
func (f *fakeEnv) BlockOneWay(a, b types.NodeID)       { f.rec("BlockOneWay(S%d->S%d)", a, b) }
func (f *fakeEnv) SetDropRate(p float64)               { f.rec("SetDropRate(%.2f)", p) }
func (f *fakeEnv) Crash(id types.NodeID)               { f.rec("Crash(S%d)", id) }
func (f *fakeEnv) CrashTorn(id types.NodeID, g int64)  { f.rec("CrashTorn(S%d,%d)", id, g) }
func (f *fakeEnv) CrashWound(id types.NodeID, g int64) { f.rec("CrashWound(S%d,%d)", id, g) }
func (f *fakeEnv) Restart(id types.NodeID)             { f.rec("Restart(S%d)", id) }
func (f *fakeEnv) ClearFaults(id types.NodeID)         { f.rec("ClearFaults(S%d)", id) }
func (f *fakeEnv) StallDisk(id types.NodeID, q int64)  { f.rec("StallDisk(S%d,%d)", id, q) }
func (f *fakeEnv) WipeStorage(id types.NodeID)         { f.rec("WipeStorage(S%d)", id) }
func (f *fakeEnv) ProposeConfig(id types.NodeID, members types.NodeSet) (int, types.Time, error) {
	f.rec("ProposeConfig(S%d,%v)", id, members.Slice())
	if !members.Contains(id) {
		return 0, 0, raft.ErrTransferInProgress // like the core: it hands off
	}
	return 0, 0, f.propErr
}
func (f *fakeEnv) TransferLeader(id, to types.NodeID) error {
	f.rec("TransferLeader(S%d->S%d)", id, to)
	return nil
}

// TestExecutorEveryEvent pins, for every event kind and crash mode, the
// exact sequence of Env actions the one executor takes — with a leader and
// without, partitionLeader's keep count, shed only under an active leader
// partition, the drop-leader hand-off (propose at the leader, which hands
// off, then again at the successor) — and what it tells the sim-only
// oracles. Both runtimes run this code; neither needs a cluster to test it.
func TestExecutorEveryEvent(t *testing.T) {
	ms := time.Millisecond
	kinds, modes := map[EventKind]bool{}, map[CrashMode]bool{} // what the table reaches
	apply := func(x *nemesis, e Event) {
		kinds[e.Kind] = true
		if e.Kind == EvCrash {
			modes[e.Mode] = true
		}
		x.apply(e)
	}
	events := func(es ...Event) func(*nemesis, *fakeEnv) {
		return func(x *nemesis, _ *fakeEnv) {
			for _, e := range es {
				apply(x, e)
			}
		}
	}
	noLeader := func(f *fakeEnv) { f.leader = types.NoNode }
	part := Event{Kind: EvPartitionLeader, Keep: 1}
	// dropLeader drives a leader-shedding change to its end: the change is
	// proposed every quantum, at the leader that hands off until leadership
	// lands in the surviving set, then there until it is accepted.
	dropLeader := func(e Event) func(*nemesis, *fakeEnv) {
		return func(x *nemesis, f *fakeEnv) {
			apply(x, e)
			x.driveReconfig()
			x.driveReconfig() // S2 still leads: asked again
			f.leader = 3      // the hand-off lands
			f.propErr = errors.New("R3: no entry committed in this term yet")
			x.driveReconfig() // rejected: retried next quantum
			f.propErr = nil
			x.driveReconfig()
			x.driveReconfig() // nothing pending any more
		}
	}
	dropped := []string{
		"handoff", // armed
		"ProposeConfig(S2,[S1 S3 S4 S5])", "handoff",
		"ProposeConfig(S2,[S1 S3 S4 S5])", "handoff",
		"ProposeConfig(S3,[S1 S3 S4 S5])",
		"ProposeConfig(S3,[S1 S3 S4 S5])",
	}

	cases := []struct {
		name string
		env  func(*fakeEnv) // departures from: S1..S5 all up and in the config, S2 leading
		run  func(*nemesis, *fakeEnv)
		want []string
	}{
		{"partition", nil, events(Event{Kind: EvPartition, A: []types.NodeID{1, 4}, B: []types.NodeID{2, 3, 5}}),
			[]string{"Partition([S1 S4]|[S2 S3 S5])"}},
		{"partition-leader keep=1", nil, events(part), []string{"Partition([S2 S1]|[S3 S4 S5])"}},
		{"partition-leader keep=2", nil, events(Event{Kind: EvPartitionLeader, Keep: 2}), []string{"Partition([S2 S1 S3]|[S4 S5])"}},
		{"partition-leader, no leader: lowest ID cut off", noLeader, events(part), []string{"Partition([S1 S2]|[S3 S4 S5])"}},
		{"heal", nil, events(Event{Kind: EvHeal}), []string{"Heal"}},
		{"isolate", nil, events(Event{Kind: EvIsolate, Node: 3}), []string{"Isolate(S3)"}},
		{"drop-rate", nil, events(Event{Kind: EvDropRate, Rate: 0.25}), []string{"SetDropRate(0.25)"}},
		{"crash clean", nil, events(Event{Kind: EvCrash, Node: 4, Mode: CrashClean}), []string{"Crash(S4)"}},
		{"crash torn", nil, events(Event{Kind: EvCrash, Node: 4, Mode: CrashTorn}), []string{"CrashTorn(S4,50)"}},
		{"crash wound", nil, events(Event{Kind: EvCrash, Node: 4, Mode: CrashWound}), []string{"CrashWound(S4,50)"}},
		{"restart", nil, events(Event{Kind: EvRestart, Node: 4}), []string{"ClearFaults(S4)", "Restart(S4)"}},

		{"reconfig-remove: one shot at the leader", nil, events(Event{Kind: EvReconfigRemove, Node: 4}),
			[]string{"ProposeConfig(S2,[S1 S2 S3 S5])"}},
		{"reconfig-remove, already absent", func(f *fakeEnv) { f.members = types.NewNodeSet(1, 2, 3, 5) },
			events(Event{Kind: EvReconfigRemove, Node: 4}), nil},
		{"reconfig-remove, no leader", noLeader, events(Event{Kind: EvReconfigRemove, Node: 4}), nil},
		{"reconfig-remove of the leader: hand off, then propose", nil, dropLeader(Event{Kind: EvReconfigRemove, Node: 2}), dropped},
		{"reconfig-add", func(f *fakeEnv) { f.members = types.NewNodeSet(1, 2, 3, 5) },
			events(Event{Kind: EvReconfigAdd, Node: 4}), []string{"ProposeConfig(S2,[S1 S2 S3 S4 S5])"}},
		{"reconfig-add, already a member", nil, events(Event{Kind: EvReconfigAdd, Node: 4}), nil},

		{"reconfig-shed, no leader partition", nil, events(Event{Kind: EvReconfigShed}), nil},
		{"reconfig-shed under a leader partition: first far-side member, at the cut-off leader", nil,
			events(part, Event{Kind: EvReconfigShed}),
			[]string{"Partition([S2 S1]|[S3 S4 S5])", "ProposeConfig(S2,[S1 S2 S4 S5])"}},
		{"reconfig-shed at the stale leader, not the current one", nil,
			func(x *nemesis, f *fakeEnv) {
				apply(x, part)
				f.leader, f.members = 4, types.NewNodeSet(1, 2, 4, 5) // the far side moved on; S3 already shed
				apply(x, Event{Kind: EvReconfigShed})
			},
			[]string{"Partition([S2 S1]|[S3 S4 S5])", "ProposeConfig(S2,[S1 S2 S5])"}},
		{"reconfig-shed, stale leader down", nil,
			func(x *nemesis, f *fakeEnv) {
				apply(x, part)
				f.down[2] = true
				apply(x, Event{Kind: EvReconfigShed})
			},
			[]string{"Partition([S2 S1]|[S3 S4 S5])"}},
		{"reconfig-shed after the partition healed", nil, events(part, Event{Kind: EvHeal}, Event{Kind: EvReconfigShed}),
			[]string{"Partition([S2 S1]|[S3 S4 S5])", "Heal"}},
		{"reconfig-shed after another cut replaced the leader partition", nil,
			events(part, Event{Kind: EvIsolate, Node: 5}, Event{Kind: EvReconfigShed}),
			[]string{"Partition([S2 S1]|[S3 S4 S5])", "Isolate(S5)"}},
		{"reconfig-shed, partition made with no leader", noLeader, events(part, Event{Kind: EvReconfigShed}),
			[]string{"Partition([S1 S2]|[S3 S4 S5])"}},

		{"partial-partition", nil, events(Event{Kind: EvPartialPartition, A: []types.NodeID{2}, B: []types.NodeID{3}}),
			[]string{"BlockOneWay(S2->S3)"}},
		{"isolate-leader", nil, events(Event{Kind: EvIsolateLeader}), []string{"Isolate(S2)"}},
		{"isolate-leader, no leader", noLeader, events(Event{Kind: EvIsolateLeader}), nil},
		{"isolate-follower: lowest live non-leader", nil, events(Event{Kind: EvIsolateFollower}), []string{"Isolate(S1)"}},
		{"isolate-follower skips the dead", func(f *fakeEnv) { f.down[1] = true }, events(Event{Kind: EvIsolateFollower}), []string{"Isolate(S3)"}},
		{"isolate-follower, no leader", noLeader, events(Event{Kind: EvIsolateFollower}), []string{"Isolate(S1)"}},
		{"transfer-leader", nil, events(Event{Kind: EvTransferLeader}), []string{"handoff", "TransferLeader(S2->S0)"}},
		{"transfer-leader, no leader", noLeader, events(Event{Kind: EvTransferLeader}), nil},

		{"reconfig-drop-leader: hand off, then propose", nil, dropLeader(Event{Kind: EvReconfigDropLeader}), dropped},
		{"reconfig-drop-leader, no leader", noLeader, events(Event{Kind: EvReconfigDropLeader}), nil},
		{"reconfig-drop-leader never shrinks below 3", func(f *fakeEnv) { f.members = types.NewNodeSet(1, 2, 3) },
			events(Event{Kind: EvReconfigDropLeader}), nil},
		{"reconfig-drop-leader, leader already outside the config", func(f *fakeEnv) { f.members = types.NewNodeSet(1, 3, 4, 5) },
			events(Event{Kind: EvReconfigDropLeader}), nil},
		{"reconfig-drop-leader given up after 40 election intervals", nil,
			func(x *nemesis, f *fakeEnv) {
				apply(x, Event{Kind: EvReconfigDropLeader})
				f.now += 40*x.et + 1
				x.driveReconfig()
				f.now = 0
				x.driveReconfig() // and it stays given up
			},
			[]string{"handoff"}},
		{"reconfig-drop-leader already in effect at the successor", nil,
			func(x *nemesis, f *fakeEnv) {
				apply(x, Event{Kind: EvReconfigDropLeader})
				f.leader, f.members = 3, types.NewNodeSet(1, 3, 4, 5)
				x.driveReconfig()
				x.driveReconfig()
			},
			[]string{"handoff"}},

		{"wal-wipe, this group's", nil, events(Event{Kind: EvWALWipe, Node: 3, Group: 1}), []string{"WipeStorage(S3)"}},
		{"wal-wipe, another group's: the control arm", nil, events(Event{Kind: EvWALWipe, Node: 3, Group: 0}), nil},
		{"deafen-leader: every inbound link, no outbound one", nil, events(Event{Kind: EvDeafenLeader}),
			[]string{"BlockOneWay(S1->S2)", "BlockOneWay(S3->S2)", "BlockOneWay(S4->S2)", "BlockOneWay(S5->S2)"}},
		{"deafen-leader, no leader", noLeader, events(Event{Kind: EvDeafenLeader}), nil},
		{"stall-disk on a named node", nil, events(Event{Kind: EvStallDisk, Node: 3, For: 30 * ms}), []string{"StallDisk(S3,30)", "stall(S3)"}},
		{"stall-disk on whoever leads", nil, events(Event{Kind: EvStallDisk, For: 30 * ms}), []string{"StallDisk(S2,30)", "stall(S2)"}},
		{"stall-disk on the leader, no leader", noLeader, events(Event{Kind: EvStallDisk, For: 30 * ms}), nil},
		{"stall-disk on a dead node", func(f *fakeEnv) { f.down[3] = true }, events(Event{Kind: EvStallDisk, Node: 3, For: 30 * ms}), nil},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeEnv()
			if tc.env != nil {
				tc.env(f)
			}
			x := newNemesis(f, 1, 15*ms)
			announced := 0
			x.onEvent = func() { announced++ }
			x.onStall = func(id types.NodeID) { f.rec("stall(S%d)", id) }
			x.onHandoff = func() { f.rec("handoff") }
			tc.run(x, f)
			if !reflect.DeepEqual(f.calls, tc.want) {
				t.Errorf("Env calls:\n got  %q\n want %q", f.calls, tc.want)
			}
			if announced == 0 {
				t.Error("onEvent never ran")
			}
		})
	}
	for k := EventKind(0); !strings.HasPrefix(k.String(), "event("); k++ {
		if !kinds[k] {
			t.Errorf("no case applies event kind %s", k)
		}
	}
	for m := CrashMode(0); !strings.HasPrefix(m.String(), "mode("); m++ {
		if !modes[m] {
			t.Errorf("no case applies crash mode %s", m)
		}
	}

	for name, e := range map[string]Event{
		"unknown event kind": {Kind: EvStallDisk + 1},
		"unknown crash mode": {Kind: EvCrash, Node: 4, Mode: CrashWound + 1},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("the executor ran an event it does not know instead of panicking")
				}
			}()
			newNemesis(newFakeEnv(), 0, 15*ms).apply(e)
		})
	}
}

// TestRunLoopAndEpilogue pins the one loop around the executor: events fire
// in schedule order in the first quantum at or past their offset (a clock
// that jumped — a blocking live action — makes them late, never reordered),
// and the epilogue heals, repairs and restarts everything, then settles only
// after three quanta in a row with the cluster converged and the clients
// idle.
func TestRunLoopAndEpilogue(t *testing.T) {
	ms := time.Millisecond
	f := newFakeEnv()
	x := newNemesis(f, 0, 15*ms)
	quanta := 0
	x.run([]Event{
		{At: 3 * ms, Kind: EvIsolate, Node: 1},
		{At: 3 * ms, Kind: EvHeal},
		{At: 5 * ms, Kind: EvIsolate, Node: 2},
		{At: 9 * ms, Kind: EvIsolate, Node: 3}, // past the horizon: never runs
	}, 8, func() bool {
		quanta++
		f.rec("quantum@%d", f.now)
		if f.now == 4 {
			f.now = 6 // the clock jumps over the third event's offset
		}
		return false
	}, false)
	want := []string{"quantum@1", "quantum@2", "Isolate(S1)", "Heal", "quantum@3", "quantum@4", "Isolate(S2)", "quantum@7", "quantum@8"}
	if !reflect.DeepEqual(f.calls, want) {
		t.Errorf("main phase:\n got  %q\n want %q", f.calls, want)
	}

	f.calls = nil
	f.commit[4] = 7 // S4 lags until the clients go idle
	busyUntil := f.now + 5
	warning := x.finish(time.Second, func() bool {
		if f.now == busyUntil {
			f.commit[4] = 0
		}
		return f.now < busyUntil
	})
	want = []string{"Heal", "SetDropRate(0.00)"}
	for id := 1; id <= 5; id++ {
		want = append(want, fmt.Sprintf("ClearFaults(S%d)", id), fmt.Sprintf("Restart(S%d)", id))
	}
	if !reflect.DeepEqual(f.calls, want) {
		t.Errorf("epilogue:\n got  %q\n want %q", f.calls, want)
	}
	if warning != "" || f.now != busyUntil+2 {
		t.Errorf("settled at quantum %d with warning %q, want quantum %d (the third calm one) and none", f.now, warning, busyUntil+2)
	}

	f.down[5] = true // a member that never comes back: no convergence
	if warning := x.finish(20*ms, func() bool { return false }); !strings.Contains(warning, "did not converge within 20ms") {
		t.Errorf("warning %q, want the convergence timeout", warning)
	}
}
