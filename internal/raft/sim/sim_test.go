package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// stepUntil advances the cluster until cond holds, failing after maxTicks.
func stepUntil(t *testing.T, s *Cluster, maxTicks int, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < maxTicks; i++ {
		if cond() {
			return
		}
		s.Step()
	}
	t.Fatalf("condition %q not reached within %d ticks", what, maxTicks)
}

// waitLeader steps until some node is leader and returns it.
func waitLeader(t *testing.T, s *Cluster, maxTicks int) types.NodeID {
	t.Helper()
	var leader types.NodeID
	stepUntil(t, s, maxTicks, "leader elected", func() bool {
		id, ok := s.Leader()
		leader = id
		return ok
	})
	return leader
}

func TestSimElectsAndReplicates(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 1})
	leader := waitLeader(t, s, 1000)

	var lastIdx int
	for i := 0; i < 5; i++ {
		idx, _, err := s.Propose(leader, []byte(fmt.Sprintf("cmd-%d", i)))
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		lastIdx = idx
	}
	stepUntil(t, s, 1000, "all nodes committed", func() bool {
		for _, id := range s.IDs() {
			if s.CommitIndex(id) < lastIdx {
				return false
			}
		}
		return true
	})
	// Logs agree entry-for-entry over the committed prefix.
	for _, id := range s.IDs() {
		for i := 1; i <= lastIdx; i++ {
			a, b := s.Entry(s.IDs()[0], i), s.Entry(id, i)
			if a.Term != b.Term || !bytes.Equal(a.Command, b.Command) {
				t.Fatalf("log divergence at index %d between S%d and S%d", i, s.IDs()[0], id)
			}
		}
	}
}

// runScripted drives one fixed nemesis schedule and returns the journal.
// Everything it does is a deterministic function of the seed.
func runScripted(seed int64) []byte {
	s := New(Options{Nodes: 5, Seed: seed, LatencyJitterTicks: 3})
	propose := func(tag int) {
		if id, ok := s.Leader(); ok {
			if idx, _, err := s.Propose(id, []byte(fmt.Sprintf("op-%d", tag))); err == nil {
				s.Journalf("client propose op-%d -> S%d idx=%d", tag, id, idx)
			}
		}
	}
	for tick := 0; tick < 1200; tick++ {
		switch tick {
		case 200:
			if id, ok := s.Leader(); ok {
				s.Isolate(id)
			}
		case 400:
			s.Heal()
		case 500:
			s.CrashTorn(2, 5)
		case 600:
			s.SetDropRate(0.2)
		case 800:
			s.SetDropRate(0)
			s.Restart(2)
		case 900:
			s.Crash(4)
		case 1000:
			s.Restart(4)
		}
		if tick%50 == 17 {
			propose(tick)
		}
		s.Step()
	}
	return append([]byte(nil), s.Journal()...)
}

func TestSimDeterminism(t *testing.T) {
	a := runScripted(42)
	b := runScripted(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different journals:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("journal is empty; the scripted run did nothing observable")
	}
}

func TestSimFailStopAndRecover(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 7})
	leader := waitLeader(t, s, 1000)

	// Arm a write fault; the next persist (our proposal) must fail-stop the
	// leader and surface the error to the proposer.
	s.CrashWound(leader, 1_000_000) // doom far in the future: only the fault matters
	if _, _, err := s.Propose(leader, []byte("doomed")); err == nil {
		t.Fatal("propose on wounded leader succeeded; want fail-stop error")
	}
	if s.Alive(leader) {
		t.Fatal("leader still alive after injected persist failure")
	}
	if s.FailStopErr(leader) == nil {
		t.Fatal("fail-stop cause not recorded")
	}

	// The survivors re-elect; the wounded node restarts and rejoins.
	var next types.NodeID
	stepUntil(t, s, 2000, "new leader", func() bool {
		id, ok := s.Leader()
		next = id
		return ok && id != leader
	})
	s.Restart(leader)
	idx, _, err := s.Propose(next, []byte("after-recovery"))
	if err != nil {
		t.Fatalf("propose after recovery: %v", err)
	}
	stepUntil(t, s, 2000, "restarted node caught up", func() bool {
		return s.CommitIndex(leader) >= idx
	})
}

func TestSimMinorityLeaderCannotCommit(t *testing.T) {
	s := New(Options{Nodes: 5, Seed: 3})
	old := waitLeader(t, s, 1000)

	// Cut the leader off and propose on it: the entry must never commit
	// there, and the majority side must elect a fresh leader.
	s.Isolate(old)
	idx, _, err := s.Propose(old, []byte("stranded"))
	if err != nil {
		t.Fatalf("propose on isolated leader: %v", err)
	}
	var next types.NodeID
	stepUntil(t, s, 3000, "majority elected new leader", func() bool {
		id, ok := s.Leader()
		next = id
		return ok && id != old
	})
	if s.CommitIndex(old) >= idx {
		t.Fatal("isolated minority leader advanced its commit index")
	}

	// After healing, everyone converges on the majority's history.
	s.Heal()
	idx2, _, err := s.Propose(next, []byte("settled"))
	if err != nil {
		t.Fatalf("propose on new leader: %v", err)
	}
	stepUntil(t, s, 3000, "cluster converged", func() bool {
		for _, id := range s.IDs() {
			if s.CommitIndex(id) < idx2 {
				return false
			}
		}
		return true
	})
	for _, id := range s.IDs() {
		e := s.Entry(id, idx2)
		if !bytes.Equal(e.Command, []byte("settled")) {
			t.Fatalf("S%d has wrong entry at %d after heal", id, idx2)
		}
	}
}

// TestSimSlowDiskDeterminism: with per-write delays on, the whole run is
// still a pure function of the seed.
func TestSimSlowDiskDeterminism(t *testing.T) {
	run := func() []byte {
		s := New(Options{Nodes: 5, Seed: 11, DiskDelayTicks: 3})
		for tick := 0; tick < 800; tick++ {
			switch tick {
			case 300:
				if id, ok := s.Leader(); ok {
					s.StallDisk(id, 60)
				}
			case 450:
				s.Crash(2)
			case 500:
				s.Restart(2)
			}
			if id, ok := s.Leader(); ok && tick%20 == 7 {
				s.Propose(id, []byte(fmt.Sprintf("op-%d", tick)))
			}
			s.Step()
		}
		return append([]byte(nil), s.Journal()...)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different journals with disk delays on")
	}
}

// TestSimNothingCommitsAheadOfTheDisk: while a majority's disks are stalled
// nothing commits and no replica's stable index moves; a crash then loses
// the in-flight writes and no committed entry with them.
func TestSimNothingCommitsAheadOfTheDisk(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 5, DiskDelayTicks: 2})
	leader := waitLeader(t, s, 1000)
	idx, _, err := s.Propose(leader, []byte("settled"))
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, s, 1000, "first entry everywhere", func() bool {
		for _, id := range s.IDs() {
			if s.CommitIndex(id) < idx || s.StableIndex(id) < idx {
				return false
			}
		}
		return true
	})
	base := s.CommitIndex(leader)
	for _, id := range s.IDs() {
		s.StallDisk(id, 10) // shorter than an election interval: no step-down
	}
	if _, _, err := s.Propose(leader, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Step()
		for _, id := range s.IDs() {
			if got := s.CommitIndex(id); got > base {
				t.Fatalf("S%d committed %d with every disk stalled (base %d)", id, got, base)
			}
			if got := s.StableIndex(id); got > base {
				t.Fatalf("S%d stable index %d with its disk stalled (base %d)", id, got, base)
			}
		}
	}
	// Power-cycle everyone mid-write: the in-flight entry was never acked,
	// so losing it is legal, and the settled one must survive.
	for _, id := range s.IDs() {
		s.Crash(id)
	}
	for _, id := range s.IDs() {
		s.Restart(id)
		if got := s.LastIndex(id); got < idx {
			t.Fatalf("S%d recovered %d entries, lost the committed one at %d", id, got, idx)
		}
	}
}

// TestSimEarlyStableMutantLosesCommits is the EarlyStable mutant's teeth at the
// sim level: reporting Stable before the write lands lets an entry commit
// that no disk holds, and a power cycle loses it.
func TestSimEarlyStableMutantLosesCommits(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 5, DiskDelayTicks: 2, EarlyStable: true})
	leader := waitLeader(t, s, 1000)
	for i := 0; i < 20; i++ {
		s.Step() // let the election's own writes land: every disk idle
	}
	for _, id := range s.IDs() {
		s.StallDisk(id, 10)
	}
	idx, _, err := s.Propose(leader, []byte("acked-not-durable"))
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, s, 9, "the mutant commits on stalled disks", func() bool {
		return s.CommitIndex(leader) >= idx
	})
	for _, id := range s.IDs() {
		s.Crash(id)
	}
	lost := 0
	for _, id := range s.IDs() {
		s.Restart(id)
		if s.LastIndex(id) < idx {
			lost++
		}
	}
	if lost < 2 {
		t.Fatalf("only %d of 3 replicas lost the committed entry; the mutant should have no durable majority", lost)
	}
}

// TestSimStalledLeaderIsReplaced: a leader whose disk stalls for several
// election intervals steps down, a healthy replica takes over and commits,
// and the stalled node rejoins as a follower once its disk answers.
func TestSimStalledLeaderIsReplaced(t *testing.T) {
	s := New(Options{Nodes: 3, Seed: 9, DiskDelayTicks: 1})
	old := waitLeader(t, s, 1000)
	if _, _, err := s.Propose(old, []byte("before")); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, s, 200, "first commit", func() bool { return s.CommitIndex(old) >= 2 })
	s.StallDisk(old, 300)
	if _, _, err := s.Propose(old, []byte("stuck")); err != nil {
		t.Fatal(err)
	}
	var next types.NodeID
	stepUntil(t, s, 150, "a new leader within 3 election intervals of the step-down", func() bool {
		id, ok := s.Leader()
		next = id
		return ok && id != old
	})
	if got := s.Driver(old).Counters().StepDowns; got != 1 {
		t.Fatalf("stalled leader's StepDowns = %d, want 1", got)
	}
	idx, _, err := s.Propose(next, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	stepUntil(t, s, 100, "commits resume on the healthy majority", func() bool {
		return s.CommitIndex(next) >= idx
	})
	stepUntil(t, s, 600, "the stalled node rejoins and catches up", func() bool {
		_, role, lead := s.Status(old)
		return role == raftcore.Follower && lead == next && s.CommitIndex(old) >= idx
	})
}

// TestEveryEventKindFolds: every event kind folds into exactly one Counters
// field, by one, no two kinds into the same field, and every field but the
// driver's own write counts has a kind; the five kinds the journal records
// render today's lines, and no other kind renders one.
func TestEveryEventKindFolds(t *testing.T) {
	table := map[raftcore.EventKind]struct {
		field string
		line  string // journal line of S3's event with Peer S2; "" = not journaled
	}{
		raftcore.EventElection:         {"Elections", ""},
		raftcore.EventPreVoteRound:     {"PreVoteRounds", "S3 prevote round"},
		raftcore.EventPreVoteWon:       {"PreVotesWon", ""},
		raftcore.EventTimeoutCampaign:  {"TimeoutElections", "S3 campaign (timeout)"},
		raftcore.EventTransferCampaign: {"TransferElections", "S3 campaign (transfer)"},
		raftcore.EventTermBump:         {"TermBumps", ""},
		raftcore.EventStepDown:         {"StepDowns", "S3 step-down (no quorum)"},
		raftcore.EventTransferStarted:  {"TransfersStarted", "S3 transfer -> S2"},
		raftcore.EventTransferAborted:  {"TransfersAborted", ""},
		raftcore.EventReadBarrier:      {"ReadBarriers", ""},
		raftcore.EventReadCoalesced:    {"ReadsCoalesced", ""},
		raftcore.EventLeaseRead:        {"LeaseReads", ""},
	}
	folded := map[string]bool{}
	for k := raftcore.EventKind(0); k < raftcore.NumEventKinds; k++ {
		row, ok := table[k]
		if !ok {
			t.Errorf("event kind %d has no row", k)
			continue
		}
		var c raftcore.Counters
		c.Fold(k)
		v := reflect.ValueOf(c)
		var moved []string
		for i := 0; i < v.NumField(); i++ {
			if n := v.Field(i).Uint(); n != 0 {
				moved = append(moved, fmt.Sprintf("%s+%d", v.Type().Field(i).Name, n))
			}
		}
		if want := []string{row.field + "+1"}; !reflect.DeepEqual(moved, want) {
			t.Errorf("folding kind %d moved %v, want %v", k, moved, want)
		}
		if folded[row.field] {
			t.Errorf("two kinds fold into %s", row.field)
		}
		folded[row.field] = true
		if got := journalLine(3, raftcore.Event{Kind: k, Peer: 2}); got != row.line {
			t.Errorf("kind %d journals %q, want %q", k, got, row.line)
		}
	}
	if len(table) != int(raftcore.NumEventKinds) {
		t.Errorf("%d rows for %d event kinds", len(table), raftcore.NumEventKinds)
	}
	for i := 0; i < reflect.TypeOf(raftcore.Counters{}).NumField(); i++ {
		name := reflect.TypeOf(raftcore.Counters{}).Field(i).Name
		if !folded[name] && name != "EntryWrites" && name != "SnapshotWrites" {
			t.Errorf("Counters.%s has no event kind folding into it", name)
		}
	}
}

// TestCompactionBoundsLiveHeap is the memory bound of the compaction path: a
// 3-node cluster with SnapshotThreshold 1 000, fed 100-byte commands, keeps a
// live heap bounded by its configuration, not by its history. Each node
// retains at most the threshold's entries plus one 4 096-entry chunk of the
// core's log (raftcore's entryLog drops only whole chunks, so the retained
// window swings by up to a chunk), and a retained entry costs a node at most
// entryCost: its LogEntry (64 B) and command (100 B) in the core, and its
// frame on the node's disk, whose contents grow by doubling (2 × ~110 B).
// The live heap after a GC, less the heap before the cluster was built and
// less the journal (the simulator's record of the run, which grows with it by
// design), must sit below (threshold + chunk) × nodes × entryCost = 6.1 MB at
// N = 10 000 entries and again at 4N = 40 000.
func TestCompactionBoundsLiveHeap(t *testing.T) {
	const (
		nodes, threshold, chunk, cmdLen = 3, 1000, 4096, 100
		entryCost                       = 64 + cmdLen + 2*110 + 16 // with slack
		n                               = 10000
		bound                           = (threshold + chunk) * nodes * entryCost
	)
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	s := New(Options{Nodes: nodes, Seed: 1, SnapshotThreshold: threshold})
	s.OnSnapshot(func(types.NodeID, int) []byte { return []byte("image") })
	proposed := 0
	reading := func(entries int) int64 {
		t.Helper()
		stepUntil(t, s, 100*entries, fmt.Sprintf("%d entries applied everywhere", entries), func() bool {
			if leader, ok := s.Leader(); ok {
				for k := 0; k < 50 && proposed < entries; k++ {
					if _, _, err := s.Propose(leader, make([]byte, cmdLen)); err != nil {
						break
					}
					proposed++
				}
			}
			for _, id := range s.IDs() {
				if s.CommitIndex(id) < entries {
					return false
				}
			}
			return true
		})
		return liveHeap() - before - int64(cap(s.Journal()))
	}
	for _, entries := range []int{n, 4 * n} {
		if got := reading(entries); got > bound {
			t.Errorf("live heap %d B at %d entries, above the bound %d B", got, entries, bound)
		} else {
			t.Logf("live heap %d B at %d entries (bound %d B)", got, entries, bound)
		}
	}
	for _, id := range s.IDs() {
		if base := s.SnapshotIndex(id); base == 0 {
			t.Errorf("S%d never compacted", id)
		}
	}
}
