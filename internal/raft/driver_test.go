package raft

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// orderNode is one replica under TestDriverOrder: a real core and its Driver,
// with a shell and a disk that record every effect into the harness log in
// the order the driver produced it. No goroutines: the test is the scheduler.
type orderNode struct {
	h    *orderHarness
	id   types.NodeID
	core *raftcore.Core
	d    *Driver
	held bool // the driver's lock
	fail error
	now  bool // writes land inside the Ready that hands them out
}

type orderHarness struct {
	t      *testing.T
	nodes  []*orderNode
	queue  []Message
	log    []string
	onSend func(Message)
}

func (n *orderNode) logf(format string, args ...any) {
	n.h.log = append(n.h.log, fmt.Sprintf("S%d ", n.id)+fmt.Sprintf(format, args...))
}

func (n *orderNode) Lock()   { n.held = true }
func (n *orderNode) Unlock() { n.held = false }

func (n *orderNode) Write() (take, now bool) {
	n.logf("write")
	return true, n.now
}

func (n *orderNode) Send(m Message) {
	ev := fmt.Sprintf(">S%d %s", m.To, m.Type)
	switch {
	case len(m.Entries) > 0:
		ev += fmt.Sprintf(" %d..%d", m.PrevLogIndex+1, m.PrevLogIndex+len(m.Entries))
	case m.Type == MsgAppendResponse && m.Success:
		ev += fmt.Sprintf(" ok %d", m.MatchIndex)
	case m.Type == MsgVoteResponse && m.Granted:
		ev += " granted"
	}
	n.logf("%s", ev)
	if n.h.onSend != nil {
		n.h.onSend(m)
	}
	n.h.queue = append(n.h.queue, m)
}

func (n *orderNode) Apply(batch []ApplyMsg) {
	ev := "apply"
	for _, a := range batch {
		if a.Kind == EntrySnapshot {
			ev += fmt.Sprintf(" restore@%d", a.Index)
		} else {
			ev += fmt.Sprintf(" %d", a.Index)
		}
	}
	n.logf("%s", ev)
}

func (n *orderNode) Snapshot(raftcore.SnapshotRequest) { n.core.AbortSnapshot() }
func (n *orderNode) Abort(err error)                   { n.logf("abort: %v", err) }
func (n *orderNode) Halt(error)                        { n.logf("halt") }
func (n *orderNode) Events([]raftcore.Event)           {}

// orderDisk is a recording Storage: each save is logged, must find the
// driver's lock released, and fails once when armed.
type orderDisk struct {
	Storage
	n *orderNode
}

func (s orderDisk) save(what string) error {
	if s.n.held {
		s.n.h.t.Errorf("S%d %s with the driver's lock held", s.n.id, what)
	}
	s.n.logf("%s", what)
	err := s.n.fail
	s.n.fail = nil
	return err
}

func (s orderDisk) SaveState(HardState) error { return s.save("SaveState") }
func (s orderDisk) SaveSnapshot(snap LogSnapshot) error {
	return s.save(fmt.Sprintf("SaveSnapshot %d", snap.Index))
}
func (s orderDisk) SaveEntries(first int, es []LogEntry) error {
	return s.save(fmt.Sprintf("SaveEntries %d..%d", first, first+len(es)-1))
}

// newOrderHarness builds three replicas of {1,2,3}, durable or volatile. S1
// times out first; the others never tick.
func newOrderHarness(t *testing.T, durable bool) *orderHarness {
	h := &orderHarness{t: t}
	for id := types.NodeID(1); id <= 3; id++ {
		n := &orderNode{h: h, id: id, held: true} // the test calls the driver as its shell, lock held
		ticks := 100
		if id == 1 {
			ticks = 3
		}
		// Leases off: a read under test waits on a barrier.
		n.core = raftcore.New(raftcore.Config{ID: id, Members: []types.NodeID{1, 2, 3}, ElectionTicks: ticks,
			Ablation: raftcore.Ablation{DisableLeaseRead: true}}, HardState{}, LogSnapshot{}, nil)
		var st Storage
		if durable {
			st = orderDisk{Storage: NewMemStorage(), n: n}
		}
		n.d = NewDriver(n.core, st, n, n, 0)
		h.nodes = append(h.nodes, n)
	}
	return h
}

func (h *orderHarness) node(id types.NodeID) *orderNode { return h.nodes[id-1] }

// settle delivers every queued message and lands every write until nothing
// moves.
func (h *orderHarness) settle() {
	for range 100 {
		if len(h.queue) == 0 && !slices.ContainsFunc(h.nodes, func(n *orderNode) bool { return n.d.writing }) {
			return
		}
		for len(h.queue) > 0 {
			m := h.queue[0]
			h.queue = h.queue[1:]
			n := h.node(m.To)
			n.core.Step(m)
			n.d.Ready()
		}
		for _, n := range h.nodes {
			n.d.Land()
		}
	}
	h.t.Fatal("the cluster did not settle")
}

// elect makes S1 the leader with its no-op committed everywhere.
func (h *orderHarness) elect() *orderNode {
	s1 := h.node(1)
	for range 20 {
		if s1.core.Role() == Leader {
			h.settle()
			return s1
		}
		s1.core.Tick()
		s1.d.Ready()
		h.settle()
	}
	h.t.Fatalf("S1 did not win the election:\n%s", strings.Join(h.log, "\n"))
	return nil
}

func (n *orderNode) propose(cmd string) *Proposal {
	idx, term, err := n.core.Propose([]byte(cmd))
	if err != nil {
		n.h.t.Fatal(err)
	}
	p := &Proposal{done: make(chan struct{}), idx: idx, term: term}
	n.d.props = append(n.d.props, p)
	n.d.Ready()
	return p
}

// mark returns the log position to read new events from.
func (h *orderHarness) mark() int { return len(h.log) }

// since returns the events logged after mark.
func (h *orderHarness) since(mark int) []string { return h.log[mark:] }

// sends reports whether ev is a message leaving a node.
func sends(ev string) bool { return strings.Contains(ev, " >S") }

func done(p *Proposal) bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// before requires event a to be logged, and earlier than event b if b is.
func before(t *testing.T, log []string, a, b string) {
	t.Helper()
	i, j := slices.Index(log, a), slices.Index(log, b)
	if i < 0 || (j >= 0 && j < i) {
		t.Errorf("want %q before %q in:\n%s", a, b, strings.Join(log, "\n"))
	}
}

// TestDriverOrder pins each ordering rule of the one staged-Ready driver on
// a real raftcore.Core with a recording shell and disk. Every case fails
// under its hand-made driver mutant (EXPERIMENTS.md E20).
func TestDriverOrder(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{{
		// Without a disk a batch is stable the moment it is taken: the
		// broadcast and the future complete in the proposal's own Ready,
		// and the shell is never asked to write.
		name: "volatile batches are stable inline",
		run: func(t *testing.T) {
			h := newOrderHarness(t, false)
			s1 := h.elect()
			from := h.mark()
			p := s1.propose("x")
			got := h.since(from)
			want := []string{"S1 >S2 AppendEntries 2..2", "S1 >S3 AppendEntries 2..2"}
			if !slices.Equal(got, want) || !done(p) {
				t.Fatalf("propose on a volatile leader: events %q, done %v; want %q and done", got, done(p), want)
			}
			if slices.ContainsFunc(h.log, func(ev string) bool { return strings.HasSuffix(ev, " write") }) {
				t.Fatalf("a volatile driver asked its shell to write:\n%s", strings.Join(h.log, "\n"))
			}
		},
	}, {
		// A vote, a follower's ack and the leader's broadcast are promises
		// about this disk: none leaves before the batch backing it lands.
		// The disk is written with the driver's lock released.
		name: "a durable batch's acks and votes wait for it to land",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s1 := h.elect()
			for _, id := range []string{"S2", "S3"} {
				before(t, h.log, id+" SaveState", id+" >S1 VoteResponse granted")
			}
			from := h.mark()
			s1.propose("x")
			if got := h.since(from); !slices.Equal(got, []string{"S1 write"}) {
				t.Fatalf("propose on a durable leader released %q before its write; want only the write", got)
			}
			s1.d.Land()
			before(t, h.log, "S1 SaveEntries 2..2", "S1 >S2 AppendEntries 2..2")
			s2 := h.node(2)
			app := h.queue[0]
			h.queue = nil
			from = h.mark()
			s2.core.Step(app)
			s2.d.Ready()
			// Applying what the leader named committed is knowledge, not a
			// promise: only the sends must wait.
			if got := h.since(from); !slices.Contains(got, "S2 write") || slices.ContainsFunc(got, sends) {
				t.Fatalf("a follower released %q before writing the entries it acks", got)
			}
			s2.d.Land()
			before(t, h.log, "S2 SaveEntries 2..2", "S2 >S1 AppendResponse ok 2")
		},
	}, {
		// A failed write fail-stops the driver with Stable never said: the
		// proposal it carried fails with ErrStorageFailed, the queued ones
		// and the pending read barriers abort, and nothing leaves again.
		name: "a failed write releases nothing afterwards",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s1 := h.elect()
			_, wait, err := s1.d.Read()
			if err != nil {
				t.Fatalf("read barrier: %v", err)
			}
			s1.d.Ready()
			if len(wait) > 0 {
				t.Fatal("the read was answered at once; want a pending barrier")
			}
			p := s1.propose("doomed")
			h.queue = nil
			s1.fail = errors.New("disk gone")
			from := h.mark()
			s1.d.Land()
			s1.core.Tick()
			s1.d.Ready()
			want := []string{"S1 SaveEntries 2..2", "S1 abort: raft: not the leader (known leader: S1)", "S1 halt"}
			if got := h.since(from); !slices.Equal(got, want) {
				t.Fatalf("after a failed write: %q; want %q", got, want)
			}
			if _, _, err := p.Wait(); !errors.Is(err, ErrStorageFailed) {
				t.Fatalf("in-flight proposal err = %v, want ErrStorageFailed", err)
			}
			select {
			case idx := <-wait:
				if idx != readAborted {
					t.Fatalf("pending barrier answered %d, want the abort %d", idx, readAborted)
				}
			default:
				t.Fatal("a pending read barrier was left waiting on a fail-stopped driver")
			}
		},
	}, {
		// A leader-installed image replaces the state machine the entries
		// committed above it apply to: its restore is delivered first.
		name: "Restore comes before Committed",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s2 := h.node(2)
			img := []byte("image")
			members := []types.NodeID{1, 2, 3}
			s2.core.Step(Message{Type: MsgInstallSnapshot, From: 1, To: 2, Term: 1,
				SnapIndex: 5, SnapTerm: 1, SnapMembers: members, SnapTotal: len(img), SnapData: img, Seq: 1})
			s2.d.Ready()
			x := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("x")}
			s2.core.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1,
				PrevLogIndex: 5, PrevLogTerm: 1, Entries: []LogEntry{x, x}, LeaderCommit: 7, Seq: 2})
			s2.d.Ready()
			from := h.mark()
			s2.d.Land()
			got := slices.DeleteFunc(h.since(from), func(ev string) bool { return !strings.Contains(ev, "apply") })
			if want := []string{"S2 apply restore@5 6 7"}; !slices.Equal(got, want) {
				t.Fatalf("landing the image delivered %q; want %q", got, want)
			}
		},
	}, {
		// Futures woken ahead of the broadcast put a scheduler round between
		// the disk and the wire.
		name: "futures complete only after their broadcast leaves",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s1 := h.elect()
			p := s1.propose("x")
			sent := 0
			h.onSend = func(m Message) {
				if m.Type == MsgAppendEntries && m.PrevLogIndex < p.idx && m.PrevLogIndex+len(m.Entries) >= p.idx {
					sent++
					if done(p) {
						t.Errorf("proposal %d completed before its broadcast to S%d left", p.idx, m.To)
					}
				}
			}
			s1.d.Land()
			if sent != 2 || !done(p) {
				t.Fatalf("landing: %d broadcasts of entry %d, done %v; want 2 and done", sent, p.idx, done(p))
			}
		},
	}, {
		// A CheckQuorum (or stalled-disk) step-down fails the in-flight
		// proposals with the retryable ErrLeaderStepdown ...
		name: "a step-down fails proposals with ErrLeaderStepdown",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s1 := h.elect()
			p := s1.propose("x")
			for i := 0; i < 20 && s1.core.Role() == Leader; i++ {
				s1.core.Tick()
				s1.d.Ready()
				h.queue = nil // nobody answers
			}
			if _, _, err := p.Wait(); !errors.Is(err, ErrLeaderStepdown) {
				t.Fatalf("in-flight proposal err = %v, want ErrLeaderStepdown", err)
			}
		},
	}, {
		// ... any other loss of leadership with the plain redirect.
		name: "a deposed leader fails proposals with ErrNotLeader",
		run: func(t *testing.T) {
			h := newOrderHarness(t, true)
			s1 := h.elect()
			p := s1.propose("x")
			s1.core.Step(Message{Type: MsgAppendEntries, From: 2, To: 1, Term: 2, Seq: 1})
			s1.d.Ready()
			_, _, err := p.Wait()
			if !errors.Is(err, ErrNotLeader) || errors.Is(err, ErrLeaderStepdown) {
				t.Fatalf("in-flight proposal err = %v, want ErrNotLeader", err)
			}
		},
	}}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestDriverFoldsEveryFact: the driver's Counters are the fold of every event
// its core released and the count of the writes it landed — the events of an
// interaction whose write then fail-stops the node included, though that
// write's Ready releases nothing.
func TestDriverFoldsEveryFact(t *testing.T) {
	h := newOrderHarness(t, true)
	s1 := h.elect()
	s1.propose("x")
	s1.d.Land()
	// The ballot (no entries), the no-op and x: two entry writes.
	want := Counters{PreVoteRounds: 1, PreVotesWon: 1, Elections: 1, EntryWrites: 2}
	if got := s1.d.Counters(); got != want {
		t.Fatalf("leader's fold = %+v, want %+v", got, want)
	}

	h = newOrderHarness(t, true)
	s1 = h.node(1)
	s1.now = true
	for s1.core.Role() != PreCandidate {
		s1.core.Tick()
		s1.d.Ready()
	}
	s1.fail = errors.New("disk gone")
	s1.core.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	s1.d.Ready() // the ballot's write fails inside this Ready
	if s1.d.err == nil {
		t.Fatal("the ballot's write did not fail-stop the driver")
	}
	want = Counters{PreVoteRounds: 1, PreVotesWon: 1, Elections: 1}
	if got := s1.d.Counters(); got != want {
		t.Fatalf("fail-stopped fold = %+v, want %+v", got, want)
	}
}
