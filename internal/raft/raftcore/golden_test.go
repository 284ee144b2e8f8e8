package raftcore

// Golden tests for the sans-IO core: each case feeds the Core exactly one
// input and asserts the ENTIRE Ready batch field-by-field — HardState,
// changed log suffix, every outbound message (including Seq and HintIndex),
// committed deliveries, and resolved read barriers. The point is to pin the
// effect contract: a behavior change that alters what the driver would
// persist, send, or apply shows up here as a precise diff, not as a flaky
// cluster test.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"adore/internal/types"
)

// assertReady compares a drained batch against its golden value.
func assertReady(t *testing.T, got, want Ready) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Ready mismatch\n got: %#v\nwant: %#v", got, want)
	}
}

// tally is the test side of the driver's fold: it counts the events of every
// batch drained through it, so a counter assertion reads what was released.
type tally struct{ Counters }

func (t *tally) fold(evs []Event) {
	for _, e := range evs {
		t.Fold(e.Kind)
	}
}

// ready drains c's Ready and folds its events.
func (t *tally) ready(c *Core) Ready {
	rd := c.TakeReady()
	t.fold(rd.Events)
	return rd
}

// effects drains c's Effects and folds its events.
func (t *tally) effects(c *Core) Effects {
	e := c.TakeEffects()
	t.fold(e.Events)
	return e
}

// assertEvents requires a drained batch to have released exactly kinds.
func assertEvents(t *testing.T, got []Event, kinds ...EventKind) {
	t.Helper()
	var want []Event
	for _, k := range kinds {
		want = append(want, Event{Kind: k})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events = %v, want %v", got, want)
	}
}

// follower builds a follower core with recovered state. log entries are
// 1-based (no sentinel); nil means an empty log.
func follower(id types.NodeID, members []types.NodeID, hs HardState, entries []LogEntry) *Core {
	return New(Config{ID: id, Members: members, Jitter: func() int { return 0 }}, hs, Snapshot{}, entries)
}

// leader3 brings node 1 of {1,2,3} to leadership in term 1 and drains the
// three setup batches (the pre-vote round, the vote round, and the no-op
// broadcast). On return: log = [no-op@1], commitIndex = 0, appendSeq = 2
// (seq 1 went to S2, seq 2 to S3), nextIndex = {2:2, 3:2} after optimistic
// pipelining.
func leader3(t *testing.T) *Core { t.Helper(); return leader3With(t, Ablation{}) }

// leader3With is leader3 with guards switched off: the read goldens that pin
// a barrier turn the lease off, or the leader would answer from it.
func leader3With(t *testing.T, ab Ablation) *Core {
	t.Helper()
	c := New(Config{
		ID:      1,
		Members: []types.NodeID{1, 2, 3},
		// Campaign on the first tick, deterministically.
		ElectionTicks: 1,
		Jitter:        func() int { return 0 },
		Ablation:      ab,
	}, HardState{}, Snapshot{}, nil)
	// The timeout opens a term-neutral pre-vote round: nothing persists.
	c.Tick()
	assertReady(t, c.TakeReady(), Ready{
		Messages: []Message{
			{Type: MsgPreVoteRequest, From: 1, To: 2, Term: 1},
			{Type: MsgPreVoteRequest, From: 1, To: 3, Term: 1},
		},
		Events: []Event{{Kind: EventPreVoteRound}},
	})
	// A majority of grants escalates to the real election, which persists
	// term+ballot before the vote requests go out.
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	assertReady(t, c.TakeReady(), Ready{
		HardState: &HardState{Term: 1, VotedFor: 1},
		Messages: []Message{
			{Type: MsgVoteRequest, From: 1, To: 2, Term: 1},
			{Type: MsgVoteRequest, From: 1, To: 3, Term: 1},
		},
		Events: []Event{{Kind: EventPreVoteWon}, {Kind: EventElection}},
	})
	c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	if c.Role() != Leader {
		t.Fatalf("quorum of votes but role = %s", c.Role())
	}
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	assertReady(t, c.TakeReady(), Ready{
		FirstIndex: 1,
		Entries:    []LogEntry{noop},
		Messages: []Message{
			{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Entries: []LogEntry{noop}, Seq: 1},
			{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, Entries: []LogEntry{noop}, Seq: 2},
		},
	})
	return c
}

// TestGoldenVotes pins the exact Ready for the vote-request decision table:
// what is persisted (term and ballot) and what is answered, per input.
func TestGoldenVotes(t *testing.T) {
	cases := []struct {
		name string
		core func() *Core
		req  Message
		want Ready
	}{
		{
			name: "grant, empty log, new term persists term+vote atomically",
			core: func() *Core { return follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil) },
			req:  Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1},
			want: Ready{
				HardState: &HardState{Term: 1, VotedFor: 1},
				Messages:  []Message{{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true}},
				Events:    []Event{{Kind: EventTermBump}},
			},
		},
		{
			name: "deny, candidate log stale: term advances but no vote is cast",
			core: func() *Core {
				return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1},
					[]LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("x")}})
			},
			req: Message{Type: MsgVoteRequest, From: 3, To: 2, Term: 2},
			want: Ready{
				HardState: &HardState{Term: 2, VotedFor: types.NoNode},
				Messages:  []Message{{Type: MsgVoteResponse, From: 2, To: 3, Term: 2, Granted: false}},
				Events:    []Event{{Kind: EventTermBump}},
			},
		},
		{
			name: "deny, ballot already cast this term: nothing to persist",
			core: func() *Core { return follower(1, []types.NodeID{1, 2, 3}, HardState{Term: 3, VotedFor: 3}, nil) },
			req:  Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 3, LastLogIndex: 5, LastLogTerm: 3},
			want: Ready{
				Messages: []Message{{Type: MsgVoteResponse, From: 1, To: 2, Term: 3, Granted: false}},
			},
		},
		{
			name: "deny, stale term: response carries our higher term",
			core: func() *Core { return follower(1, []types.NodeID{1, 2, 3}, HardState{Term: 5}, nil) },
			req:  Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 4},
			want: Ready{
				Messages: []Message{{Type: MsgVoteResponse, From: 1, To: 2, Term: 5, Granted: false}},
			},
		},
		{
			name: "re-grant to the same candidate is idempotent but re-persists",
			core: func() *Core { return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1, VotedFor: 1}, nil) },
			req:  Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1},
			want: Ready{
				HardState: &HardState{Term: 1, VotedFor: 1},
				Messages:  []Message{{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.core()
			c.Step(tc.req)
			assertReady(t, c.TakeReady(), tc.want)
		})
	}
}

// TestGoldenAppendFollower pins the follower's append handling: the hint a
// rejection carries (min(PrevLogIndex-1, lastIndex)) and, on the accept
// path, the exact truncation point, persisted suffix, and commit delivery.
func TestGoldenAppendFollower(t *testing.T) {
	// Follower log for every case: [t1, t1, t2] at indexes 1..3, term 2.
	mk := func() *Core {
		return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 2}, []LogEntry{
			{Term: 1, Kind: EntryNoOp},
			{Term: 1, Kind: EntryCommand, Command: []byte("a")},
			{Term: 2, Kind: EntryCommand, Command: []byte("b")},
		})
	}
	cases := []struct {
		name string
		in   Message
		want Ready
	}{
		{
			name: "probe past end of log: hint = lastIndex, one round trip back",
			in:   Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, PrevLogIndex: 5, PrevLogTerm: 2, LeaderCommit: 3, Seq: 9},
			want: Ready{
				Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: false, HintIndex: 3, Seq: 9}},
			},
		},
		{
			name: "term mismatch at prev: hint backs off below the probe",
			in:   Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, PrevLogIndex: 3, PrevLogTerm: 3, Seq: 10},
			want: Ready{
				Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: false, HintIndex: 2, Seq: 10}},
			},
		},
		{
			name: "conflict truncates, suffix persists from first change, commit delivers",
			in: Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 3,
				PrevLogIndex: 1, PrevLogTerm: 1,
				Entries: []LogEntry{
					{Term: 3, Kind: EntryCommand, Command: []byte("c")},
					{Term: 3, Kind: EntryCommand, Command: []byte("d")},
				},
				LeaderCommit: 2, Seq: 4},
			want: Ready{
				HardState:  &HardState{Term: 3, VotedFor: types.NoNode},
				FirstIndex: 2,
				Entries: []LogEntry{
					{Term: 3, Kind: EntryCommand, Command: []byte("c")},
					{Term: 3, Kind: EntryCommand, Command: []byte("d")},
				},
				Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 3, Success: true, MatchIndex: 3, Seq: 4}},
				Committed: []ApplyMsg{
					{Index: 1, Term: 1, Kind: EntryNoOp},
					{Index: 2, Term: 3, Kind: EntryCommand, Command: []byte("c")},
				},
				Events: []Event{{Kind: EventTermBump}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mk()
			c.Step(tc.in)
			assertReady(t, c.TakeReady(), tc.want)
		})
	}
}

// TestGoldenLeaderBackoff pins the leader's reaction to a rejection: the
// next probe jumps to min(nextIndex-1, HintIndex+1) and resends exactly the
// suffix from there.
func TestGoldenLeaderBackoff(t *testing.T) {
	// Extend the fresh leader's log to [no-op@1, a@2, b@3]. Propose only
	// marks entries dirty; the one Stable inside TakeReady broadcasts both,
	// so nextIndex = {2:4, 3:4} and appendSeq = 4.
	mk := func(t *testing.T) *Core {
		c := leader3(t)
		if _, _, err := c.Propose([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Propose([]byte("b")); err != nil {
			t.Fatal(err)
		}
		c.TakeReady() // one write, one broadcast (seq 3, 4)
		return c
	}
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	a := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("a")}
	b := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("b")}
	cases := []struct {
		name string
		in   Message
		want Ready
	}{
		{
			name: "hint jumps below nextIndex: resend from hint+1 in one hop",
			in:   Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: false, HintIndex: 0, Seq: 3},
			want: Ready{
				Messages: []Message{{Type: MsgAppendEntries, From: 1, To: 2, Term: 1,
					PrevLogIndex: 0, PrevLogTerm: 0, Entries: []LogEntry{noop, a, b}, Seq: 5}},
			},
		},
		{
			name: "hint at nextIndex-1: plain decrement, one-entry resend",
			in:   Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: false, HintIndex: 2, Seq: 4},
			want: Ready{
				Messages: []Message{{Type: MsgAppendEntries, From: 1, To: 3, Term: 1,
					PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{b}, Seq: 5}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mk(t)
			c.Step(tc.in)
			assertReady(t, c.TakeReady(), tc.want)
		})
	}
}

// TestGoldenCommitAcrossReconfig pins hot reconfiguration's commit rule:
// the config entry itself is judged by the NEW membership, so a quorum of
// the old config is not enough to commit it.
func TestGoldenCommitAcrossReconfig(t *testing.T) {
	c := leader3(t)
	cfgEntry := LogEntry{Term: 1, Kind: EntryConfig, Members: []types.NodeID{1, 2, 3, 4}}
	steps := []struct {
		name string
		act  func(t *testing.T)
		want Ready
	}{
		{
			name: "S2 acks the no-op: quorum of {1,2,3}, index 1 commits",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
			},
			want: Ready{Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}}},
		},
		{
			name: "propose +S4: entry persists and is broadcast to the UNION, S4 bootstrapped from scratch",
			act: func(t *testing.T) {
				if _, _, err := c.ProposeConfig(types.NewNodeSet(1, 2, 3, 4)); err != nil {
					t.Fatal(err)
				}
			},
			want: Ready{
				FirstIndex: 2,
				Entries:    []LogEntry{cfgEntry},
				Messages: []Message{
					{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{cfgEntry}, LeaderCommit: 1, Seq: 3},
					{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{cfgEntry}, LeaderCommit: 1, Seq: 4},
					{Type: MsgAppendEntries, From: 1, To: 4, Term: 1, PrevLogIndex: 0, PrevLogTerm: 0,
						Entries: []LogEntry{{Term: 1, Kind: EntryNoOp}, cfgEntry}, LeaderCommit: 1, Seq: 5},
				},
			},
		},
		{
			name: "S2 acks the config entry: 2 of the NEW 4-member config is NOT a quorum",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 3})
			},
			want: Ready{}, // nothing commits, nothing is sent
		},
		{
			name: "S3 acks too: 3 of 4 is a quorum, the boundary entry commits",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 4})
			},
			want: Ready{Committed: []ApplyMsg{{Index: 2, Term: 1, Kind: EntryConfig, Members: []types.NodeID{1, 2, 3, 4}}}},
		},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			s.act(t)
			assertReady(t, c.TakeReady(), s.want)
		})
	}
	if got := c.CommitIndex(); got != 2 {
		t.Fatalf("commit index = %d, want 2", got)
	}
}

// TestGoldenReadIndexSeq pins the ReadIndex staleness rule: only an append
// response echoing a Seq issued AFTER the barrier confirms leadership for
// it; an ack that was already in flight does not.
func TestGoldenReadIndexSeq(t *testing.T) {
	c := leader3With(t, Ablation{DisableLeaseRead: true})
	steps := []struct {
		name string
		act  func(t *testing.T)
		want Ready
	}{
		{
			name: "S2 acks the no-op: index 1 commits",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
			},
			want: Ready{Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}}},
		},
		{
			name: "ReadIndex registers the barrier at seq 2 and fires a confirmation round",
			act: func(t *testing.T) {
				if err := c.ReadIndex(77); err != nil {
					t.Fatal(err)
				}
			},
			want: Ready{
				Messages: []Message{
					{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{}, LeaderCommit: 1, Seq: 3},
					{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{}, LeaderCommit: 1, Seq: 4},
				},
				Events: []Event{{Kind: EventReadBarrier}},
			},
		},
		{
			name: "stale ack (seq 2, in flight before the barrier) must NOT confirm",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 2})
			},
			want: Ready{}, // no ReadState: leadership not yet re-proven
		},
		{
			name: "fresh ack (seq 4 > barrier seq 2) confirms and resolves the read",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 4})
			},
			want: Ready{ReadStates: []ReadState{{ReqID: 77, Index: 1}}},
		},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			s.act(t)
			assertReady(t, c.TakeReady(), s.want)
		})
	}
}

// TestGoldenReadIndexAbort pins the abort path: losing leadership (a higher
// term arrives) resolves every pending barrier with Index -1 in the same
// batch that persists the new term.
func TestGoldenReadIndexAbort(t *testing.T) {
	c := leader3With(t, Ablation{DisableLeaseRead: true})
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady()
	if err := c.ReadIndex(9); err != nil {
		t.Fatal(err)
	}
	c.TakeReady()

	c.Step(Message{Type: MsgAppendEntries, From: 3, To: 1, Term: 2, PrevLogIndex: 0, PrevLogTerm: 0, Seq: 1})
	assertReady(t, c.TakeReady(), Ready{
		HardState:  &HardState{Term: 2, VotedFor: types.NoNode},
		Messages:   []Message{{Type: MsgAppendResponse, From: 1, To: 3, Term: 2, Success: true, Seq: 1}},
		ReadStates: []ReadState{{ReqID: 9, Index: -1}},
		Events:     []Event{{Kind: EventTermBump}},
	})
}

// TestNotLeaderHint pins the redirect a follower answers a proposal and a
// transfer with (and a read, while it knows no leader to forward it to): it
// is ErrNotLeader to errors.Is, it names the core's known leader to errors.As
// (NoNode before the follower has heard from one), and its text is the one
// clients have always seen.
func TestNotLeaderHint(t *testing.T) {
	f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
	for _, heard := range []bool{false, true} {
		if heard {
			f.Step(Message{Type: MsgAppendEntries, From: 3, To: 2, Term: 1, Seq: 1})
		}
		_, _, perr := f.Propose([]byte("x"))
		errs := []error{perr, f.TransferLeader(types.NoNode)}
		if !heard {
			errs = append(errs, f.ReadIndex(1))
		}
		for _, err := range errs {
			if !errors.Is(err, ErrNotLeader) {
				t.Fatalf("heard=%v: %v is not ErrNotLeader", heard, err)
			}
			var nl NotLeaderError
			if !errors.As(err, &nl) || nl.Leader != f.Leader() {
				t.Fatalf("heard=%v: hint %s, core's known leader %s", heard, nl.Leader, f.Leader())
			}
			if want := "raft: not the leader (known leader: " + f.Leader().String() + ")"; err.Error() != want {
				t.Fatalf("heard=%v: text %q, want %q", heard, err, want)
			}
		}
	}
	if f.Leader() != 3 {
		t.Fatalf("known leader %s after S3's append, want S3", f.Leader())
	}
	var nl NotLeaderError
	if !errors.As(fmt.Errorf("wrapped: %w", NotLeader(3)), &nl) || nl.Leader != 3 {
		t.Fatalf("hint through a wrap = %s, want S3", nl.Leader)
	}
}
