package raftcore

// Golden tests for the fast read path: the ReadIndex coalescing window
// (which reads share a barrier, which must not), the term-start read
// floor, the leader lease's grant/expiry/invalidation rules, and the
// follower-forwarded read round trip, and the commit index that rides the
// read reply (learnCommit). Like the other golden files, each
// step pins the ENTIRE Ready batch so a change to what the driver would
// send or resolve shows up as a precise diff.

import (
	"testing"

	"adore/internal/types"
)

// leaderET brings node 1 of {1,2,3} to leadership like leader3, but with
// an election interval of et ticks (the lease window). A fresh core
// campaigns on its first tick whatever et is. On return ticks = 1, the
// term-1 no-op sits at index 1 (uncommitted), and appendSeq = 2.
func leaderET(t *testing.T, et int) *Core {
	t.Helper()
	c := New(Config{
		ID:            1,
		Members:       []types.NodeID{1, 2, 3},
		ElectionTicks: et,
		Jitter:        func() int { return 0 },
	}, HardState{}, Snapshot{}, nil)
	c.Tick()
	assertEvents(t, c.TakeReady().Events, EventPreVoteRound) // pre-vote round
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	assertEvents(t, c.TakeReady().Events, EventPreVoteWon, EventElection) // vote round
	c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	if c.Role() != Leader {
		t.Fatalf("quorum of votes but role = %s", c.Role())
	}
	assertEvents(t, c.TakeReady().Events) // no-op broadcast (seq 1, 2)
	return c
}

// TestGoldenReadCoalescing pins the coalescing window: the first read
// opens a barrier and fires its confirmation round; reads arriving while
// that round is in flight must NOT join it (its acks could predate them)
// but accumulate on ONE follow-up barrier that rides the next heartbeat —
// so any burst between two heartbeat rounds costs at most one extra
// round, and one quorum confirmation resolves the whole batch.
func TestGoldenReadCoalescing(t *testing.T) {
	c := leader3With(t, Ablation{DisableLeaseRead: true})
	var ctr tally
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	ctr.ready(c) // commit the no-op (index 1)

	steps := []struct {
		name string
		act  func(t *testing.T)
		want Ready
	}{
		{
			name: "read 101 opens barrier 1 and fires its round (seq 3, 4)",
			act: func(t *testing.T) {
				if err := c.ReadIndex(101); err != nil {
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
			name: "read 102 arrives mid-round: barrier 2 accumulates, NO new round",
			act: func(t *testing.T) {
				if err := c.ReadIndex(102); err != nil {
					t.Fatal(err)
				}
			},
			want: Ready{Events: []Event{{Kind: EventReadBarrier}}},
		},
		{
			name: "read 103 joins barrier 2 (no send since it registered)",
			act: func(t *testing.T) {
				if err := c.ReadIndex(103); err != nil {
					t.Fatal(err)
				}
			},
			want: Ready{Events: []Event{{Kind: EventReadCoalesced}}},
		},
		{
			name: "ack of round 1 (seq 3 > 2) resolves barrier 1 only",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 3})
			},
			want: Ready{ReadStates: []ReadState{{ReqID: 101, Index: 1}}},
		},
		{
			name: "the next heartbeat is barrier 2's round (seq 5, 6)",
			act:  func(t *testing.T) { c.Tick() },
			want: Ready{
				Messages: []Message{
					{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{}, LeaderCommit: 1, Seq: 5},
					{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
						Entries: []LogEntry{}, LeaderCommit: 1, Seq: 6},
				},
			},
		},
		{
			name: "one fresh ack (seq 6 > 4) resolves the whole batch",
			act: func(t *testing.T) {
				c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 6})
			},
			want: Ready{ReadStates: []ReadState{{ReqID: 102, Index: 1}, {ReqID: 103, Index: 1}}},
		},
	}
	for _, s := range steps {
		t.Run(s.name, func(t *testing.T) {
			s.act(t)
			assertReady(t, ctr.ready(c), s.want)
		})
	}
	if ctr.ReadBarriers != 2 || ctr.ReadsCoalesced != 1 {
		t.Fatalf("counters: barriers=%d coalesced=%d, want 2 and 1", ctr.ReadBarriers, ctr.ReadsCoalesced)
	}
}

// TestGoldenReadFloorTermStart pins the read floor on a fresh leader: its
// commit index still trails entries the previous leader committed, so the
// barrier must resolve at the term-opening no-op's index (above every
// previously committed entry), never at the stale commit index.
func TestGoldenReadFloorTermStart(t *testing.T) {
	// Node 1 recovers with two term-1 entries (committed cluster-wide by a
	// previous leader, but commitIndex is volatile: locally it is 0) and
	// wins term 2. Its no-op lands at index 3.
	c := New(Config{
		ID:            1,
		Members:       []types.NodeID{1, 2, 3},
		ElectionTicks: 1,
		Jitter:        func() int { return 0 },
		Ablation:      Ablation{DisableLeaseRead: true},
	}, HardState{Term: 1}, Snapshot{}, []LogEntry{
		{Term: 1, Kind: EntryCommand, Command: []byte("a")},
		{Term: 1, Kind: EntryCommand, Command: []byte("b")},
	})
	c.Tick()
	c.TakeReady()
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 2, Granted: true})
	c.TakeReady()
	c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 2, Granted: true})
	c.TakeReady() // no-op broadcast (seq 1, 2); commitIndex still 0

	if err := c.ReadIndex(7); err != nil {
		t.Fatal(err)
	}
	c.TakeReady() // barrier round (seq 3, 4)

	// S2 catches up fully and acks the barrier round: the read resolves at
	// the no-op's index 3 — NOT at the pre-ack commit index 0 — in the
	// same batch that commits and applies entries 1..3.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: true, MatchIndex: 3, Seq: 3})
	assertReady(t, c.TakeReady(), Ready{
		ReadStates: []ReadState{{ReqID: 7, Index: 3}},
		Committed: []ApplyMsg{
			{Index: 1, Term: 1, Kind: EntryCommand, Command: []byte("a")},
			{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("b")},
			{Index: 3, Term: 2, Kind: EntryNoOp},
		},
	})
}

// TestGoldenLeaseWindow pins the lease clock: no lease before any quorum
// ack, a lease for strictly less than one election interval after one,
// expiry at exactly the interval, and renewal on the next ack. All in
// logical ticks — the same clock CheckQuorum and stickiness count. A read
// asked inside the window is answered from the lease in the very next
// Effects, with no round.
func TestGoldenLeaseWindow(t *testing.T) {
	const et = 5
	c := leaderET(t, et) // ticks = 1
	var ctr tally
	leaseRead := func(ctx uint64) {
		t.Helper()
		if err := c.ReadIndex(ctx); err != nil {
			t.Fatal(err)
		}
		assertReady(t, ctr.ready(c), Ready{ReadStates: []ReadState{{ReqID: ctx, Index: 1}}, Events: []Event{{Kind: EventLeaseRead}}})
	}
	if _, ok := c.LeaseStatus(); ok {
		t.Fatal("lease granted before any quorum ack")
	}
	// S2's ack (ticks 1) commits the no-op and starts the lease window.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	ctr.ready(c)
	leaseRead(1)
	// Four more ticks (ticks 5): 5-1 < 5, still inside the window.
	for i := 0; i < et-1; i++ {
		c.Tick()
	}
	ctr.ready(c) // heartbeats
	leaseRead(2)
	// One more tick (ticks 6): 6-1 = et, the window closed.
	c.Tick()
	ctr.ready(c)
	if _, ok := c.LeaseStatus(); ok {
		t.Fatal("lease still granted a full election interval after the ack")
	}
	// A fresh ack (echoing the tick-6 heartbeat, seq 11) renews it.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 11})
	ctr.ready(c)
	leaseRead(3)
	if got := ctr.LeaseReads; got != 3 {
		t.Fatalf("LeaseReads = %d, want 3", got)
	}
}

// TestGoldenLeaseTransferGuard pins the transfer invalidation: the moment
// a handoff starts the lease is void — MsgTimeoutNow elects the target
// with no timeout wait, so tick arithmetic proves nothing — and fresh
// acks do NOT revive it until the transfer resolves.
func TestGoldenLeaseTransferGuard(t *testing.T) {
	const et = 5
	c := leaderET(t, et)
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady()
	if _, ok := c.LeaseStatus(); !ok {
		t.Fatal("no lease after a quorum ack")
	}
	if err := c.TransferLeader(2); err != nil {
		t.Fatal(err)
	}
	c.TakeReady() // the TimeoutNow handoff
	if _, ok := c.LeaseStatus(); ok {
		t.Fatal("lease survived the start of a leadership transfer")
	}
	// Even a fresh quorum ack must not revive it mid-transfer.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 2})
	c.TakeReady()
	if _, ok := c.LeaseStatus(); ok {
		t.Fatal("lease revived by an ack while the transfer is pending")
	}
	// The target never campaigns; the transfer dies at its deadline (et
	// ticks) and a fresh ack re-arms the lease.
	for i := 0; i < et; i++ {
		c.Tick()
	}
	c.TakeReady()
	if c.transferTarget != types.NoNode {
		t.Fatal("transfer not cancelled at its deadline")
	}
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 12})
	c.TakeReady()
	if _, ok := c.LeaseStatus(); !ok {
		t.Fatal("no lease after the transfer aborted and a fresh ack arrived")
	}
}

// TestGoldenLeaseReconfigGuard pins the Schultz-style reconfiguration
// invalidation: while a configuration entry is uncommitted, the quorum
// the lease was acked under need not intersect the quorums a competing
// leader could use — no lease until the change commits.
func TestGoldenLeaseReconfigGuard(t *testing.T) {
	const et = 5
	c := leaderET(t, et)
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady()
	if _, ok := c.LeaseStatus(); !ok {
		t.Fatal("no lease after a quorum ack")
	}
	if _, _, err := c.ProposeConfig(types.NewNodeSet(1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	c.TakeReady() // config entry broadcast (union: S2, S3, S4)
	if _, ok := c.LeaseStatus(); ok {
		t.Fatal("lease survived an uncommitted configuration entry")
	}
	// S2 and S3 ack the config entry: 3 of the new 4-member config commits
	// it, and the same fresh acks satisfy the lease quorum again.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 3})
	c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 4})
	c.TakeReady()
	if idx, ok := c.LeaseStatus(); !ok || idx != 2 {
		t.Fatalf("LeaseStatus after the change committed = (%d, %v), want (2, true)", idx, ok)
	}
}

// TestGoldenLeaseTogglesOff pins the two escape hatches: DisableLeaseRead
// refuses every lease, and DisableLeaseGuard (the teeth knob) keeps a
// lease alive across the start of a transfer.
func TestGoldenLeaseTogglesOff(t *testing.T) {
	mk := func(t *testing.T, cfg func(*Config)) *Core {
		t.Helper()
		conf := Config{
			ID:            1,
			Members:       []types.NodeID{1, 2, 3},
			ElectionTicks: 5,
			Jitter:        func() int { return 0 },
		}
		cfg(&conf)
		c := New(conf, HardState{}, Snapshot{}, nil)
		c.Tick() // a fresh core campaigns on its first tick
		c.TakeReady()
		c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
		c.TakeReady()
		c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
		c.TakeReady()
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
		c.TakeReady()
		return c
	}

	t.Run("DisableLeaseRead refuses even a fresh quorum", func(t *testing.T) {
		c := mk(t, func(cfg *Config) { cfg.DisableLeaseRead = true })
		if _, ok := c.LeaseStatus(); ok {
			t.Fatal("lease granted with DisableLeaseRead set")
		}
	})
	t.Run("DisableLeaseGuard keeps the lease through a transfer", func(t *testing.T) {
		c := mk(t, func(cfg *Config) { cfg.DisableLeaseGuard = true })
		if err := c.TransferLeader(2); err != nil {
			t.Fatal(err)
		}
		c.TakeReady()
		if _, ok := c.LeaseStatus(); !ok {
			t.Fatal("guard disabled but the transfer still voided the lease")
		}
	})
}

// TestGoldenFollowerForward pins the follower-served read wire protocol:
// ReadIndex at a follower forwards to the known leader, resolution through a
// ReadState keyed by ReadCtx, the abort on a Success=false response, and the
// leader-side handling (barrier, lease fast path, and the not-a-leader
// refusal).
func TestGoldenFollowerForward(t *testing.T) {
	t.Run("follower forwards and resolves on the response", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
		f.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Seq: 1})
		f.TakeReady() // learn the leader; drain the append response
		if err := f.ReadIndex(7); err != nil {
			t.Fatal(err)
		}
		assertReady(t, f.TakeReady(), Ready{
			Messages: []Message{{Type: MsgReadIndexRequest, From: 2, To: 1, Term: 1, ReadCtx: 7}},
		})
		f.Step(Message{Type: MsgReadIndexResponse, From: 1, To: 2, Term: 1, ReadCtx: 7, Success: true, MatchIndex: 5})
		assertReady(t, f.TakeReady(), Ready{ReadStates: []ReadState{{ReqID: 7, Index: 5}}})
	})
	t.Run("a refusal aborts the local waiter", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
		f.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Seq: 1})
		f.TakeReady()
		if err := f.ReadIndex(8); err != nil {
			t.Fatal(err)
		}
		f.TakeReady()
		f.Step(Message{Type: MsgReadIndexResponse, From: 1, To: 2, Term: 1, ReadCtx: 8})
		assertReady(t, f.TakeReady(), Ready{ReadStates: []ReadState{{ReqID: 8, Index: -1}}})
	})
	t.Run("no known leader: the forward fails fast", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil)
		if err := f.ReadIndex(9); err == nil {
			t.Fatal("ReadIndex at a follower with no leader: want error")
		}
	})
	t.Run("leader serves a forward through the barrier", func(t *testing.T) {
		c := leader3(t)
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
		c.TakeReady()
		c.Tick() // expire the 1-tick lease so the barrier path runs
		c.TakeReady()
		c.Step(Message{Type: MsgReadIndexRequest, From: 3, To: 1, Term: 1, ReadCtx: 42})
		assertReady(t, c.TakeReady(), Ready{
			Messages: []Message{
				{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
					Entries: []LogEntry{}, LeaderCommit: 1, Seq: 5},
				{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1,
					Entries: []LogEntry{}, LeaderCommit: 1, Seq: 6},
			},
			Events: []Event{{Kind: EventReadBarrier}},
		})
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 5})
		assertReady(t, c.TakeReady(), Ready{
			Messages: []Message{{Type: MsgReadIndexResponse, From: 1, To: 3, Term: 1, ReadCtx: 42, Success: true, MatchIndex: 1, LeaderCommit: 1}},
		})
	})
	t.Run("leader with a valid lease answers a forward instantly", func(t *testing.T) {
		c := leader3(t)
		var ctr tally
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
		ctr.ready(c)
		c.Step(Message{Type: MsgReadIndexRequest, From: 3, To: 1, Term: 1, ReadCtx: 43})
		assertReady(t, ctr.ready(c), Ready{
			Messages: []Message{{Type: MsgReadIndexResponse, From: 1, To: 3, Term: 1, ReadCtx: 43, Success: true, MatchIndex: 1, LeaderCommit: 1}},
			Events:   []Event{{Kind: EventLeaseRead}},
		})
		if got := ctr.LeaseReads; got != 1 {
			t.Fatalf("LeaseReads = %d, want 1", got)
		}
	})
	t.Run("a non-leader refuses a forwarded read", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
		f.Step(Message{Type: MsgReadIndexRequest, From: 3, To: 2, Term: 1, ReadCtx: 9})
		assertReady(t, f.TakeReady(), Ready{
			Messages: []Message{{Type: MsgReadIndexResponse, From: 2, To: 3, Term: 1, ReadCtx: 9}},
		})
	})
}

// TestGoldenLearnCommit pins the follower's one commit rule. A successful
// read reply carries the leader's commit index, and the follower believes it
// exactly as far as its log is known to be the current-term leader's log:
// commitIndex = min(LeaderCommit, leaderMatch), whatever message named it.
func TestGoldenLearnCommit(t *testing.T) {
	members := []types.NodeID{1, 2, 3}
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	e := func(term types.Time, s string) LogEntry {
		return LogEntry{Term: term, Kind: EntryCommand, Command: []byte(s)}
	}
	app := func(from types.NodeID, term types.Time, prev int, prevTerm types.Time, commit int, es ...LogEntry) Message {
		return Message{Type: MsgAppendEntries, From: from, To: 2, Term: term,
			PrevLogIndex: prev, PrevLogTerm: prevTerm, Entries: es, LeaderCommit: commit}
	}
	reply := func(from types.NodeID, term types.Time, ctx uint64, idx, commit int) Message {
		return Message{Type: MsgReadIndexResponse, From: from, To: 2, Term: term,
			ReadCtx: ctx, Success: true, MatchIndex: idx, LeaderCommit: commit}
	}
	applied := func(idx int, en LogEntry) ApplyMsg {
		return ApplyMsg{Index: idx, Term: en.Term, Kind: en.Kind, Command: en.Command}
	}

	t.Run("a reply commits through min(LeaderCommit, leaderMatch), delivered with the ReadState, ahead of the local write", func(t *testing.T) {
		c := follower(2, members, HardState{Term: 1}, []LogEntry{noop})
		c.Step(app(1, 1, 1, 1, 1, e(1, "a"))) // index 2
		c.TakeReady()                         // 2 is stable; the no-op is applied
		c.Step(app(1, 1, 2, 1, 1, e(1, "b"))) // index 3, its write left outstanding
		assertUnstable(t, c, Unstable{FirstIndex: 3, Entries: []LogEntry{e(1, "b")}})

		// The leader committed through 5; this log is its log through 3.
		c.Step(reply(1, 1, 7, 3, 5))
		if got := c.CommitIndex(); got != 3 {
			t.Fatalf("CommitIndex = %d, want min(5, 3)", got)
		}
		// 3 is not on this disk yet and is delivered all the same: the read
		// the ReadState resolves waits for apply to reach 3, not for a write.
		assertEffects(t, c, Effects{
			ReadStates: []ReadState{{ReqID: 7, Index: 3}},
			Committed:  []ApplyMsg{applied(2, e(1, "a")), applied(3, e(1, "b"))},
		})
		// The ack — the promise — is what the write was holding back.
		c.Stable(1)
		assertEffects(t, c, Effects{
			Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 3}},
		})
	})

	// Teeth: believing the reply through lastIndex instead of leaderMatch
	// commits x, an entry no quorum ever held.
	t.Run("stale suffix: a reply before the log is repaired commits nothing", func(t *testing.T) {
		// S2 led term 1 and holds x@3, which never left it. S1 then won term 2
		// from [no-op, a], put its own no-op at 3 and c at 4, and committed 3.
		x := e(1, "x")
		c := follower(2, members, HardState{Term: 1, VotedFor: 2}, []LogEntry{noop, e(1, "a"), x})
		// S1's first probe sits past the end of this log: rejected.
		c.Step(app(1, 2, 4, 2, 3))
		assertReady(t, c.TakeReady(), Ready{
			HardState: &HardState{Term: 2},
			Messages:  []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, HintIndex: 3}},
			Events:    []Event{{Kind: EventTermBump}},
		})
		if err := c.ReadIndex(9); err != nil {
			t.Fatal(err)
		}
		c.TakeReady()
		c.Step(reply(1, 2, 9, 3, 3))
		assertReady(t, c.TakeReady(), Ready{ReadStates: []ReadState{{ReqID: 9, Index: 3}}})
		if got := c.CommitIndex(); got != 0 {
			t.Fatalf("CommitIndex = %d: committed a suffix never matched against the leader", got)
		}
		// The repair replaces x, and only then does index 3 commit.
		noop2 := LogEntry{Term: 2, Kind: EntryNoOp}
		c.Step(app(1, 2, 2, 1, 3, noop2, e(2, "c")))
		assertReady(t, c.TakeReady(), Ready{
			FirstIndex: 3,
			Entries:    []LogEntry{noop2, e(2, "c")},
			Messages:   []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: true, MatchIndex: 4}},
			Committed:  []ApplyMsg{applied(1, noop), applied(2, e(1, "a")), applied(3, noop2)},
		})
	})

	t.Run("a reply from another term or another node moves nothing", func(t *testing.T) {
		c := follower(2, members, HardState{Term: 1}, []LogEntry{noop, e(1, "a"), e(1, "b")})
		c.Step(app(1, 1, 3, 1, 1))
		c.TakeReady()                // leader S1, leaderMatch 3, commit 1
		c.Step(reply(3, 1, 7, 3, 3)) // S3 is not the leader
		assertReady(t, c.TakeReady(), Ready{ReadStates: []ReadState{{ReqID: 7, Index: 3}}})
		// S1 is re-elected at term 2 and matches this log through 3 again; a
		// reply it sent in term 1 arrives late.
		c.Step(app(1, 2, 3, 1, 1))
		c.TakeReady()
		c.Step(reply(1, 1, 8, 3, 3))
		assertReady(t, c.TakeReady(), Ready{ReadStates: []ReadState{{ReqID: 8, Index: 3}}})
		if got := c.CommitIndex(); got != 1 {
			t.Fatalf("CommitIndex = %d, want 1", got)
		}
	})

	t.Run("a reordered older append does not lower leaderMatch", func(t *testing.T) {
		c := follower(2, members, HardState{Term: 1}, []LogEntry{noop})
		c.Step(app(1, 1, 1, 1, 1, e(1, "a"), e(1, "b"))) // matches through 3
		c.Step(app(1, 1, 1, 1, 1, e(1, "a")))            // sent earlier, arrives later
		c.TakeReady()
		c.Step(reply(1, 1, 7, 3, 3))
		assertReady(t, c.TakeReady(), Ready{
			ReadStates: []ReadState{{ReqID: 7, Index: 3}},
			Committed:  []ApplyMsg{applied(2, e(1, "a")), applied(3, e(1, "b"))},
		})
	})

	t.Run("a fresh leader replies with read index termStart and LeaderCommit below it", func(t *testing.T) {
		// As in TestGoldenReadFloorTermStart: S1 wins term 2 over two term-1
		// entries, its no-op lands at 3 and its commit index is still 0.
		c := New(Config{ID: 1, Members: members, ElectionTicks: 1, Jitter: func() int { return 0 }},
			HardState{Term: 1}, Snapshot{}, []LogEntry{e(1, "a"), e(1, "b")})
		c.Tick()
		c.TakeReady()
		c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 2, Granted: true})
		c.TakeReady()
		c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 2, Granted: true})
		c.TakeReady() // no-op broadcast (seq 1, 2)
		c.Step(Message{Type: MsgReadIndexRequest, From: 3, To: 1, Term: 2, ReadCtx: 11})
		c.TakeReady() // barrier round (seq 3, 4)
		// S2 confirms leadership while its copy of the no-op is still being
		// written (ack clamped to its stable index 2): nothing commits.
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: true, MatchIndex: 2, Seq: 3})
		assertReady(t, c.TakeReady(), Ready{
			Messages: []Message{{Type: MsgReadIndexResponse, From: 1, To: 3, Term: 2, ReadCtx: 11,
				Success: true, MatchIndex: 3, LeaderCommit: 0}},
		})
	})
}
