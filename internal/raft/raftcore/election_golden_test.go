package raftcore

// Golden tests for the election-robustness layer: the Pre-Vote grant/deny
// matrix (including across a reconfiguration boundary), follower
// stickiness, the CheckQuorum step-down effect, and the leadership-transfer
// handoff and abort paths. Same discipline as golden_test.go: one input,
// the ENTIRE Ready batch asserted field-by-field.

import (
	"errors"
	"testing"

	"adore/internal/types"
)

// TestGoldenPreVoteMatrix pins the pre-vote decision table. The exchange is
// term-neutral: no case persists anything (no HardState in any Ready), a
// grant echoes the PROPOSED term so the candidate can tally it, and a
// denial carries the voter's real term.
func TestGoldenPreVoteMatrix(t *testing.T) {
	cases := []struct {
		name string
		core func(t *testing.T) *Core
		req  Message
		want Ready
	}{
		{
			name: "grant: higher proposed term, up-to-date log, no leader contact",
			core: func(t *testing.T) *Core { return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil) },
			req:  Message{Type: MsgPreVoteRequest, From: 3, To: 2, Term: 2},
			want: Ready{
				Messages: []Message{{Type: MsgPreVoteResponse, From: 2, To: 3, Term: 2, Granted: true}},
			},
		},
		{
			name: "deny: proposed term does not beat ours",
			core: func(t *testing.T) *Core { return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 2}, nil) },
			req:  Message{Type: MsgPreVoteRequest, From: 3, To: 2, Term: 2},
			want: Ready{
				Messages: []Message{{Type: MsgPreVoteResponse, From: 2, To: 3, Term: 2, Granted: false}},
			},
		},
		{
			name: "deny: candidate log is stale",
			core: func(t *testing.T) *Core {
				return follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1},
					[]LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("x")}})
			},
			req: Message{Type: MsgPreVoteRequest, From: 3, To: 2, Term: 2},
			want: Ready{
				Messages: []Message{{Type: MsgPreVoteResponse, From: 2, To: 3, Term: 1, Granted: false}},
			},
		},
		{
			name: "deny: sticky follower with recent leader contact",
			core: func(t *testing.T) *Core {
				f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
				f.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Seq: 1})
				f.TakeReady()
				return f
			},
			req: Message{Type: MsgPreVoteRequest, From: 3, To: 2, Term: 2},
			want: Ready{
				Messages: []Message{{Type: MsgPreVoteResponse, From: 2, To: 3, Term: 1, Granted: false}},
			},
		},
		{
			name: "deny: a live leader never endorses a competing campaign",
			core: func(t *testing.T) *Core { return leader3(t) },
			req:  Message{Type: MsgPreVoteRequest, From: 3, To: 1, Term: 2},
			want: Ready{
				Messages: []Message{{Type: MsgPreVoteResponse, From: 1, To: 3, Term: 1, Granted: false}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.core(t)
			term, voted := c.Term(), c.votedFor
			c.Step(tc.req)
			assertReady(t, c.TakeReady(), tc.want)
			if c.Term() != term || c.votedFor != voted {
				t.Fatalf("pre-vote mutated durable state: term %d→%d, votedFor %s→%s",
					term, c.Term(), voted, c.votedFor)
			}
		})
	}
}

// TestGoldenPreVoteAcrossReconfig pins the tally rule at a reconfiguration
// boundary: a pre-candidate whose log carries an UNCOMMITTED config entry
// canvasses — and is judged by — the new membership, so a majority of the
// old configuration is not enough to escalate.
func TestGoldenPreVoteAcrossReconfig(t *testing.T) {
	// Node 1's log holds a pending widen {1..5}; conf0 was {1,2,3}.
	c := New(Config{
		ID:            1,
		Members:       []types.NodeID{1, 2, 3},
		ElectionTicks: 1,
		Jitter:        func() int { return 0 },
	}, HardState{Term: 1}, Snapshot{},
		[]LogEntry{{Term: 1, Kind: EntryConfig, Members: []types.NodeID{1, 2, 3, 4, 5}}})

	// The timeout canvasses all four peers of the NEW config, term-neutrally.
	var ctr tally
	c.Tick()
	preReq := func(to types.NodeID) Message {
		return Message{Type: MsgPreVoteRequest, From: 1, To: to, Term: 2, LastLogIndex: 1, LastLogTerm: 1}
	}
	assertReady(t, ctr.ready(c), Ready{
		Messages: []Message{preReq(2), preReq(3), preReq(4), preReq(5)},
		Events:   []Event{{Kind: EventPreVoteRound}},
	})

	// Two grants (self + S2) are a majority of the old {1,2,3} but NOT of
	// the effective {1..5}: no escalation.
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 2, Granted: true})
	assertReady(t, ctr.ready(c), Ready{})
	if c.Role() != PreCandidate {
		t.Fatalf("escalated on a stale-config majority (role %s)", c.Role())
	}

	// The third grant reaches a majority of the new config: the real
	// election persists term+ballot before any vote request leaves.
	c.Step(Message{Type: MsgPreVoteResponse, From: 3, To: 1, Term: 2, Granted: true})
	voteReq := func(to types.NodeID) Message {
		return Message{Type: MsgVoteRequest, From: 1, To: to, Term: 2, LastLogIndex: 1, LastLogTerm: 1}
	}
	assertReady(t, ctr.ready(c), Ready{
		HardState: &HardState{Term: 2, VotedFor: 1},
		Messages:  []Message{voteReq(2), voteReq(3), voteReq(4), voteReq(5)},
		Events:    []Event{{Kind: EventPreVoteWon}, {Kind: EventElection}},
	})
	want := Counters{PreVoteRounds: 1, PreVotesWon: 1, Elections: 1}
	if got := ctr.Counters; got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
}

// TestGoldenFirstTimer pins when a core first campaigns. A core that
// recovered nothing (term 0, no log, no snapshot) has no leader to wait for
// and no lease it could break, so its first pre-vote goes out on tick
// 1+jitter. A core that recovered a term or a snapshot waits the full
// ElectionTicks+jitter, and so does every arm after the first.
func TestGoldenFirstTimer(t *testing.T) {
	const et, jitter = 10, 3
	members := []types.NodeID{1, 2, 3}
	// firstCampaign ticks c until it sends anything and returns that tick,
	// checking that what it sent is a pre-vote round.
	firstCampaign := func(t *testing.T, c *Core) int {
		t.Helper()
		for tick := 1; tick <= 3*(et+jitter); tick++ {
			c.Tick()
			rd := c.TakeReady()
			if len(rd.Messages) == 0 {
				continue
			}
			if c.Role() != PreCandidate || rd.Messages[0].Type != MsgPreVoteRequest {
				t.Fatalf("tick %d: role %s sent %v, want a pre-vote round", tick, c.Role(), rd.Messages)
			}
			return tick
		}
		t.Fatal("the core never campaigned")
		return 0
	}
	for _, tc := range []struct {
		name    string
		hs      HardState
		snap    Snapshot
		entries []LogEntry
		want    int
	}{
		{"fresh", HardState{}, Snapshot{}, nil, 1 + jitter},
		{"recovered term", HardState{Term: 1}, Snapshot{}, nil, et + jitter},
		{"recovered log", HardState{Term: 1}, Snapshot{}, []LogEntry{{Term: 1, Kind: EntryNoOp}}, et + jitter},
		{"recovered snapshot", HardState{}, Snapshot{Index: 4, Term: 1, Members: members}, nil, et + jitter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{ID: 1, Members: members, ElectionTicks: et, Jitter: func() int { return jitter }},
				tc.hs, tc.snap, tc.entries)
			if got := firstCampaign(t, c); got != tc.want {
				t.Fatalf("first pre-vote on tick %d, want %d", got, tc.want)
			}
			// Nobody answered: the next round waits a full interval.
			if got := firstCampaign(t, c); got != et+jitter {
				t.Fatalf("second pre-vote %d ticks after the first, want %d", got, et+jitter)
			}
		})
	}
}

// TestGoldenStickyFollower pins stickiness against REAL vote requests: a
// follower with fresh leader contact ignores a disruptive higher-term
// campaign outright (no term bump, no response), but a Transfer-flagged
// request — the old leader's deliberate handoff — goes straight through.
func TestGoldenStickyFollower(t *testing.T) {
	f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
	f.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Seq: 1})
	f.TakeReady()

	// A rejoining node's campaign: dead silence.
	f.Step(Message{Type: MsgVoteRequest, From: 3, To: 2, Term: 2})
	assertReady(t, f.TakeReady(), Ready{})
	if f.Term() != 1 {
		t.Fatalf("sticky follower bumped its term to %d", f.Term())
	}

	// The same request under a transfer bypasses stickiness entirely.
	f.Step(Message{Type: MsgVoteRequest, From: 3, To: 2, Term: 2, Transfer: true})
	assertReady(t, f.TakeReady(), Ready{
		HardState: &HardState{Term: 2, VotedFor: 3},
		Messages:  []Message{{Type: MsgVoteResponse, From: 2, To: 3, Term: 2, Granted: true}},
		Events:    []Event{{Kind: EventTermBump}},
	})
}

// TestGoldenCheckQuorumStepDown pins the step-down effect: a leader that
// hears from no quorum within an election interval (after one interval of
// grace for never-seen peers) drops to follower in the SAME term, reporting
// EventStepDown for the driver — no HardState change, since nothing durable
// moved.
func TestGoldenCheckQuorumStepDown(t *testing.T) {
	c := leader3(t) // ElectionTicks = 1: every tick is a quorum check

	// First check seeds the never-heard peers (grace): still leader. The
	// tick's heartbeat goes out first.
	var ctr tally
	c.Tick()
	hb := func(to types.NodeID, seq uint64) Message {
		return Message{Type: MsgAppendEntries, From: 1, To: to, Term: 1,
			PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{}, Seq: seq}
	}
	assertReady(t, ctr.ready(c), Ready{Messages: []Message{hb(2, 3), hb(3, 4)}})
	if c.Role() != Leader {
		t.Fatalf("stepped down inside the grace interval (role %s)", c.Role())
	}

	// Grace expired with total silence: the next check steps down.
	c.Tick()
	assertReady(t, ctr.ready(c), Ready{
		Messages: []Message{hb(2, 5), hb(3, 6)},
		Events:   []Event{{Kind: EventStepDown}},
	})
	if c.Role() != Follower || c.Leader() != types.NoNode {
		t.Fatalf("after step-down: role %s, leader %s", c.Role(), c.Leader())
	}
	if got := ctr.StepDowns; got != 1 {
		t.Fatalf("StepDowns = %d, want 1", got)
	}
}

// TestGoldenCheckQuorumKeepAlive is the contact-path counterpart: a leader
// whose followers keep acking never steps down. (ElectionTicks = 2: with a
// 1-tick interval no ack can land inside the contact window.)
func TestGoldenCheckQuorumKeepAlive(t *testing.T) {
	c := New(Config{
		ID:            1,
		Members:       []types.NodeID{1, 2, 3},
		ElectionTicks: 2,
		Jitter:        func() int { return 0 },
	}, HardState{}, Snapshot{}, nil)
	var ctr tally
	c.Tick() // a fresh core's first timeout → pre-vote round
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	if c.Role() != Leader {
		t.Fatalf("bootstrap failed (role %s)", c.Role())
	}
	ctr.ready(c)
	for i := 0; i < 8; i++ {
		c.Tick()
		if ctr.ready(c); ctr.StepDowns != 0 {
			t.Fatalf("tick %d: stepped down despite live followers", i)
		}
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
		c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 2})
		ctr.ready(c)
	}
	if c.Role() != Leader {
		t.Fatalf("role = %s, want Leader", c.Role())
	}
	if got := ctr.StepDowns; got != 0 {
		t.Fatalf("StepDowns = %d, want 0", got)
	}
}

// TestGoldenTransferHandoff pins the happy path end to end: proposals
// pause, a laggard target is caught up first, the ack at the full log
// triggers MsgTimeoutNow, and the target's Transfer-flagged vote request
// completes the handoff at the old leader without counting as an abort.
func TestGoldenTransferHandoff(t *testing.T) {
	t.Run("caught-up target gets TimeoutNow immediately", func(t *testing.T) {
		c := leader3(t)
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
		c.TakeReady() // commits the no-op
		// NoNode auto-picks the most caught-up voter: S2.
		if err := c.TransferLeader(types.NoNode); err != nil {
			t.Fatal(err)
		}
		assertReady(t, c.TakeReady(), Ready{
			Messages: []Message{{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1}},
			Events:   []Event{{Kind: EventTransferStarted, Peer: 2}},
		})
		if got := c.transferTarget; got != 2 {
			t.Fatalf("TransferTarget = %s, want S2", got)
		}
	})

	t.Run("laggard target is caught up, ack triggers the handoff", func(t *testing.T) {
		c := leader3(t)
		var ctr tally
		if _, _, err := c.Propose([]byte("a")); err != nil {
			t.Fatal(err)
		}
		ctr.ready(c) // drain the broadcast (seq 3, 4); lastIndex = 2
		if err := c.TransferLeader(2); err != nil {
			t.Fatal(err)
		}
		// The target's pipelined nextIndex already covers the log: the
		// catch-up probe is an empty append awaiting its ack.
		assertReady(t, ctr.ready(c), Ready{
			Messages: []Message{{Type: MsgAppendEntries, From: 1, To: 2, Term: 1,
				PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{}, Seq: 5}},
			Events: []Event{{Kind: EventTransferStarted, Peer: 2}},
		})

		// Proposals pause while the handoff is in flight.
		if _, _, err := c.Propose([]byte("b")); !errors.Is(err, ErrTransferInProgress) {
			t.Fatalf("Propose during transfer: %v, want ErrTransferInProgress", err)
		}
		if _, _, err := c.ProposeConfig(types.NewNodeSet(1, 2)); !errors.Is(err, ErrTransferInProgress) {
			t.Fatalf("ProposeConfig during transfer: %v, want ErrTransferInProgress", err)
		}

		// The ack that shows the target holding the whole log triggers
		// TimeoutNow (and, being a quorum ack, commits indexes 1-2).
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 3})
		assertReady(t, ctr.ready(c), Ready{
			Messages: []Message{{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1}},
			Committed: []ApplyMsg{
				{Index: 1, Term: 1, Kind: EntryNoOp},
				{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("a")},
			},
		})

		// The target's transfer campaign reaches the old leader: the
		// Transfer flag from the expected target resolves the handoff as a
		// SUCCESS (no abort tally), and the old leader votes for it.
		c.Step(Message{Type: MsgVoteRequest, From: 2, To: 1, Term: 2, Transfer: true, LastLogIndex: 2, LastLogTerm: 1})
		assertReady(t, ctr.ready(c), Ready{
			HardState: &HardState{Term: 2, VotedFor: 2},
			Messages:  []Message{{Type: MsgVoteResponse, From: 1, To: 2, Term: 2, Granted: true}},
			Events:    []Event{{Kind: EventTermBump}},
		})
		if ctr.TransfersStarted != 1 || ctr.TransfersAborted != 0 {
			t.Fatalf("transfers started/aborted = %d/%d, want 1/0", ctr.TransfersStarted, ctr.TransfersAborted)
		}
	})
}

// TestGoldenTransferAbort pins the two abort paths — deadline expiry and
// deposition — plus the argument checks.
func TestGoldenTransferAbort(t *testing.T) {
	t.Run("deadline expiry resumes proposals", func(t *testing.T) {
		c := leader3(t) // ElectionTicks = 1: the transfer gets one tick
		var ctr tally
		if err := c.TransferLeader(2); err != nil {
			t.Fatal(err)
		}
		ctr.ready(c)
		c.Tick() // deadline passes with no ack from the target
		ctr.ready(c)
		if got := c.transferTarget; got != types.NoNode {
			t.Fatalf("transfer still pending at %s after the deadline", got)
		}
		if _, _, err := c.Propose([]byte("x")); err != nil {
			t.Fatalf("Propose after abort: %v", err)
		}
		if ctr.TransfersStarted != 1 || ctr.TransfersAborted != 1 {
			t.Fatalf("transfers started/aborted = %d/%d, want 1/1", ctr.TransfersStarted, ctr.TransfersAborted)
		}
	})

	t.Run("deposition cancels the transfer", func(t *testing.T) {
		c := leader3(t)
		var ctr tally
		if err := c.TransferLeader(2); err != nil {
			t.Fatal(err)
		}
		ctr.ready(c)
		// A NEW leader's append at a higher term folds us — and kills the
		// transfer with it.
		c.Step(Message{Type: MsgAppendEntries, From: 3, To: 1, Term: 2, Seq: 1})
		ctr.ready(c)
		if got := c.transferTarget; got != types.NoNode {
			t.Fatalf("transfer survived deposition (target %s)", got)
		}
		if got := ctr.TransfersAborted; got != 1 {
			t.Fatalf("TransfersAborted = %d, want 1", got)
		}
	})

	t.Run("argument checks", func(t *testing.T) {
		c := leader3(t)
		if err := c.TransferLeader(9); !errors.Is(err, ErrBadTransferTarget) {
			t.Fatalf("transfer to a non-member: %v, want ErrBadTransferTarget", err)
		}
		if err := c.TransferLeader(1); err != nil || c.transferTarget != types.NoNode {
			t.Fatalf("transfer to self: err %v, target %s (want nil no-op)", err, c.transferTarget)
		}
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil)
		if err := f.TransferLeader(1); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("transfer at a follower: %v, want ErrNotLeader", err)
		}
	})
}

// TestGoldenTimeoutNowTarget pins the receiving side: a current-term
// MsgTimeoutNow makes even a sticky follower campaign immediately — real
// election, no pre-vote — with Transfer-flagged requests; stale ones and
// removed nodes ignore it.
func TestGoldenTimeoutNowTarget(t *testing.T) {
	f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 2}, nil)
	var ctr tally
	f.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, Seq: 1})
	ctr.ready(f) // sticky from here

	// A stale handoff (the old leader's term already passed) is a no-op.
	f.Step(Message{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1})
	assertReady(t, ctr.ready(f), Ready{})

	f.Step(Message{Type: MsgTimeoutNow, From: 1, To: 2, Term: 2})
	voteReq := func(to types.NodeID) Message {
		return Message{Type: MsgVoteRequest, From: 2, To: to, Term: 3, Transfer: true}
	}
	assertReady(t, ctr.ready(f), Ready{
		HardState: &HardState{Term: 3, VotedFor: 2},
		Messages:  []Message{voteReq(1), voteReq(3)},
		Events:    []Event{{Kind: EventTransferCampaign}, {Kind: EventElection}},
	})
	if ctr.TransferElections != 1 || ctr.PreVoteRounds != 0 {
		t.Fatalf("transfer elections/pre-vote rounds = %d/%d, want 1/0", ctr.TransferElections, ctr.PreVoteRounds)
	}

	// A node outside its own effective configuration never campaigns, even
	// when told to.
	out := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1},
		[]LogEntry{{Term: 1, Kind: EntryConfig, Members: []types.NodeID{1, 3}}})
	out.Step(Message{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1})
	assertReady(t, out.TakeReady(), Ready{})
}

// TestGoldenProposeConfigHandsOff pins the hand-off rule: a change that
// removes the leader appends nothing, starts a transfer to the most
// caught-up voter of the new membership and refuses; a change R1 rejects
// starts no transfer.
func TestGoldenProposeConfigHandsOff(t *testing.T) {
	c := leader3(t)
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady() // S2 caught up, S3 behind
	last := c.LastIndex()
	if _, _, err := c.ProposeConfig(types.NewNodeSet(2, 3)); !errors.Is(err, ErrTransferInProgress) {
		t.Fatalf("ProposeConfig shedding the leader: %v, want ErrTransferInProgress", err)
	}
	if got := c.LastIndex(); got != last {
		t.Fatalf("LastIndex = %d after a refused hand-off, want %d", got, last)
	}
	if got := c.transferTarget; got != 2 {
		t.Fatalf("TransferTarget = %s, want the caught-up S2", got)
	}
	assertReady(t, c.TakeReady(), Ready{
		Messages: []Message{{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1}},
		Events:   []Event{{Kind: EventTransferStarted, Peer: 2}},
	})
	if _, _, err := c.ProposeConfig(types.NewNodeSet(2, 3)); !errors.Is(err, ErrTransferInProgress) {
		t.Fatalf("ProposeConfig again: %v, want ErrTransferInProgress", err)
	}
	assertReady(t, c.TakeReady(), Ready{})

	fresh := leader3(t)
	fresh.TakeReady()
	if _, _, err := fresh.ProposeConfig(types.NewNodeSet(2)); !errors.Is(err, ErrBadMembership) {
		t.Fatalf("ProposeConfig removing two nodes: %v, want ErrBadMembership", err)
	}
	if got := fresh.transferTarget; got != types.NoNode {
		t.Fatalf("R1 refusal started a transfer to %s", got)
	}
}

// TestProposeConfigR1 pins R1 as the single-node scheme's R1⁺ minus the
// unchanged set: a swap (one in, one out) and the unchanged set are refused
// with the text clients have always seen, and a one-node step is admitted.
func TestProposeConfigR1(t *testing.T) {
	c := leader3(t)
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady() // commits the no-op: R3 holds
	for _, tc := range []struct {
		members types.NodeSet
		want    string
	}{
		{types.NewNodeSet(1, 2, 4), "raft: invalid membership change (R1): {S1,S2,S3} → {S1,S2,S4} changes 2 nodes"},
		{types.NewNodeSet(1, 2, 3), "raft: invalid membership change (R1): {S1,S2,S3} → {S1,S2,S3} changes 0 nodes"},
	} {
		if _, _, err := c.ProposeConfig(tc.members); err == nil || err.Error() != tc.want {
			t.Errorf("ProposeConfig(%s) = %v, want %q", tc.members, err, tc.want)
		}
	}
	if _, _, err := c.ProposeConfig(types.NewNodeSet(1, 2, 3, 4)); err != nil {
		t.Fatalf("ProposeConfig adding one node: %v", err)
	}
}

// TestGoldenPickTransferTarget pins target selection: most caught-up wins,
// the chooser itself and non-members are excluded, and only a leader picks.
func TestGoldenPickTransferTarget(t *testing.T) {
	c := leader3(t)
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.TakeReady()
	if got := c.pickTransferTarget(types.NewNodeSet(2, 3)); got != 2 {
		t.Fatalf("pick of {2,3} = %s, want the caught-up S2", got)
	}
	if got := c.pickTransferTarget(types.NewNodeSet(3)); got != 3 {
		t.Fatalf("pick of {3} = %s, want S3", got)
	}
	if got := c.pickTransferTarget(types.NewNodeSet(1)); got != types.NoNode {
		t.Fatalf("pick of {self} = %s, want NoNode", got)
	}
	if got := c.pickTransferTarget(types.NewNodeSet(9)); got != types.NoNode {
		t.Fatalf("pick of a non-member = %s, want NoNode", got)
	}
	f := follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil)
	if got := f.pickTransferTarget(types.NewNodeSet(1, 3)); got != types.NoNode {
		t.Fatalf("pick at a follower = %s, want NoNode", got)
	}
}
