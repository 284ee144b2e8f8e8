package raftcore

// Golden tests for the staged Ready contract: what TakeUnstable hands out,
// what TakeEffects lets leave while that batch is still being written, and
// what Stable — and only Stable — releases. Each rule of the acked⇒durable
// argument has one test here; together they are the core side of it (the
// driver side, "Stable only after the write returned without error", is
// adore-lint's effect-order pass).

import (
	"reflect"
	"testing"

	"adore/internal/types"
)

func assertUnstable(t *testing.T, c *Core, want Unstable) {
	t.Helper()
	got, ok := c.TakeUnstable()
	if !ok {
		t.Fatalf("TakeUnstable: nothing handed out, want %#v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unstable mismatch\n got: %#v\nwant: %#v", got, want)
	}
}

func assertNoUnstable(t *testing.T, c *Core) {
	t.Helper()
	if u, ok := c.TakeUnstable(); ok {
		t.Fatalf("TakeUnstable handed out %#v, want nothing", u)
	}
}

func assertEffects(t *testing.T, c *Core, want Effects) {
	t.Helper()
	if got := c.TakeEffects(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Effects mismatch\n got: %#v\nwant: %#v", got, want)
	}
}

// TestStagedLeaderPersistsBeforeReplicating: Propose only appends and marks
// dirty; a proposal during the write goes out as a second, pipelined write
// from the stable index up; while the writes are outstanding heartbeats carry
// no entry above the stable index and the leader does not count itself
// toward a commit, however many followers claim the index; each Stable
// broadcasts the newly stable suffix and casts the leader's own vote.
func TestStagedLeaderPersistsBeforeReplicating(t *testing.T) {
	c := leaderET(t, 10) // an election interval longer than the test: no stall
	a := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("a")}
	b := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("b")}
	if _, _, err := c.Propose(a.Command); err != nil {
		t.Fatal(err)
	}
	assertEffects(t, c, Effects{}) // no broadcast: a is not durable here yet
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{a}})

	// A second proposal arrives during the write: it goes out as a second
	// write beside the first, from stableIndex+1, so it covers a too.
	if _, _, err := c.Propose(b.Command); err != nil {
		t.Fatal(err)
	}
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{a, b}})
	assertNoUnstable(t, c) // two writes in flight: the FIFO is full
	assertEffects(t, c, Effects{})

	// The heartbeat ships nothing above the stable index (1).
	c.Tick()
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{}, Seq: 3},
		{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{}, Seq: 4},
	}})

	// S2 acks the no-op: 1 commits (S1 stable through 1, S2 at 1).
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 3})
	assertEffects(t, c, Effects{Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}}})

	// Even a follower claiming index 2 cannot commit it: with S3 silent the
	// quorum needs the leader, and the leader votes with its disk.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 3})
	assertEffects(t, c, Effects{})
	if got := c.CommitIndex(); got != 1 {
		t.Fatalf("commit index = %d with the leader's copy of 2 still unstable, want 1", got)
	}

	// Stable(a): the newly stable suffix goes out and the leader's vote
	// lands (2 commits on S1+S2); b is still in the second write.
	c.Stable(1)
	if got := c.StableIndex(); got != 2 {
		t.Fatalf("stable index = %d, want 2", got)
	}
	assertEffects(t, c, Effects{
		Messages: []Message{
			// S2 already claimed 2, so nextIndex[2] = 3: nothing new for it.
			{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{}, LeaderCommit: 1, Seq: 5},
			{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{a}, LeaderCommit: 1, Seq: 6},
		},
		Committed: []ApplyMsg{{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("a")}},
	})
	assertNoUnstable(t, c) // b went out beside a: nothing is left to write

	// Stable(b): 3 goes out to both followers; none holds it yet, so nothing
	// commits.
	c.Stable(1)
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{b}, LeaderCommit: 2, Seq: 7},
		{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{b}, LeaderCommit: 2, Seq: 8},
	}})
	assertNoUnstable(t, c)
}

// TestStagedFollowerAckClampedToStable: a success ack never claims a
// MatchIndex above the follower's stable index. The ack for new entries is
// held; an empty append meanwhile is answered at once, clamped; appends that
// arrive during the write are covered by ONE following write (follower group
// commit); each Stable releases the ack as far as the disk now reaches. The
// entries themselves deliver as soon as the leader names them committed,
// whatever this disk is doing: the ack is a promise, the commit is knowledge.
func TestStagedFollowerAckClampedToStable(t *testing.T) {
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, []LogEntry{noop})
	e := func(s string) LogEntry { return LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(s)} }
	app := func(prev int, seq uint64, commit int, es ...LogEntry) Message {
		return Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1,
			PrevLogIndex: prev, PrevLogTerm: 1, Entries: es, LeaderCommit: commit, Seq: seq}
	}
	ack := func(match int, seq uint64) Message {
		return Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: match, Seq: seq}
	}

	c.Step(app(1, 10, 1, e("a"), e("b"))) // indexes 2, 3
	// The no-op (stable) is delivered; the ack for 2..3 is held.
	assertEffects(t, c, Effects{Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}}})
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{e("a"), e("b")}})

	// A heartbeat during the write: answered at once, MatchIndex clamped to
	// the stable index (1). The commit index it carries (3) delivers 2..3 on
	// the spot — a quorum holds them, this log matches the leader's through
	// 3 — while the ack still claims nothing above the disk.
	c.Step(app(3, 11, 3))
	assertEffects(t, c, Effects{
		Messages: []Message{ack(1, 11)},
		Committed: []ApplyMsg{
			{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("a")},
			{Index: 3, Term: 1, Kind: EntryCommand, Command: []byte("b")},
		},
	})
	if applied, stable := c.AppliedIndex(), c.StableIndex(); applied != 3 || stable != 1 {
		t.Fatalf("applied %d, stable %d; want 3 applied over a disk still at 1", applied, stable)
	}

	// Two more appends arrive during the write: one pipelined write from
	// the stable index up covers the outstanding write and both appends.
	c.Step(app(3, 12, 3, e("c")))
	c.Step(app(4, 13, 3, e("d")))
	assertEffects(t, c, Effects{})
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{e("a"), e("b"), e("c"), e("d")}})
	assertNoUnstable(t, c)

	// Stable(2..3): the held ack goes as far as the disk reaches — 3, echoing
	// the newest Seq — and the rest stays held.
	c.Stable(1)
	assertEffects(t, c, Effects{Messages: []Message{ack(3, 13)}})
	assertNoUnstable(t, c) // c and d are in the second write already
	c.Stable(1)
	assertEffects(t, c, Effects{Messages: []Message{ack(5, 13)}})
	assertNoUnstable(t, c)
}

// TestStagedHardStateHoldsMessages: everything produced while the HardState
// is unstable — a vote grant, an append ack at a newly adopted term, a
// candidate's vote requests — waits for that HardState's Stable. Pre-Vote
// traffic, forwarded reads and their replies are free.
func TestStagedHardStateHoldsMessages(t *testing.T) {
	members := []types.NodeID{1, 2, 3}

	t.Run("vote grant waits for its SaveState", func(t *testing.T) {
		c := follower(2, members, HardState{}, nil)
		c.Step(Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1})
		assertEffects(t, c, Effects{Events: []Event{{Kind: EventTermBump}}}) // a fact, not a promise: free
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 1, VotedFor: 1}})
		// Still unsent while the write is outstanding — and a pre-vote
		// canvass in the meantime is answered at once.
		c.Step(Message{Type: MsgPreVoteRequest, From: 3, To: 2, Term: 2})
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgPreVoteResponse, From: 2, To: 3, Term: 2, Granted: true},
		}})
		c.Stable(1)
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true},
		}})
	})

	t.Run("a heartbeat ack at a newly adopted term waits for the term", func(t *testing.T) {
		c := follower(2, members, HardState{Term: 1}, nil)
		c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, Seq: 1})
		assertEffects(t, c, Effects{Events: []Event{{Kind: EventTermBump}}})
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 2}})
		// A forwarded read is not a promise about term or vote: free.
		if err := c.ReadIndex(7); err != nil {
			t.Fatal(err)
		}
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgReadIndexRequest, From: 2, To: 1, Term: 2, ReadCtx: 7},
		}})
		c.Stable(1)
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgAppendResponse, From: 2, To: 1, Term: 2, Success: true, Seq: 1},
		}})
	})

	t.Run("a candidate's vote requests wait for its self-vote", func(t *testing.T) {
		c := New(Config{ID: 1, Members: members, ElectionTicks: 1, Jitter: func() int { return 0 }},
			HardState{}, Snapshot{}, nil)
		c.Tick()
		// The pre-vote canvass persists nothing and leaves at once.
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgPreVoteRequest, From: 1, To: 2, Term: 1},
			{Type: MsgPreVoteRequest, From: 1, To: 3, Term: 1},
		}, Events: []Event{{Kind: EventPreVoteRound}}})
		c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
		assertEffects(t, c, Effects{Events: []Event{{Kind: EventPreVoteWon}, {Kind: EventElection}}})
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 1, VotedFor: 1}})
		c.Stable(1)
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgVoteRequest, From: 1, To: 2, Term: 1},
			{Type: MsgVoteRequest, From: 1, To: 3, Term: 1},
		}})
	})

	t.Run("a newer HardState change keeps the old batch's messages held", func(t *testing.T) {
		c := follower(2, members, HardState{}, nil)
		c.Step(Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1})
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 1, VotedFor: 1}})
		// Term 2 arrives during the write: the term-1 grant is a promise at
		// a superseded term — dropped like a lost message — and the term-2
		// ack waits for the NEXT write.
		c.Step(Message{Type: MsgAppendEntries, From: 3, To: 2, Term: 2, Seq: 1})
		c.Stable(1)
		assertEffects(t, c, Effects{Events: []Event{{Kind: EventTermBump}, {Kind: EventTermBump}}})
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 2}})
		c.Stable(1)
		assertEffects(t, c, Effects{Messages: []Message{
			{Type: MsgAppendResponse, From: 2, To: 3, Term: 2, Success: true, Seq: 1},
		}})
	})
}

// TestStagedTruncationClipsStable: a conflict truncation during a write
// pulls the stable index (and what the outstanding write may claim) below
// the truncation point, and the following batch re-persists from there.
func TestStagedTruncationClipsStable(t *testing.T) {
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, []LogEntry{{Term: 1, Kind: EntryNoOp}})
	old := []LogEntry{
		{Term: 1, Kind: EntryCommand, Command: []byte("x")},
		{Term: 1, Kind: EntryCommand, Command: []byte("y")},
	}
	c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: old, Seq: 1})
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: old})
	// A term-2 leader overwrites index 3 while 2..3 are being written.
	z := LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("z")}
	c.Step(Message{Type: MsgAppendEntries, From: 3, To: 2, Term: 2, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{z}, Seq: 1})
	c.Stable(1)
	if got := c.StableIndex(); got != 2 {
		t.Fatalf("stable index = %d after a truncation at 3 during the write of 2..3, want 2", got)
	}
	assertEffects(t, c, Effects{Events: []Event{{Kind: EventTermBump}}}) // the term-1 ack died with its term
	assertUnstable(t, c, Unstable{HardState: &HardState{Term: 2}, FirstIndex: 3, Entries: []LogEntry{z}})
	c.Stable(1)
	// The first Stable released the term-2 ack as far as index 2 — into the
	// hold for term 2's HardState; this one releases that and the rest.
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendResponse, From: 2, To: 3, Term: 2, Success: true, MatchIndex: 2, Seq: 1},
		{Type: MsgAppendResponse, From: 2, To: 3, Term: 2, Success: true, MatchIndex: 3, Seq: 1},
	}})
}

// TestStagedInstallSnapshotReleasedByStable: an installed image is acked,
// and restored into the state machine, only once it is on disk.
func TestStagedInstallSnapshotReleasedByStable(t *testing.T) {
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
	img := []byte("image")
	c.Step(Message{Type: MsgInstallSnapshot, From: 1, To: 2, Term: 1,
		SnapIndex: 5, SnapTerm: 1, SnapMembers: []types.NodeID{1, 2, 3}, SnapTotal: len(img), SnapData: img, Seq: 4})
	assertEffects(t, c, Effects{})
	snap := &Snapshot{Index: 5, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: img}
	assertUnstable(t, c, Unstable{Snapshot: snap, FirstIndex: 6, Entries: []LogEntry{}})
	// A heartbeat during the write is acked below the image.
	c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 5, PrevLogTerm: 1, LeaderCommit: 5, Seq: 5})
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 0, Seq: 5},
	}})
	c.Stable(1)
	assertEffects(t, c, Effects{
		Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 5, Seq: 4}},
		Restore:  snap,
	})
}

// TestStagedRestorePrecedesCommitted: commit deliveries no longer wait for
// the local disk, with one exception. While an installed image is being
// written the driver still holds the OLD state machine, so entries the leader
// appends and commits above the image are held back, and come out behind the
// Restore in the same Effects once the image is stable.
func TestStagedRestorePrecedesCommitted(t *testing.T) {
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
	img := []byte("image")
	c.Step(Message{Type: MsgInstallSnapshot, From: 1, To: 2, Term: 1,
		SnapIndex: 5, SnapTerm: 1, SnapMembers: []types.NodeID{1, 2, 3}, SnapTotal: len(img), SnapData: img, Seq: 4})
	snap := &Snapshot{Index: 5, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: img}
	assertUnstable(t, c, Unstable{Snapshot: snap, FirstIndex: 6, Entries: []LogEntry{}})

	// The leader streams on: 6..7 arrive and are named committed while the
	// image is on its way to disk.
	x := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("x")}
	y := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("y")}
	c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 5, PrevLogTerm: 1,
		Entries: []LogEntry{x, y}, LeaderCommit: 7, Seq: 5})
	assertEffects(t, c, Effects{})
	c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 7, PrevLogTerm: 1, LeaderCommit: 7, Seq: 6})
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 0, Seq: 6},
	}})
	if commit, applied := c.CommitIndex(), c.AppliedIndex(); commit != 7 || applied != 5 {
		t.Fatalf("commit %d, applied %d; want 7 known committed and nothing delivered above the image (5)", commit, applied)
	}

	// Stable(image): the restore and the suffix above it, in one Effects (the
	// driver delivers Restore first); the ack reaches as far as the disk does.
	c.Stable(1)
	assertEffects(t, c, Effects{
		Messages: []Message{{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 5, Seq: 5}},
		Restore:  snap,
		Committed: []ApplyMsg{
			{Index: 6, Term: 1, Kind: EntryCommand, Command: []byte("x")},
			{Index: 7, Term: 1, Kind: EntryCommand, Command: []byte("y")},
		},
	})
	assertUnstable(t, c, Unstable{FirstIndex: 6, Entries: []LogEntry{x, y}})
	c.Stable(1)
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 7, Seq: 5},
	}})
}

// TestStagedCompactAboveStable: a follower applies ahead of its disk, so the
// image that answers TakeSnapshot can cover entries its WAL never held.
// Compact accepts it: the stable index sits below the new base until the image
// lands, the covered entries are never written, and the image's Stable lifts
// the watermark to the base — at which point the ack may claim it.
func TestStagedCompactAboveStable(t *testing.T) {
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	c := New(Config{ID: 2, Members: []types.NodeID{1, 2, 3}, Jitter: func() int { return 0 }, SnapshotThreshold: 3},
		HardState{Term: 1}, Snapshot{}, []LogEntry{noop})
	e := func(s string) LogEntry { return LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(s)} }
	app := func(prev int, seq uint64, commit int, es ...LogEntry) Message {
		return Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1,
			PrevLogIndex: prev, PrevLogTerm: 1, Entries: es, LeaderCommit: commit, Seq: seq}
	}
	ack := func(match int, seq uint64) Message {
		return Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: match, Seq: seq}
	}
	applied := func(idx int, en LogEntry) ApplyMsg {
		return ApplyMsg{Index: idx, Term: en.Term, Kind: en.Kind, Command: en.Command}
	}

	c.Step(app(1, 1, 3, e("a"), e("b"))) // 2..3, committed on arrival
	assertEffects(t, c, Effects{
		Committed:    []ApplyMsg{applied(1, noop), applied(2, e("a")), applied(3, e("b"))},
		TakeSnapshot: &SnapshotRequest{Index: 3},
	})
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{e("a"), e("b")}})
	c.Step(app(3, 2, 4, e("c"))) // 4 arrives during the write of 2..3
	assertEffects(t, c, Effects{Committed: []ApplyMsg{applied(4, e("c"))}})

	// The state machine has applied through 4; the disk holds 1.
	img := []byte("image@4")
	if !c.Compact(4, img) {
		t.Fatal("Compact(4) rejected: an applied index above the stable one must be accepted")
	}
	if first, stable := c.FirstIndex(), c.StableIndex(); first != 5 || stable != 1 {
		t.Fatalf("after Compact(4): FirstIndex %d, StableIndex %d; want 5 over a disk still at 1", first, stable)
	}
	if c.Compact(5, img) {
		t.Fatal("Compact accepted an index beyond what was applied")
	}
	assertNoUnstable(t, c) // the image waits: nothing goes out beside a write while a snapshot is pending

	c.Stable(1) // 2..3 landed
	assertEffects(t, c, Effects{Messages: []Message{ack(3, 2)}})
	// The image alone: 4 is covered by it and never goes to the WAL.
	assertUnstable(t, c, Unstable{Snapshot: &Snapshot{Index: 4, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: img}})
	c.Stable(1)
	if got := c.StableIndex(); got != 4 {
		t.Fatalf("stable index = %d after the image at 4 landed, want 4", got)
	}
	assertEffects(t, c, Effects{Messages: []Message{ack(4, 2)}})

	// The log goes on from the new base.
	c.Step(app(4, 3, 4, e("d")))
	assertEffects(t, c, Effects{})
	assertUnstable(t, c, Unstable{FirstIndex: 5, Entries: []LogEntry{e("d")}})
}

// TestStagedNothingLeavesWithoutStable is the fail-stop half: a driver whose
// write failed never calls Stable, and then no promise the batch was backing
// ever leaves — no vote, no ack, however long the core keeps being stepped.
// The entry the leader named committed does: it rests on the quorum's disks.
func TestStagedNothingLeavesWithoutStable(t *testing.T) {
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil)
	c.Step(Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1})
	if _, ok := c.TakeUnstable(); !ok {
		t.Fatal("no batch for the vote")
	}
	x := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("x")}
	c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Entries: []LogEntry{x}, LeaderCommit: 1, Seq: 1})
	assertEffects(t, c, Effects{
		Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryCommand, Command: []byte("x")}},
		Events:    []Event{{Kind: EventTermBump}},
	})
	for i := 0; i < 5; i++ {
		c.Tick()
		assertNoUnstable(t, c)
		assertEffects(t, c, Effects{})
	}
}

// TestStagedStalledLeaderStepsDown: a leader whose outstanding batch has seen
// no Stable for an election interval steps down (heartbeats no longer wait
// for the disk, so nothing else would ever depose it), telling its most
// caught-up follower to campaign, and does not campaign itself while the
// batch is outstanding; once the disk answers it is an ordinary follower
// again.
func TestStagedStalledLeaderStepsDown(t *testing.T) {
	const et = 4
	c := leaderET(t, et)
	var ctr tally
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 2})
	ctr.ready(c)
	if _, _, err := c.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.TakeUnstable(); !ok {
		t.Fatal("no batch for the proposal")
	}
	// et-1 ticks: still leading (and heartbeating) on a silent disk. The
	// followers keep acking, so CheckQuorum alone would never fire.
	for i := 0; i < et-1; i++ {
		c.Tick()
		if e := ctr.effects(c); c.Role() != Leader || ctr.DiskStepDowns != 0 || len(e.Messages) != 2 {
			t.Fatalf("tick %d: role=%s step-downs=%d msgs=%d, want a heartbeating leader", i+1, c.Role(), ctr.DiskStepDowns, len(e.Messages))
		}
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: uint64(3 + 2*i)})
	}
	c.Tick()
	handoff := Message{Type: MsgTimeoutNow, From: 1, To: 2, Term: 1} // the first of the most caught up
	if e := ctr.effects(c); !reflect.DeepEqual(e, Effects{Messages: []Message{handoff}, Events: []Event{{Kind: EventDiskStepDown}}}) {
		t.Fatalf("Effects mismatch\n got: %#v", e)
	}
	if c.Role() != Follower || c.Leader() != types.NoNode {
		t.Fatalf("after the stall: role=%s leader=%s, want a leaderless follower", c.Role(), c.Leader())
	}
	if ctr.DiskStepDowns != 1 || ctr.StepDowns != 0 {
		t.Fatalf("step-downs: %d for the disk, %d for the quorum; want 1 and 0", ctr.DiskStepDowns, ctr.StepDowns)
	}
	// No campaign while the batch is outstanding.
	for i := 0; i < 3*et; i++ {
		c.Tick()
		assertEffects(t, c, Effects{})
	}
	if c.Role() != Follower || c.Term() != 1 {
		t.Fatalf("stalled node campaigned: role=%s term=%d", c.Role(), c.Term())
	}
	// The disk answers: an ordinary follower, free to campaign again.
	c.Stable(1)
	c.TakeEffects()
	for i := 0; i < et; i++ {
		c.Tick()
	}
	if c.Role() != PreCandidate {
		t.Fatalf("role = %s an election interval after the stall cleared, want pre-candidate", c.Role())
	}
}

// TestStagedTakeReadyIsTheComposition: TakeReady is TakeUnstable + Stable +
// TakeEffects, field for field, over a mixed input sequence.
func TestStagedTakeReadyIsTheComposition(t *testing.T) {
	mk := func() *Core {
		return New(Config{ID: 1, Members: []types.NodeID{1, 2, 3}, ElectionTicks: 2, Jitter: func() int { return 0 }},
			HardState{}, Snapshot{}, nil)
	}
	inputs := []func(c *Core){
		func(c *Core) { c.Tick() },
		func(c *Core) { c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true}) },
		func(c *Core) { c.Step(Message{Type: MsgVoteResponse, From: 3, To: 1, Term: 1, Granted: true}) },
		func(c *Core) { c.Propose([]byte("a")); c.Propose([]byte("b")) },
		func(c *Core) {
			c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 3, Seq: 3})
		},
		func(c *Core) { c.ReadIndex(5) },
		func(c *Core) { c.Tick() },
		func(c *Core) { c.Step(Message{Type: MsgAppendEntries, From: 3, To: 1, Term: 2, Seq: 1}) },
	}
	whole, staged := mk(), mk()
	for i, in := range inputs {
		in(whole)
		in(staged)
		u, ok := staged.TakeUnstable()
		if ok {
			staged.Stable(1)
		}
		e := staged.TakeEffects()
		want := Ready{
			HardState: u.HardState, Snapshot: u.Snapshot, RestoreSnapshot: e.Restore != nil,
			FirstIndex: u.FirstIndex, Entries: u.Entries,
			Messages: e.Messages, Committed: e.Committed, ReadStates: e.ReadStates,
			TakeSnapshot: e.TakeSnapshot, Events: e.Events,
		}
		if got := whole.TakeReady(); !reflect.DeepEqual(got, want) {
			t.Fatalf("input %d: TakeReady diverged from the staged calls\n got: %#v\nwant: %#v", i, got, want)
		}
	}
}
