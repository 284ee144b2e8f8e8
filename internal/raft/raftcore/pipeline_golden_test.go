package raftcore

// Golden tests for the pipelined write: when TakeUnstable hands out a second
// batch beside the outstanding one, what it covers, and how Stable reports
// the two (see pipelinable).

import (
	"testing"

	"adore/internal/types"
)

// TestPipelineNothingBesideHardState: a batch goes out beside the outstanding
// one only if neither carries a HardState. A vote in flight holds back the
// append that follows it, and a term adopted during a pure append's write
// holds back the batch that carries it; each goes out once nothing is in
// flight, from the dirty index as ever.
func TestPipelineNothingBesideHardState(t *testing.T) {
	members := []types.NodeID{1, 2, 3}
	x := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("x")}

	t.Run("the outstanding write carries a HardState", func(t *testing.T) {
		c := follower(2, members, HardState{}, nil)
		c.Step(Message{Type: MsgVoteRequest, From: 1, To: 2, Term: 1})
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 1, VotedFor: 1}})
		c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, Entries: []LogEntry{x}, Seq: 1})
		assertNoUnstable(t, c)
		c.Stable(1)
		assertUnstable(t, c, Unstable{FirstIndex: 1, Entries: []LogEntry{x}})
	})

	t.Run("the next batch carries a HardState", func(t *testing.T) {
		noop := LogEntry{Term: 1, Kind: EntryNoOp}
		y := LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("y")}
		c := follower(2, members, HardState{Term: 1}, []LogEntry{noop})
		c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{x}, Seq: 1})
		assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{x}})
		// A term-2 leader appends above x: a new term, no cut.
		c.Step(Message{Type: MsgAppendEntries, From: 3, To: 2, Term: 2, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{y}, Seq: 1})
		assertNoUnstable(t, c)
		c.Stable(1)
		assertUnstable(t, c, Unstable{HardState: &HardState{Term: 2}, FirstIndex: 3, Entries: []LogEntry{y}})
	})
}

// TestPipelineNothingAfterCut: once the log is cut below or inside the
// outstanding write, nothing goes out beside it — a late landing of the older
// write would put the cut entries back over the younger one's. In a live
// cluster a cut comes with a new term or a snapshot, which hold the batch back
// by themselves; the crafted same-term conflict here isolates the cut rule.
// With the guard off the rewrite goes out beside the older write.
func TestPipelineNothingAfterCut(t *testing.T) {
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	a := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("a")}
	b := LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("b")}
	x := LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("x")}
	for _, guard := range []bool{true, false} {
		c := New(Config{ID: 2, Members: []types.NodeID{1, 2, 3}, Jitter: func() int { return 0 },
			Ablation: Ablation{DisablePipelineGuard: !guard}}, HardState{Term: 2}, Snapshot{}, []LogEntry{noop, a})
		c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, PrevLogIndex: 2, PrevLogTerm: 1, Entries: []LogEntry{b}, Seq: 1})
		assertUnstable(t, c, Unstable{FirstIndex: 3, Entries: []LogEntry{b}})
		// x conflicts with a at 2: the log is cut at 2 under the write of 3.
		c.Step(Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 2, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{x}, Seq: 2})
		if got := c.StableIndex(); got != 1 {
			t.Fatalf("stable index = %d after the cut at 2, want 1", got)
		}
		if !guard {
			assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{x}})
			continue
		}
		assertNoUnstable(t, c)
		c.Stable(1) // the write of 3 lands: it makes nothing durable any more
		if got := c.StableIndex(); got != 1 {
			t.Fatalf("stable index = %d after the cut write landed, want 1", got)
		}
		assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{x}})
	}
}

// TestPipelineLaterWriteLandsFirst: the second write covers the first, so
// when it lands first Stable(2) reports both — the stable index jumps to the
// second's last entry and the leader broadcasts once — and a late Stable of
// nothing changes nothing.
func TestPipelineLaterWriteLandsFirst(t *testing.T) {
	c := leaderET(t, 10)
	a := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("a")}
	b := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("b")}
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 1})
	c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: 2})
	assertEffects(t, c, Effects{Committed: []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}}})
	c.Propose(a.Command)
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{a}})
	c.Propose(b.Command)
	assertUnstable(t, c, Unstable{FirstIndex: 2, Entries: []LogEntry{a, b}})

	c.Stable(2)
	if got := c.StableIndex(); got != 3 {
		t.Fatalf("stable index = %d after the covering write landed, want 3", got)
	}
	assertEffects(t, c, Effects{Messages: []Message{
		{Type: MsgAppendEntries, From: 1, To: 2, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{a, b}, LeaderCommit: 1, Seq: 3},
		{Type: MsgAppendEntries, From: 1, To: 3, Term: 1, PrevLogIndex: 1, PrevLogTerm: 1, Entries: []LogEntry{a, b}, LeaderCommit: 1, Seq: 4},
	}})
	c.Stable(1)
	assertEffects(t, c, Effects{})
	assertNoUnstable(t, c)
}

// TestPipelineStallFromOldest: the stalled-disk step-down counts from the
// oldest outstanding write, not the newest; once that one lands the clock is
// the next one's.
func TestPipelineStallFromOldest(t *testing.T) {
	const et = 4
	c := leaderET(t, et)
	seq := uint64(0)
	ack := func() {
		seq++
		c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 1, Seq: seq})
	}
	tick := func(n int) {
		for i := 0; i < n; i++ {
			c.Tick()
			ack() // the followers keep answering: CheckQuorum alone never fires
		}
		c.TakeEffects()
	}
	ack()
	c.Propose([]byte("a"))
	if _, ok := c.TakeUnstable(); !ok {
		t.Fatal("no batch for a")
	}
	tick(2)
	c.Propose([]byte("b"))
	if _, ok := c.TakeUnstable(); !ok {
		t.Fatal("no batch for b beside a")
	}
	tick(et - 3)
	c.Stable(1) // a lands one tick before it would have stalled
	tick(et - 2)
	if c.Role() != Leader {
		t.Fatalf("role = %s with b %d ticks old, want leader", c.Role(), et-1)
	}
	tick(1)
	if c.Role() != Follower {
		t.Fatalf("role = %s with b an election interval old, want follower", c.Role())
	}

	// Without the landing, the older write's age decides.
	c = leaderET(t, et)
	seq = 0
	ack()
	c.Propose([]byte("a"))
	c.TakeUnstable()
	tick(2)
	c.Propose([]byte("b"))
	c.TakeUnstable()
	tick(et - 3)
	if c.Role() != Leader {
		t.Fatalf("role = %s with a %d ticks old, want leader", c.Role(), et-1)
	}
	tick(1)
	if c.Role() != Follower {
		t.Fatalf("role = %s with a an election interval old and b younger, want follower", c.Role())
	}
}
