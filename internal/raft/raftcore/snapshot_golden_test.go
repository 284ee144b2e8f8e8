package raftcore

// Golden tests for the compaction half of the effect contract: when the
// policy asks for a snapshot, what Compact stages into the next Ready,
// how a leader streams an image to a laggard, and what a follower
// persists, truncates, and acks for each InstallSnapshot shape.

import (
	"reflect"
	"testing"

	"adore/internal/types"
)

// singleLeader boots a single-member cluster with the given snapshot
// threshold; one tick elects it. On return the no-op at index 1 is
// committed and its Ready drained.
func singleLeader(t *testing.T, threshold int) *Core {
	t.Helper()
	c := New(Config{
		ID:                1,
		Members:           []types.NodeID{1},
		ElectionTicks:     1,
		Jitter:            func() int { return 0 },
		SnapshotThreshold: threshold,
	}, HardState{}, Snapshot{}, nil)
	c.Tick()
	if c.Role() != Leader {
		t.Fatalf("single node did not self-elect (role %s)", c.Role())
	}
	noop := LogEntry{Term: 1, Kind: EntryNoOp}
	assertReady(t, c.TakeReady(), Ready{
		HardState:  &HardState{Term: 1, VotedFor: 1},
		FirstIndex: 1,
		Entries:    []LogEntry{noop},
		Committed:  []ApplyMsg{{Index: 1, Term: 1, Kind: EntryNoOp}},
	})
	return c
}

// TestGoldenSnapshotPolicy pins the TakeSnapshot policy: it fires exactly
// when the applied distance reaches the threshold, latches until Compact
// or AbortSnapshot answers it, and Compact stages the durable Snapshot
// (and nothing else) into the following Ready.
func TestGoldenSnapshotPolicy(t *testing.T) {
	c := singleLeader(t, 2)

	// Second applied entry crosses the threshold: the Ready that delivers
	// it also carries the request, pinned at the applied index.
	if _, _, err := c.Propose([]byte("a")); err != nil {
		t.Fatal(err)
	}
	entryA := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("a")}
	assertReady(t, c.TakeReady(), Ready{
		FirstIndex:   2,
		Entries:      []LogEntry{entryA},
		Committed:    []ApplyMsg{{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("a")}},
		TakeSnapshot: &SnapshotRequest{Index: 2},
	})

	// Latched: more applied entries do not re-request.
	if _, _, err := c.Propose([]byte("b")); err != nil {
		t.Fatal(err)
	}
	entryB := LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("b")}
	assertReady(t, c.TakeReady(), Ready{
		FirstIndex: 3,
		Entries:    []LogEntry{entryB},
		Committed:  []ApplyMsg{{Index: 3, Term: 1, Kind: EntryCommand, Command: []byte("b")}},
	})

	// Abort re-arms the policy; the distance still crosses, so the next
	// drain re-fires at the new applied index.
	c.AbortSnapshot()
	assertReady(t, c.TakeReady(), Ready{TakeSnapshot: &SnapshotRequest{Index: 3}})

	// Compact folds the prefix and stages the durable image.
	img := []byte("image")
	if !c.Compact(3, img) {
		t.Fatal("Compact(3) rejected a valid request")
	}
	assertReady(t, c.TakeReady(), Ready{
		Snapshot: &Snapshot{Index: 3, Term: 1, Members: []types.NodeID{1}, Data: img},
	})
	if got, want := c.FirstIndex(), 4; got != want {
		t.Fatalf("FirstIndex after compaction = %d, want %d", got, want)
	}

	// Stale and out-of-range answers are rejected.
	if c.Compact(3, img) {
		t.Fatal("Compact accepted an index at the existing base")
	}
	if c.Compact(4, img) {
		t.Fatal("Compact accepted an index beyond lastApplied")
	}
	assertReady(t, c.TakeReady(), Ready{})
}

// TestGoldenInstallSnapshotFollower pins the follower side of a transfer:
// the exact Ready for a full install (image persisted, log truncated to
// the empty suffix, restore flagged, ack at the base), for chunked
// reassembly, and for the two degenerate shapes (already-committed image,
// log already matching the base).
func TestGoldenInstallSnapshotFollower(t *testing.T) {
	install := func(idx int, term types.Time, off int, data, whole []byte, seq uint64) Message {
		return Message{
			Type: MsgInstallSnapshot, From: 1, To: 2, Term: 1,
			SnapIndex: idx, SnapTerm: term,
			SnapMembers: []types.NodeID{1, 2, 3},
			SnapOffset:  off, SnapTotal: len(whole), SnapData: data, Seq: seq,
		}
	}

	t.Run("full install replaces the log", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1},
			[]LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("stale")}})
		img := []byte("img")
		f.Step(install(5, 1, 0, img, img, 7))
		assertReady(t, f.TakeReady(), Ready{
			Snapshot:        &Snapshot{Index: 5, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: img},
			RestoreSnapshot: true,
			FirstIndex:      6,
			Entries:         []LogEntry{},
			Messages: []Message{
				{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 5, Seq: 7},
			},
		})
		if f.FirstIndex() != 6 || f.CommitIndex() != 5 {
			t.Fatalf("after install: FirstIndex %d, CommitIndex %d", f.FirstIndex(), f.CommitIndex())
		}
	})

	t.Run("chunks reassemble strictly in order", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, nil)
		img := []byte("img")
		// An out-of-order chunk with no transfer open is dropped cold.
		f.Step(install(5, 1, 2, img[2:], img, 3))
		assertReady(t, f.TakeReady(), Ready{})
		// Offset 0 opens the transfer; the partial image has no effects.
		f.Step(install(5, 1, 0, img[:2], img, 4))
		assertReady(t, f.TakeReady(), Ready{})
		// The closing chunk lands the full install.
		f.Step(install(5, 1, 2, img[2:], img, 5))
		assertReady(t, f.TakeReady(), Ready{
			Snapshot:        &Snapshot{Index: 5, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: img},
			RestoreSnapshot: true,
			FirstIndex:      6,
			Entries:         []LogEntry{},
			Messages: []Message{
				{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 5, Seq: 5},
			},
		})
	})

	t.Run("matching log skips the install, commits the prefix", func(t *testing.T) {
		f := follower(2, []types.NodeID{1, 2, 3}, HardState{Term: 1}, []LogEntry{
			{Term: 1, Kind: EntryCommand, Command: []byte("x")},
			{Term: 1, Kind: EntryCommand, Command: []byte("y")},
			{Term: 1, Kind: EntryCommand, Command: []byte("z")},
		})
		img := []byte("img")
		f.Step(install(2, 1, 0, img, img, 9))
		assertReady(t, f.TakeReady(), Ready{
			Messages: []Message{
				{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 9},
			},
			Committed: []ApplyMsg{
				{Index: 1, Term: 1, Kind: EntryCommand, Command: []byte("x")},
				{Index: 2, Term: 1, Kind: EntryCommand, Command: []byte("y")},
			},
		})

		// A second image at or below the commit index is acked from the
		// commit index without touching anything.
		f.Step(install(1, 1, 0, img, img, 10))
		assertReady(t, f.TakeReady(), Ready{
			Messages: []Message{
				{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 2, Seq: 10},
			},
		})
	})
}

// TestGoldenSnapshotTransfer pins the leader side: a rejection that lands
// below the compaction base turns into a chunked InstallSnapshot burst,
// resends are paced to one burst per election interval, and a paced-out
// resend restarts from offset 0.
func TestGoldenSnapshotTransfer(t *testing.T) {
	c := New(Config{
		ID:             1,
		Members:        []types.NodeID{1, 2, 3},
		ElectionTicks:  5,
		HeartbeatTicks: 5,
		Jitter:         func() int { return 0 },
	}, HardState{}, Snapshot{}, nil)
	c.Tick() // a fresh core campaigns on its first tick
	c.TakeReady()
	c.Step(Message{Type: MsgPreVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	c.Step(Message{Type: MsgVoteResponse, From: 2, To: 1, Term: 1, Granted: true})
	if c.Role() != Leader {
		t.Fatalf("no leadership after quorum vote (role %s)", c.Role())
	}
	c.TakeReady()
	if _, _, err := c.Propose([]byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Propose([]byte("bb")); err != nil {
		t.Fatal(err)
	}
	c.TakeReady() // both entries stable, then ONE broadcast carrying both (seq 3, 4)
	// S2 acks everything: indexes 1..3 commit and apply.
	c.Step(Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 1, Success: true, MatchIndex: 3, Seq: 3})
	c.TakeReady()

	const k = MaxSnapshotChunk
	img := make([]byte, 2*k+1) // chunks of k, k, 1
	for i := range img {
		img[i] = byte(i)
	}
	if !c.Compact(3, img) {
		t.Fatal("Compact(3) rejected")
	}
	c.TakeReady()

	// S3 rejects a probe with a hint below the base: the whole image goes
	// out as one burst of MaxSnapshotChunk-sized messages.
	chunk := func(off int, data []byte, seq uint64) Message {
		return Message{
			Type: MsgInstallSnapshot, From: 1, To: 3, Term: 1,
			SnapIndex: 3, SnapTerm: 1, SnapMembers: []types.NodeID{1, 2, 3},
			SnapOffset: off, SnapTotal: len(img), SnapData: data, Seq: seq,
		}
	}
	c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: false, HintIndex: 0, Seq: 2})
	assertReady(t, c.TakeReady(), Ready{
		Messages: []Message{chunk(0, img[:k], 5), chunk(k, img[k:2*k], 6), chunk(2*k, img[2*k:], 7)},
	})

	// A second rejection inside the pacing window sends nothing: the
	// previous transfer is assumed in flight.
	c.Step(Message{Type: MsgAppendResponse, From: 3, To: 1, Term: 1, Success: false, HintIndex: 0, Seq: 2})
	assertReady(t, c.TakeReady(), Ready{})

	// One election interval later the heartbeat path retries the laggard
	// and the burst restarts from offset 0.
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	rd := c.TakeReady()
	var snaps []Message
	for _, m := range rd.Messages {
		if m.Type == MsgInstallSnapshot {
			snaps = append(snaps, m)
		}
	}
	want := []Message{chunk(0, img[:k], 9), chunk(k, img[k:2*k], 10), chunk(2*k, img[2*k:], 11)}
	if !reflect.DeepEqual(snaps, want) {
		t.Fatalf("paced resend mismatch\n got: %#v\nwant: %#v", snaps, want)
	}

	// End to end: a cold follower of a leader that compacted its history
	// catches up through one image, in fewer rounds than a cold follower
	// that replays the whole log.
	full, compacted := catchupRounds(t, false), catchupRounds(t, true)
	if compacted >= full {
		t.Fatalf("catch-up took %d rounds through the snapshot, %d replaying the log", compacted, full)
	}
}

// catchupRounds commits 2000 entries on a two-member leader (compacting them
// into one image if asked), then boots an empty follower in the other seat
// and counts the tick-and-exchange rounds until its commit index reaches the
// leader's.
func catchupRounds(t *testing.T, compact bool) int {
	t.Helper()
	const history = 2000
	cfg := func(id types.NodeID) Config {
		return Config{ID: id, Members: []types.NodeID{1, 2}, ElectionTicks: 5, Jitter: func() int { return 0 }}
	}
	// relay cross-delivers the two cores' messages until both are quiet.
	relay := func(a, b *Core) {
		for i := 0; i < 1000; i++ {
			ra, rb := a.TakeReady(), b.TakeReady()
			if len(ra.Messages) == 0 && len(rb.Messages) == 0 {
				return
			}
			for _, m := range ra.Messages {
				b.Step(m)
			}
			for _, m := range rb.Messages {
				a.Step(m)
			}
		}
	}
	lead, warm := New(cfg(1), HardState{}, Snapshot{}, nil), New(cfg(2), HardState{}, Snapshot{}, nil)
	for i := 0; i < 5; i++ {
		lead.Tick()
	}
	relay(lead, warm)
	if lead.Role() != Leader {
		t.Fatalf("catch-up leader not elected (role %s)", lead.Role())
	}
	for i := 0; i < history; i++ {
		if _, _, err := lead.Propose([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if i%256 == 0 {
			relay(lead, warm)
		}
	}
	relay(lead, warm)
	target := history + 1 // the entries plus the leader's no-op
	if got := lead.CommitIndex(); got != target {
		t.Fatalf("leader committed %d of %d", got, target)
	}
	if compact {
		if !lead.Compact(target, make([]byte, 4<<10)) {
			t.Fatalf("Compact(%d) rejected", target)
		}
		lead.TakeReady()
	}
	cold := New(cfg(2), HardState{}, Snapshot{}, nil)
	rounds := 0
	for cold.CommitIndex() < target {
		if rounds++; rounds > 4*target {
			t.Fatalf("follower stuck at commit %d of %d", cold.CommitIndex(), target)
		}
		lead.Tick()
		relay(lead, cold)
	}
	return rounds
}
