package raft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adore/internal/types"
)

func TestMemStorageRoundTrip(t *testing.T) {
	st := NewMemStorage()
	if err := st.SaveState(HardState{Term: 3, VotedFor: 2}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, []LogEntry{
		{Term: 1, Kind: EntryNoOp},
		{Term: 1, Kind: EntryCommand, Command: []byte("a")},
	}); err != nil {
		t.Fatal(err)
	}
	hs, snap, log, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 3 || hs.VotedFor != 2 {
		t.Errorf("hard state = %+v", hs)
	}
	if snap.Index != 0 {
		t.Errorf("fresh store has snapshot base %d", snap.Index)
	}
	if len(log) != 2 || string(log[1].Command) != "a" {
		t.Errorf("log = %+v", log)
	}
	// Truncating rewrite.
	if err := st.SaveEntries(2, []LogEntry{{Term: 2, Kind: EntryCommand, Command: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	_, _, log, _ = st.Load()
	if len(log) != 2 || string(log[1].Command) != "b" {
		t.Errorf("log after truncate = %+v", log)
	}
	if err := st.SaveEntries(99, nil); err == nil {
		t.Error("out-of-range SaveEntries accepted")
	}
}

func TestMemStorageSnapshot(t *testing.T) {
	st := NewMemStorage()
	entries := make([]LogEntry, 5)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte{byte('a' + i)}}
	}
	if err := st.SaveEntries(1, entries); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(LogSnapshot{Index: 3, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: []byte("img")}); err != nil {
		t.Fatal(err)
	}
	_, snap, log, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index != 3 || string(snap.Data) != "img" {
		t.Fatalf("snapshot base = %+v", snap)
	}
	if len(log) != 2 || string(log[0].Command) != "d" || string(log[1].Command) != "e" {
		t.Fatalf("retained suffix = %+v", log)
	}
	// Writes below the base are rejected: that prefix no longer exists.
	if err := st.SaveEntries(2, entries[:1]); err == nil {
		t.Error("SaveEntries below snapshot base accepted")
	}
	// A stale snapshot is a no-op, not a regression of the base.
	if err := st.SaveSnapshot(LogSnapshot{Index: 2, Term: 1}); err != nil {
		t.Fatal(err)
	}
	if _, snap, _, _ := st.Load(); snap.Index != 3 {
		t.Errorf("stale snapshot moved base to %d", snap.Index)
	}
	// A snapshot covering the whole log leaves an empty suffix.
	if err := st.SaveSnapshot(LogSnapshot{Index: 5, Term: 1, Data: []byte("img2")}); err != nil {
		t.Fatal(err)
	}
	if _, snap, log, _ := st.Load(); snap.Index != 5 || len(log) != 0 {
		t.Errorf("full-log snapshot: base=%d suffix=%+v", snap.Index, log)
	}
}

// TestMemStorageLoadBounded is the regression test for the O(history) Load:
// with a snapshot base near the tip, Load must copy (and allocate) only the
// retained suffix, regardless of how many entries ever existed.
func TestMemStorageLoadBounded(t *testing.T) {
	st := NewMemStorage()
	const total = 4096
	entries := make([]LogEntry, total)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte("x")}
	}
	if err := st.SaveEntries(1, entries); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(LogSnapshot{Index: total - 8, Term: 1}); err != nil {
		t.Fatal(err)
	}
	_, _, log, _ := st.Load()
	if len(log) != 8 {
		t.Fatalf("suffix length = %d, want 8", len(log))
	}
	allocs := testing.AllocsPerRun(100, func() {
		st.Load()
	})
	if allocs > 4 {
		t.Errorf("Load allocates %.0f times for an 8-entry suffix (history %d): not suffix-bounded", allocs, total)
	}
}

func TestFileStorageSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveState(HardState{Term: 7, VotedFor: 1}); err != nil {
		t.Fatal(err)
	}
	entries := []LogEntry{
		{Term: 7, Kind: EntryNoOp},
		{Term: 7, Kind: EntryConfig, Members: []types.NodeID{1, 2}},
		{Term: 7, Kind: EntryCommand, Command: []byte("x")},
	}
	if err := st.SaveEntries(1, entries); err != nil {
		t.Fatal(err)
	}
	// Truncate-and-replace the tail.
	if err := st.SaveEntries(3, []LogEntry{{Term: 8, Kind: EntryCommand, Command: []byte("y")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hs, snap, log, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 7 || hs.VotedFor != 1 {
		t.Errorf("hard state after reopen = %+v", hs)
	}
	if snap.Index != 0 {
		t.Errorf("uncompacted store has snapshot base %d", snap.Index)
	}
	if len(log) != 3 {
		t.Fatalf("log length = %d, want 3", len(log))
	}
	if log[1].Kind != EntryConfig || len(log[1].Members) != 2 {
		t.Errorf("config entry lost: %+v", log[1])
	}
	if string(log[2].Command) != "y" || log[2].Term != 8 {
		t.Errorf("truncated tail wrong: %+v", log[2])
	}
}

// TestFileStorageTornBatchFrame simulates a crash in the middle of writing
// a group-commit frame: the active WAL segment ends with a partial
// multi-entry record. Replay must keep every frame that was fully written
// (the acked batches — acks only happen after the frame's Sync returns) and
// discard the torn frame whole, leaving the WAL appendable.
func TestFileStorageTornBatchFrame(t *testing.T) {
	for name, cut := range map[string]func(frameStart, frameEnd int64) int64{
		// Torn inside the gob body of the batch frame.
		"mid-body": func(s, e int64) int64 { return s + (e-s)/2 },
		// Torn inside the 4-byte length prefix itself.
		"mid-header": func(s, e int64) int64 { return s + 2 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			st, err := OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			seg := segPath(dir, 1) // the first generation's active segment
			// Batch 1: the acked group commit (one frame, three entries).
			if err := st.SaveEntries(1, []LogEntry{
				{Term: 1, Kind: EntryNoOp},
				{Term: 1, Kind: EntryCommand, Command: []byte("a1")},
				{Term: 1, Kind: EntryCommand, Command: []byte("a2")},
			}); err != nil {
				t.Fatal(err)
			}
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			afterBatch1 := info.Size()
			// Batch 2: the in-flight group commit the crash tears.
			batch2 := make([]LogEntry, 5)
			for i := range batch2 {
				batch2[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(fmt.Sprintf("b%d", i))}
			}
			if err := st.SaveEntries(4, batch2); err != nil {
				t.Fatal(err)
			}
			info, err = os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			afterBatch2 := info.Size()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			// Crash: truncate inside batch 2's frame.
			if err := os.Truncate(seg, cut(afterBatch1, afterBatch2)); err != nil {
				t.Fatal(err)
			}

			re, err := OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			_, _, log, err := re.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(log) != 3 {
				t.Fatalf("recovered log has %d entries, want 3 (batch 1 only)", len(log))
			}
			if string(log[1].Command) != "a1" || string(log[2].Command) != "a2" {
				t.Fatalf("batch 1 corrupted by torn batch 2: %+v", log)
			}
			// The WAL must remain appendable after discarding the torn tail.
			if err := re.SaveEntries(4, []LogEntry{{Term: 2, Kind: EntryCommand, Command: []byte("c")}}); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			_, _, log, err = re2.Load()
			if err != nil {
				t.Fatal(err)
			}
			if len(log) != 4 || string(log[3].Command) != "c" {
				t.Fatalf("append after torn-frame recovery lost data: %+v", log)
			}
		})
	}
}

// TestFileStorageTornPrefixAllocation: a crash can tear the 4-byte length
// prefix itself, leaving a tail whose "length" is whatever bytes landed. The
// torn-tail contract says it is ignored; replay must also not trust it with
// an allocation. Before the frame reader sized its buffer by the bytes
// present, this 7-byte tail asked for 4 GiB.
func TestFileStorageTornPrefixAllocation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, cmd := range []string{"a", "b"} {
		if err := st.SaveEntries(i+1, []LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte(cmd)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xf0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var re *FileStorage
	got := allocated(func() { re, err = OpenFileStorage(dir) })
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got > 1<<20 {
		t.Errorf("replaying a segment with a 7-byte torn tail allocated %d bytes", got)
	}
	_, _, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || string(log[0].Command) != "a" || string(log[1].Command) != "b" {
		t.Fatalf("the two frames before the torn tail did not survive: %+v", log)
	}
}

func TestFileStorageFreshFile(t *testing.T) {
	st, err := OpenFileStorage(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	hs, snap, log, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 0 || snap.Index != 0 || len(log) != 0 {
		t.Errorf("fresh store: %+v %+v %v", hs, snap, log)
	}
}

// TestFileStorageSnapshotRecovery covers the compaction contract end to
// end: SaveSnapshot makes the image durable, drops the covered segments,
// and a reopen recovers base + suffix without materializing history.
func TestFileStorageSnapshotRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveState(HardState{Term: 2, VotedFor: 1}); err != nil {
		t.Fatal(err)
	}
	entries := make([]LogEntry, 6)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(fmt.Sprintf("e%d", i+1))}
	}
	if err := st.SaveEntries(1, entries); err != nil {
		t.Fatal(err)
	}
	want := LogSnapshot{Index: 4, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: []byte("state@4")}
	if err := st.SaveSnapshot(want); err != nil {
		t.Fatal(err)
	}
	// The suffix stays writable above the new base.
	if err := st.SaveEntries(7, []LogEntry{{Term: 2, Kind: EntryCommand, Command: []byte("e7")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hs, snap, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 2 || hs.VotedFor != 1 {
		t.Errorf("hard state = %+v", hs)
	}
	if snap.Index != 4 || snap.Term != 1 || string(snap.Data) != "state@4" || len(snap.Members) != 3 {
		t.Fatalf("recovered snapshot = %+v, want %+v", snap, want)
	}
	if len(log) != 3 || string(log[0].Command) != "e5" || string(log[2].Command) != "e7" {
		t.Fatalf("recovered suffix = %+v", log)
	}
	// Exactly one snapshot file survives; the pre-snapshot segments are
	// unlinked (compaction is an unlink, not a rewrite).
	var snaps, segs int
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		switch {
		case strings.HasSuffix(de.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(de.Name(), ".seg"):
			segs++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files, want 1", snaps)
	}
	if segs != re.SegmentCount() {
		t.Errorf("%d segment files on disk, SegmentCount reports %d", segs, re.SegmentCount())
	}
}

// TestFileStorageSnapshotOutrunsWAL: an image above every entry on disk — a
// leader's install, or a follower's own compaction of entries it applied ahead
// of its disk — replaces the whole stored log, and the log goes on at base+1.
// A reopen recovers the base and exactly that suffix; nothing below the base
// is resurrected from the segments the image superseded.
func TestFileStorageSnapshotOutrunsWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveState(HardState{Term: 1}); err != nil {
		t.Fatal(err)
	}
	entries := make([]LogEntry, 3)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(fmt.Sprintf("e%d", i+1))}
	}
	if err := st.SaveEntries(1, entries); err != nil {
		t.Fatal(err)
	}
	// Entries 4..7 never reached this disk; the image covers them.
	want := LogSnapshot{Index: 7, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: []byte("state@7")}
	if err := st.SaveSnapshot(want); err != nil {
		t.Fatal(err)
	}
	if _, snap, log, _ := st.Load(); snap.Index != 7 || len(log) != 0 {
		t.Fatalf("after the image: base %d, %d retained entries; want 7 and none", snap.Index, len(log))
	}
	if err := st.SaveEntries(9, []LogEntry{{Term: 1}}); err == nil {
		t.Fatal("SaveEntries accepted a gap above the base")
	}
	suffix := []LogEntry{
		{Term: 1, Kind: EntryCommand, Command: []byte("e8")},
		{Term: 2, Kind: EntryCommand, Command: []byte("e9")},
	}
	if err := st.SaveEntries(8, suffix); err != nil {
		t.Fatalf("SaveEntries at base+1 over an image that outran the WAL: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hs, snap, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Term != 1 {
		t.Errorf("hard state = %+v", hs)
	}
	if snap.Index != 7 || snap.Term != 1 || string(snap.Data) != "state@7" {
		t.Fatalf("recovered snapshot = %+v, want %+v", snap, want)
	}
	if len(log) != 2 || string(log[0].Command) != "e8" || string(log[1].Command) != "e9" || log[1].Term != 2 {
		t.Fatalf("recovered suffix = %+v, want exactly e8, e9", log)
	}
}

// TestFileStorageCorruptSnapshotFailStop: a flipped bit in the snapshot
// file must fail recovery loudly — running without the committed state the
// file summarized would be silent divergence.
func TestFileStorageCorruptSnapshotFailStop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, []LogEntry{
		{Term: 1, Kind: EntryNoOp},
		{Term: 1, Kind: EntryCommand, Command: []byte("a")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(LogSnapshot{Index: 2, Term: 1, Data: []byte("image-bytes")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); err == nil {
		t.Fatal("recovery accepted a corrupt snapshot file")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot error = %v, want checksum mismatch", err)
	}
}

// TestFileStorageMissingSnapshotFailStop: if the WAL's segments build on a
// snapshot whose file is gone, recovery must refuse to fabricate a log.
func TestFileStorageMissingSnapshotFailStop(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, []LogEntry{
		{Term: 1, Kind: EntryNoOp},
		{Term: 1, Kind: EntryCommand, Command: []byte("a")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(LogSnapshot{Index: 2, Term: 1, Data: []byte("img")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(snapPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); err == nil {
		t.Fatal("recovery accepted a WAL whose snapshot file is missing")
	}
}

// TestFileStorageTornSnapshotTemp: a crash during the snapshot write leaves
// only a .tmp file; recovery discards it and keeps the full pre-snapshot
// log — the prefix was never dropped because the rename never happened.
func TestFileStorageTornSnapshotTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, []LogEntry{
		{Term: 1, Kind: EntryNoOp},
		{Term: 1, Kind: EntryCommand, Command: []byte("a")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulated torn snapshot write: partial bytes, no rename.
	if err := os.WriteFile(snapPath(dir, 2)+".tmp", []byte("part"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	_, snap, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index != 0 || len(log) != 2 {
		t.Fatalf("after torn snapshot temp: base=%d suffix=%+v", snap.Index, log)
	}
	if _, err := os.Stat(snapPath(dir, 2) + ".tmp"); !os.IsNotExist(err) {
		t.Error("torn .tmp snapshot not cleaned up on open")
	}
}

// TestFileStorageCompactionUnlinksSegments drives many snapshot cycles and
// asserts the directory stays bounded: old segments are unlinked, not
// rewritten, and only one snapshot file is retained.
func TestFileStorageCompactionUnlinksSegments(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	next := 1
	for round := 0; round < 10; round++ {
		batch := make([]LogEntry, 20)
		for i := range batch {
			batch[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: bytes.Repeat([]byte("p"), 32)}
		}
		if err := st.SaveEntries(next, batch); err != nil {
			t.Fatal(err)
		}
		next += len(batch)
		if err := st.SaveSnapshot(LogSnapshot{Index: next - 1, Term: 1, Data: []byte("img")}); err != nil {
			t.Fatal(err)
		}
	}
	// Each cycle rotates once; everything before the newest snapshot is
	// unlinked, so the live set stays at one active segment (+1 slack for
	// the rotation boundary).
	if n := st.SegmentCount(); n > 2 {
		t.Errorf("SegmentCount = %d after 10 compaction cycles, want <= 2", n)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files retained, want 1", snaps)
	}
}

// FuzzWALRecover is the WAL's crash contract under arbitrary damage. ops
// drives a real FileStorage through acked SaveEntries and SaveState calls
// (and reopens, each starting a new segment). Then the machine dies while a
// further batch is being appended: the active segment keeps the first keep
// bytes of that in-flight frame, and garbage overwrites the rest of it and
// runs on past it. Replay must never panic, must allocate in proportion to
// the bytes on disk, and must return every acked entry and the acked hard
// state (plus the in-flight batch if all of it landed) or fail loudly. It must
// never silently shorten the acked log. The seeds are committed under
// testdata/fuzz/FuzzWALRecover.
func FuzzWALRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, inflightAt uint8, keep uint16, garbage []byte) {
		if len(ops) > 32 || len(garbage) > 4<<10 {
			return // longer inputs only slow the target down
		}
		dir := t.TempDir()
		st, err := OpenFileStorage(dir)
		if err != nil {
			t.Fatal(err)
		}
		var hs HardState
		var acked []LogEntry
		seq := 1 // the active segment
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			switch a % 4 {
			case 0, 1:
				first := 1 + int(b)%(len(acked)+1)
				batch := make([]LogEntry, 1+int(a>>2)%4)
				for j := range batch {
					batch[j] = LogEntry{Term: types.Time(1 + b%4), Kind: EntryCommand, Command: fmt.Appendf(nil, "%d.%d", i, j)}
				}
				if err := st.SaveEntries(first, batch); err != nil {
					t.Fatal(err)
				}
				acked = append(acked[:first-1], batch...)
			case 2:
				hs = HardState{Term: types.Time(b), VotedFor: types.NodeID(a >> 2)}
				if err := st.SaveState(hs); err != nil {
					t.Fatal(err)
				}
			case 3:
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = OpenFileStorage(dir); err != nil {
					t.Fatal(err)
				}
				seq++
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// The crash: a prefix of the in-flight frame, then garbage.
		first := 1 + int(inflightAt)%(len(acked)+1)
		inflight := []LogEntry{{Term: 9, Kind: EntryCommand, Command: []byte("in-flight")}}
		var frame bytes.Buffer
		if err := encodeFrameInto(&frame, walRecord{Kind: 1, FirstIndex: first, Entries: inflight}); err != nil {
			t.Fatal(err)
		}
		landed := append(frame.Bytes()[:min(int(keep), frame.Len())], garbage...)
		seg, err := os.OpenFile(segPath(dir, seq), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Write(landed); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		size := dirBytes(t, dir)

		var re *FileStorage
		var gotHS HardState
		var snap LogSnapshot
		var got []LogEntry
		replay := func() {
			if re, err = OpenFileStorage(dir); err == nil {
				gotHS, snap, got, err = re.Load()
				re.Close()
			}
		}
		// gob builds a fresh decoder and type table per frame, hence the
		// generous factor; the constant covers opening and rotating.
		limit := 64*size + 256<<10
		n := allocated(replay)
		for retry := 0; n > limit && retry < 3; retry++ { // another goroutine's garbage?
			n = allocated(replay)
		}
		if n > limit {
			t.Fatalf("replaying %d bytes of WAL allocated %d (limit %d)", size, n, limit)
		}
		if err != nil {
			return // loud
		}
		withInflight := append(slices.Clone(acked[:first-1]), inflight...)
		if gotHS != hs || snap.Index != 0 || !(sameEntries(got, acked) || sameEntries(got, withInflight)) {
			t.Fatalf("replay returned hard state %+v, snapshot %d and log %v;\nacked hard state %+v and log %v (in-flight batch at %d)",
				gotHS, snap.Index, got, hs, acked, first)
		}
	})
}

// dirBytes is the total size of the files in dir.
func dirBytes(t *testing.T, dir string) uint64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += uint64(info.Size())
	}
	return n
}

// sameEntries compares two logs by term, kind and command bytes.
func sameEntries(a, b []LogEntry) bool {
	return slices.EqualFunc(a, b, func(x, y LogEntry) bool {
		return x.Term == y.Term && x.Kind == y.Kind && bytes.Equal(x.Command, y.Command)
	})
}

// FuzzSnapFile is the snapshot file's load contract under arbitrary damage.
// Each input is read twice: as the whole file, and as the body under a
// correct length and CRC header, so the body decoder is reached as well as
// the framing checks. The reader must never panic, must allocate in
// proportion to the file, and a file it accepts must round-trip through
// writeSnapFile to the same snapshot. The seeds are committed under
// testdata/fuzz/FuzzSnapFile: a written snapshot, its body alone, an empty
// image, a torn file, a flipped checksum, a length claiming 4 GiB, a member
// count past its body, and a gob file and gob body from before this format.
func FuzzSnapFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<10 {
			return // longer inputs only slow the target down
		}
		header := make([]byte, 8, 8+len(b))
		binary.BigEndian.PutUint32(header[0:4], uint32(len(b)))
		binary.BigEndian.PutUint32(header[4:8], crc32.ChecksumIEEE(b))
		dir := t.TempDir()
		for i, file := range [][]byte{b, append(header, b...)} {
			path := filepath.Join(dir, fmt.Sprintf("in-%d.snap", i))
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			var snap LogSnapshot
			var err error
			read := func() { snap, err = readSnapFile(path) }
			limit := uint64(8*len(file) + 64<<10)
			n := allocated(read)
			for retry := 0; n > limit && retry < 3; retry++ { // another goroutine's garbage?
				n = allocated(read)
			}
			if n > limit {
				t.Fatalf("reading a %d-byte snapshot file allocated %d (limit %d)", len(file), n, limit)
			}
			if err != nil {
				continue // loud
			}
			out := filepath.Join(dir, fmt.Sprintf("out-%d", i))
			if err := os.Mkdir(out, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeSnapFile(out, snap); err != nil {
				t.Fatal(err)
			}
			again, err := readSnapFile(snapPath(out, snap.Index))
			if err != nil || !sameSnapshot(again, snap) {
				t.Fatalf("snapshot %+v rewritten reads back as %+v (err %v)", snap, again, err)
			}
		}
	})
}

// sameSnapshot compares two snapshots field by field, a nil slice equal to an
// empty one.
func sameSnapshot(a, b LogSnapshot) bool {
	return a.Index == b.Index && a.Term == b.Term && slices.Equal(a.Members, b.Members) && bytes.Equal(a.Data, b.Data)
}
