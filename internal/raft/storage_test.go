package raft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adore/internal/types"
)

// openMem opens a FileStorage on a fresh in-memory file system.
func openMem(t *testing.T) *FileStorage {
	t.Helper()
	st, err := OpenFileStorageOn(NewMemFS(), "wal")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFileStorageRoundTrip(t *testing.T) {
	st := openMem(t)
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

func TestFileStorageSnapshot(t *testing.T) {
	st := openMem(t)
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

// TestFileStorageLoadBounded is the regression test for the O(history) Load:
// with a snapshot base near the tip, Load must copy (and allocate) only the
// retained suffix, regardless of how many entries ever existed.
func TestFileStorageLoadBounded(t *testing.T) {
	st := openMem(t)
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
		// Torn inside the body of the batch frame.
		"mid-body": func(s, e int64) int64 { return s + (e-s)/2 },
		// Torn inside the frame header itself.
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

// TestFileStorageBitFlips flips every bit of a small committed segment, one at
// a time, and reopens. It runs over two shapes: a fresh segment — its base
// record, two entry frames and a state frame — and a compaction segment whose
// base record carries an image, then one entry frame and one state frame. No
// flip may reopen with a snapshot, hard state or log that was never written,
// and every flip before the segment's last frame must fail the open: that
// damage is inside the segment, not a torn tail. The base record above all
// must never be dropped. Only the last frame may be, as a torn tail is.
func TestFileStorageBitFlips(t *testing.T) {
	for _, compacted := range []bool{false, true} {
		t.Run(map[bool]string{false: "fresh", true: "compacted"}[compacted], func(t *testing.T) {
			dir := t.TempDir()
			st, err := OpenFileStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			seq, snap, first := 1, LogSnapshot{}, 1
			if compacted {
				if err := st.SaveEntries(1, []LogEntry{{Term: 1, Kind: EntryNoOp}, {Term: 1, Kind: EntryCommand, Command: []byte("a")}}); err != nil {
					t.Fatal(err)
				}
				snap = LogSnapshot{Index: 2, Term: 1, Members: []types.NodeID{1, 2}, Data: []byte("image@2")}
				if err := st.SaveSnapshot(snap); err != nil {
					t.Fatal(err)
				}
				seq, first = 2, 3
			}
			seg := segPath(dir, seq)
			// ends[k] is where the segment's k-th write ends; replaying the
			// writes through it recovers hss[k] and logs[k] above snap.
			var ends []int64
			var hss []HardState
			var logs [][]LogEntry
			mark := func(hs HardState, log []LogEntry) {
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				ends, hss, logs = append(ends, info.Size()), append(hss, hs), append(logs, log)
			}
			mark(HardState{}, nil) // the base record
			var log []LogEntry
			if !compacted {
				log = []LogEntry{{Term: 1, Kind: EntryNoOp}, {Term: 1, Kind: EntryConfig, Members: []types.NodeID{1, 2}}}
				if err := st.SaveEntries(first, log); err != nil {
					t.Fatal(err)
				}
				mark(HardState{}, log)
			}
			log = append(slices.Clone(log), LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("x")})
			if err := st.SaveEntries(first+len(log)-1, log[len(log)-1:]); err != nil {
				t.Fatal(err)
			}
			mark(HardState{}, log)
			hs := HardState{Term: 2, VotedFor: 1}
			if err := st.SaveState(hs); err != nil {
				t.Fatal(err)
			}
			mark(hs, log)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			clean, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			lastFrame := ends[len(ends)-2]

			var silent, accepted int
			for bit := 0; bit < 8*len(clean); bit++ {
				b := slices.Clone(clean)
				b[bit/8] ^= 1 << (bit % 8)
				if err := os.WriteFile(seg, b, 0o644); err != nil {
					t.Fatal(err)
				}
				re, err := OpenFileStorage(dir)
				if err != nil {
					continue // loud
				}
				gotHS, gotSnap, got, _ := re.Load()
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.Remove(segPath(dir, seq+1)); err != nil {
					t.Fatal(err)
				}
				written := false
				for k := range ends {
					written = written || gotHS == hss[k] && sameSnapshot(gotSnap, snap) && sameEntries(got, logs[k])
				}
				switch {
				case !written:
					silent++
					t.Errorf("flipping bit %d (byte %d) reopened with hard state %+v, snapshot %+v and log %v: never written",
						bit, bit/8, gotHS, gotSnap, got)
				case int64(bit/8) < lastFrame:
					accepted++
					t.Errorf("flipping bit %d (byte %d), before the last frame at byte %d, reopened without error", bit, bit/8, lastFrame)
				}
			}
			if silent+accepted > 0 {
				t.Errorf("%d of %d flips of a %d-byte segment reopened with a record never written, %d more without error",
					silent, 8*len(clean), len(clean), accepted)
			}
		})
	}
}

// TestFileStorageRefusesGobSegments opens WAL directories written by older
// builds: two by the last build whose records were gob (testdata/gob-wal), one
// with many frames and one holding only a base record, and one by the last
// build of format v1 (testdata/v1-wal), compacted, whose image lived in a file
// of its own beside the segment. Each must fail the open with the error that
// names the format, never replay as an empty or shorter log.
func TestFileStorageRefusesGobSegments(t *testing.T) {
	for name, src := range map[string]string{
		"many-frames":  filepath.Join("gob-wal", "many-frames"),
		"base-only":    filepath.Join("gob-wal", "base-only"),
		"v1-compacted": filepath.Join("v1-wal", "compacted"),
	} {
		t.Run(name, func(t *testing.T) {
			src := filepath.Join("testdata", src)
			des, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, de := range des {
				b, err := os.ReadFile(filepath.Join(src, de.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, de.Name()), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			st, err := OpenFileStorage(dir)
			if err == nil {
				hs, snap, log, _ := st.Load()
				st.Close()
				t.Fatalf("an old-format directory opened as hard state %+v, snapshot %d and %d entries", hs, snap.Index, len(log))
			}
			if !errors.Is(err, errWALFormat) {
				t.Fatalf("open error = %v, want %v", err, errWALFormat)
			}
		})
	}
}

// TestFileStorageTornSegmentHeader: a crash inside a rotation's first write
// leaves a prefix of it under the segment's temp name, never its final one.
// That file holds nothing: the open removes it and replays what came before.
// A segment gets its final name only once its header and base record are
// durable, so one that is short, a bare header, or not a header fails loudly.
func TestFileStorageTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	firstWrite, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, []LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := segPath(dir, 2) + ".tmp"
	for n := 0; n < len(firstWrite); n++ {
		if err := os.WriteFile(tmp, firstWrite[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileStorage(dir)
		if err != nil {
			t.Fatalf("a %d-byte torn rotation: %v", n, err)
		}
		_, _, log, _ := re.Load()
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 1 || string(log[0].Command) != "a" {
			t.Fatalf("a %d-byte torn rotation: log %v", n, log)
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatalf("a %d-byte torn rotation: the temp file survived the open (%v)", n, err)
		}
		if err := os.Remove(segPath(dir, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < len(walHeader); n++ {
		if err := os.WriteFile(segPath(dir, 2), []byte(walHeader[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStorage(dir); !errors.Is(err, errWALFormat) {
			t.Fatalf("a %d-byte segment: open error %v, want %v", n, err, errWALFormat)
		}
	}
	if err := os.WriteFile(segPath(dir, 2), []byte(walHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); err == nil || !strings.Contains(err.Error(), "base record") {
		t.Fatalf("a segment holding only the header: open error %v, want a missing base record", err)
	}
	if err := os.WriteFile(segPath(dir, 2), []byte("ADOREx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); !errors.Is(err, errWALFormat) {
		t.Fatalf("a short segment that is not a header: open error %v, want %v", err, errWALFormat)
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
	// The directory holds only the live segments: the image is in a base
	// record, and the pre-snapshot segments are unlinked (compaction is an
	// unlink, not a rewrite).
	re.mu.Lock()
	live := re.seq - re.old + 1
	re.mu.Unlock()
	if segs := segmentFiles(t, dir); segs != live {
		t.Errorf("%d segment files on disk, %d live segments", segs, live)
	}
}

// segmentFiles counts the files in a WAL directory and fails the test if any
// of them is not a segment.
func segmentFiles(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if !strings.HasPrefix(de.Name(), "wal-") || !strings.HasSuffix(de.Name(), ".seg") {
			t.Errorf("WAL directory holds %s, which is not a segment", de.Name())
		}
	}
	return len(des)
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

// TestFileStorageCorruptSnapshotFailStop: a flipped bit in the image, inside
// the base record of the segment a compaction started, must fail recovery
// loudly — running without the committed state the image summarized would be
// silent divergence.
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
	path := segPath(dir, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, []byte("image-bytes"))
	if at < 0 {
		t.Fatalf("the compaction segment does not hold the image: % x", b)
	}
	b[at+3] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); err == nil {
		t.Fatal("recovery accepted a corrupt image")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt image error = %v, want checksum mismatch", err)
	}
}

// TestFileStorageMissingSnapshotFailStop: if the segment holding the image,
// and the entries just above it, is gone, the next segment's entries leave a
// gap above that segment's base, and recovery must refuse to fabricate a log.
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
	if err := st.SaveEntries(3, []LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = OpenFileStorage(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(4, []LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("c")}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segPath(dir, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStorage(dir); err == nil {
		t.Fatal("recovery accepted a WAL whose image-bearing segment is missing")
	} else if !strings.Contains(err.Error(), "gap") {
		t.Fatalf("missing segment error = %v, want a gap", err)
	}
}

// TestFileStorageTornSnapshotTemp: a crash during a compaction's rotation
// leaves only the new segment's temp file; recovery discards it and keeps the
// full pre-snapshot log — the prefix was never dropped because the link
// never happened.
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
	// Simulated torn rotation: the header and part of a base, no link.
	tmp := segPath(dir, 2) + ".tmp"
	if err := os.WriteFile(tmp, []byte(walHeader+"part"), 0o644); err != nil {
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
		t.Fatalf("after a torn rotation: base=%d suffix=%+v", snap.Index, log)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("torn rotation's temp file not cleaned up on open")
	}
}

// TestFileStorageCompactionUnlinksSegments drives many snapshot cycles and
// asserts the directory stays bounded: old segments are unlinked, not
// rewritten, and it holds nothing but segments.
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
	// Each cycle rotates once and the new segment supersedes every older
	// one, so the live set is the one active segment.
	st.mu.Lock()
	live := st.seq - st.old + 1
	st.mu.Unlock()
	if live != 1 {
		t.Errorf("%d live segments after 10 compaction cycles, want 1", live)
	}
	if segs := segmentFiles(t, dir); segs != live {
		t.Errorf("%d segment files on disk, %d live segments", segs, live)
	}
}

// TestFileStorageRestartThenCompact compacts a directory whose entries span
// a reopen: entries 1-20 in the first segment, 21-30 in the open-time one, a
// snapshot at 25. The compaction segment must carry 26-30 itself, since the
// open-time segment's entries from 21 build on the segment the compaction
// unlinks, so the next open replays the snapshot and that suffix.
func TestFileStorageRestartThenCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	entries := make([]LogEntry, 30)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(fmt.Sprintf("e%d", i+1))}
	}
	st, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(1, entries[:20]); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if st, err = OpenFileStorage(dir); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveEntries(21, entries[20:]); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(LogSnapshot{Index: 25, Term: 1, Data: []byte("img@25")}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	re, err := OpenFileStorage(dir)
	if err != nil {
		t.Fatalf("reopen after a restart and a compaction: %v", err)
	}
	defer re.Close()
	if _, snap, log, _ := re.Load(); snap.Index != 25 || !sameEntries(log, entries[25:]) {
		t.Fatalf("recovered base %d and %d entries, want base 25 and entries 26-30", snap.Index, len(log))
	}
}

// TestFileStorageFailedWriteLeavesNoTrace fails the active segment's next
// write: Load must not show what it carried (the simulator's quorum-durable
// oracle reads the disk through Load), and the store stays failed.
func TestFileStorageFailedWriteLeavesNoTrace(t *testing.T) {
	disk := NewFaultFS(NewMemFS())
	st, err := OpenFileStorageOn(disk, "wal")
	if err != nil {
		t.Fatal(err)
	}
	first := []LogEntry{{Term: 1, Kind: EntryNoOp}, {Term: 1, Kind: EntryCommand, Command: []byte("a")}}
	if err := st.SaveEntries(1, first); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("EIO")
	disk.FailNextWrite(boom)
	if err := st.SaveEntries(3, []LogEntry{{Term: 1, Kind: EntryCommand, Command: []byte("lost")}}); !errors.Is(err, boom) {
		t.Fatalf("SaveEntries error = %v, want %v", err, boom)
	}
	if _, _, log, _ := st.Load(); !sameEntries(log, first) {
		t.Fatalf("Load after a failed write shows %d entries, want the %d that landed", len(log), len(first))
	}
	if err := st.SaveState(HardState{Term: 2}); !errors.Is(err, boom) {
		t.Fatalf("SaveState after a failed write: err = %v, want the latched %v", err, boom)
	}
	if hs, _, _, _ := st.Load(); hs.Term != 0 {
		t.Fatalf("Load shows term %d from a refused SaveState", hs.Term)
	}
}

// TestFileStorageTornEveryByte cuts the power at every byte of a batch — hard
// state, then entries — a compaction and an append after it. Each reopen
// must replay exactly the Save calls that returned nil: never a loud error,
// and never anything from the torn write. No Save succeeds after one failed.
func TestFileStorageTornEveryByte(t *testing.T) {
	entries := make([]LogEntry, 6)
	for i := range entries {
		entries[i] = LogEntry{Term: 1, Kind: EntryCommand, Command: []byte(fmt.Sprintf("e%d", i+1))}
	}
	steps := []func(*FileStorage) error{
		func(st *FileStorage) error { return st.SaveState(HardState{Term: 2, VotedFor: 1}) },
		func(st *FileStorage) error { return st.SaveEntries(1, entries[:5]) },
		func(st *FileStorage) error {
			return st.SaveSnapshot(LogSnapshot{Index: 3, Term: 1, Members: []types.NodeID{1, 2, 3}, Data: []byte("img@3")})
		},
		func(st *FileStorage) error { return st.SaveEntries(6, entries[5:]) },
	}
	type state struct {
		hs   HardState
		snap LogSnapshot
		log  []LogEntry
	}
	load := func(st *FileStorage) state {
		hs, snap, log, _ := st.Load()
		return state{hs, snap, log}
	}
	// want[k] is the state after the first k steps.
	ref, err := OpenFileStorageOn(NewMemFS(), "wal")
	if err != nil {
		t.Fatal(err)
	}
	want := []state{load(ref)}
	for _, step := range steps {
		if err := step(ref); err != nil {
			t.Fatal(err)
		}
		want = append(want, load(ref))
	}
	for n := 0; ; n++ {
		disk := NewFaultFS(NewMemFS())
		st, err := OpenFileStorageOn(disk, "wal")
		if err != nil {
			t.Fatal(err)
		}
		disk.CutAfter(n)
		landed := 0
		for i, step := range steps {
			switch err := step(st); {
			case err == nil && landed < i:
				t.Fatalf("cut at byte %d: step %d succeeded after step %d failed", n, i, landed)
			case err == nil:
				landed++
			case !errors.Is(err, ErrTornWrite):
				t.Fatalf("cut at byte %d: step %d failed with %v, want ErrTornWrite", n, i, err)
			}
		}
		disk.Clear()
		re, err := OpenFileStorageOn(disk, "wal")
		if err != nil {
			t.Fatalf("cut at byte %d, after %d saves landed: reopen: %v", n, landed, err)
		}
		got, w := load(re), want[landed]
		if got.hs != w.hs || !sameSnapshot(got.snap, w.snap) || !sameEntries(got.log, w.log) {
			t.Fatalf("cut at byte %d, after %d saves landed: replayed %+v, want %+v", n, landed, got, w)
		}
		if landed == len(steps) {
			return // the cut lies past the last write
		}
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
		frame := appendRecord(nil, walRecord{Kind: 1, FirstIndex: first, Entries: inflight})
		landed := append(frame[:min(int(keep), len(frame))], garbage...)
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
		// DESIGN's frame-reader rule; the constant covers opening and rotating.
		limit := 32*size + 128<<10
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

// sameEntries compares two logs by term, kind, members and command bytes.
func sameEntries(a, b []LogEntry) bool { return slices.EqualFunc(a, b, sameEntry) }

// FuzzSnapFile is the load contract of a segment's base record — the one
// place a snapshot image is kept on disk — under arbitrary damage. Each input
// is read twice: as a whole segment file, and as a base record's body under
// the header and a correct length and CRC, so the body decoder is reached as
// well as the framing checks. The open must never panic, must allocate in
// proportion to the file, and a snapshot it accepts must round-trip through
// SaveSnapshot into a fresh directory and reopen as the same snapshot. The
// seeds are committed under testdata/fuzz/FuzzSnapFile: a compaction segment,
// its base record's body alone, a body with an empty image, a torn segment, a
// flipped checksum, a length claiming 4 GiB, a member count past its body, a
// compaction segment of format v1, whose image lived in a file of its own,
// and a snapshot file and a snapshot body from the builds that wrote them in
// gob.
func FuzzSnapFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 1<<10 {
			return // longer inputs only slow the target down
		}
		framed := binary.BigEndian.AppendUint32([]byte(walHeader), uint32(len(b)))
		framed = binary.BigEndian.AppendUint32(framed, crc32.ChecksumIEEE(b))
		for _, file := range [][]byte{b, append(framed, b...)} {
			in := t.TempDir()
			if err := os.WriteFile(segPath(in, 1), file, 0o644); err != nil {
				t.Fatal(err)
			}
			var snap LogSnapshot
			var err error
			read := func() {
				var st *FileStorage
				if st, err = OpenFileStorage(in); err == nil {
					_, snap, _, err = st.Load()
					st.Close()
				}
			}
			limit := uint64(8*len(file) + 64<<10)
			n := allocated(read)
			for retry := 0; n > limit && retry < 3; retry++ { // another goroutine's garbage?
				n = allocated(read)
			}
			if n > limit {
				t.Fatalf("opening a %d-byte segment allocated %d (limit %d)", len(file), n, limit)
			}
			if err != nil {
				continue // loud
			}
			out := t.TempDir()
			st, err := OpenFileStorage(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveSnapshot(snap); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenFileStorage(out)
			if err != nil {
				t.Fatalf("snapshot %+v saved does not reopen: %v", snap, err)
			}
			_, again, _, _ := re.Load()
			re.Close()
			if !sameSnapshot(again, snap) {
				t.Fatalf("snapshot %+v saved reopens as %+v", snap, again)
			}
		}
	})
}

// sameSnapshot compares two snapshots field by field, a nil slice equal to an
// empty one.
func sameSnapshot(a, b LogSnapshot) bool {
	return a.Index == b.Index && a.Term == b.Term && slices.Equal(a.Members, b.Members) && bytes.Equal(a.Data, b.Data)
}
