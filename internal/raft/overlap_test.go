package raft

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
)

// The driver keeps two writes in flight: a write handed out beside another
// rewrites the log from the stable index up, so two writes of one log overlap
// and may land in either order. These tests pin what makes that safe on the
// disk: FileStorage.SaveEntries keeps the leading entries it already holds,
// writes nothing when it holds them all, and so lands overlapping appends of
// one log to the same log in every order.

// logOf returns entries first..last of the one log these tests write.
func logOf(first, last int) []LogEntry {
	out := make([]LogEntry, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, LogEntry{Term: 1, Kind: EntryCommand, Command: fmt.Appendf(nil, "e%d", i)})
	}
	return out
}

// walBytes is the total size of the files in the WAL directory dir on fsys.
func walBytes(t *testing.T, fsys FS, dir string) int {
	t.Helper()
	names, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, name := range names {
		b, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += len(b)
	}
	return n
}

// TestFileStorageOverlappingAppendsCommute lands overlapping pure appends in
// every order the driver can produce, on MemFS and on real files, and checks
// that Load and a replay after reopening agree on the in-order log. A holds
// 4..7 and B, handed out beside it, 4..10 (A ⊂ B, same first index); C
// starts at 8 = A's last+1, handed out once A landed, beside B. Then: an
// identical rewrite adds no bytes, a rewrite that differs still truncates,
// and empty entries still truncate. (The gap refusal is
// TestFileStorageSnapshotOutrunsWAL's.)
func TestFileStorageOverlappingAppendsCommute(t *testing.T) {
	type save struct {
		name  string
		first int
		es    []LogEntry
	}
	a, b, c := save{"A", 4, logOf(4, 7)}, save{"B", 4, logOf(4, 10)}, save{"C", 8, logOf(8, 10)}
	orders := [][]save{{a, b}, {b, a}, {a, b, c}, {a, c, b}, {b, a, c}}
	disks := map[string]func(t *testing.T) (FS, string){
		"MemFS": func(*testing.T) (FS, string) { return NewMemFS(), "wal" },
		"files": func(t *testing.T) (FS, string) { return OSFS, filepath.Join(t.TempDir(), "wal") },
	}
	for disk, open := range disks {
		for _, order := range orders {
			name := disk + "/"
			for _, s := range order {
				name += s.name
			}
			t.Run(name, func(t *testing.T) {
				fsys, dir := open(t)
				st, err := OpenFileStorageOn(fsys, dir)
				if err != nil {
					t.Fatal(err)
				}
				check := func(what string, want []LogEntry) {
					t.Helper()
					if _, _, got, _ := st.Load(); !sameEntries(got, want) {
						t.Fatalf("%s: Load = %v, want %v", what, got, want)
					}
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = OpenFileStorageOn(fsys, dir); err != nil {
						t.Fatal(err)
					}
					if _, _, got, _ := st.Load(); !sameEntries(got, want) {
						t.Fatalf("%s: replay = %v, want %v", what, got, want)
					}
				}
				if err := st.SaveEntries(1, logOf(1, 3)); err != nil {
					t.Fatal(err)
				}
				for _, s := range order {
					if err := st.SaveEntries(s.first, s.es); err != nil {
						t.Fatalf("%s: %v", s.name, err)
					}
				}
				check("landed", logOf(1, 10))

				size := walBytes(t, fsys, dir)
				if err := st.SaveEntries(a.first, a.es); err != nil {
					t.Fatal(err)
				}
				if grew := walBytes(t, fsys, dir) - size; grew != 0 {
					t.Fatalf("an identical rewrite of 4..7 added %d bytes, want 0", grew)
				}
				check("identical rewrite", logOf(1, 10))

				x := LogEntry{Term: 2, Kind: EntryCommand, Command: []byte("x6")}
				if err := st.SaveEntries(5, append(logOf(5, 5), x)); err != nil {
					t.Fatal(err)
				}
				check("differing rewrite", append(logOf(1, 5), x))

				if err := st.SaveEntries(4, nil); err != nil {
					t.Fatal(err)
				}
				check("empty entries", logOf(1, 3))
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzWALOverlappingAppends plays the driver's write pipeline against one
// FileStorage on MemFS in a fuzz-chosen interleaving: each op byte appends
// entries to the in-order log, hands out a write (at most two in flight, each
// from the stable index up), lands one of the writes in flight, or crashes and
// reopens the store (the writes in flight are lost, the log falls back to the
// stable prefix). After every landing the store must hold exactly the stable
// prefix of the log, and at the end, with every write landed, a replay must
// return the in-order log. The seeds are committed under
// testdata/fuzz/FuzzWALOverlappingAppends.
func FuzzWALOverlappingAppends(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			return // longer inputs only slow the target down
		}
		fsys := NewMemFS()
		st, err := OpenFileStorageOn(fsys, "wal")
		if err != nil {
			t.Fatal(err)
		}
		type write struct {
			first int
			es    []LogEntry
		}
		var log []LogEntry // the in-order log; log[i] is index i+1
		var inflight []write
		stable, next := 0, 0 // highest index known durable; entries made so far
		land := func(k int) {
			w := inflight[k]
			inflight = slices.Delete(inflight, k, k+1)
			if err := st.SaveEntries(w.first, w.es); err != nil {
				t.Fatalf("landing %d..%d: %v", w.first, w.first+len(w.es)-1, err)
			}
			stable = max(stable, w.first+len(w.es)-1)
			if _, _, got, _ := st.Load(); !sameEntries(got, log[:stable]) {
				t.Fatalf("after landing %d..%d: store holds %v, want the stable prefix %v",
					w.first, w.first+len(w.es)-1, got, log[:stable])
			}
		}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				for range 1 + int(op>>2)%4 {
					next++
					log = append(log, LogEntry{Term: 1, Kind: EntryCommand, Command: fmt.Appendf(nil, "e%d", next)})
				}
			case 1:
				if len(inflight) < 2 && stable < len(log) {
					inflight = append(inflight, write{stable + 1, slices.Clone(log[stable:])})
				}
			case 2:
				if len(inflight) > 0 {
					land(int(op>>2) % len(inflight))
				}
			case 3:
				inflight, log = nil, log[:stable]
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = OpenFileStorageOn(fsys, "wal"); err != nil {
					t.Fatal(err)
				}
			}
		}
		for stable < len(log) || len(inflight) > 0 {
			if len(inflight) < 2 && stable < len(log) {
				inflight = append(inflight, write{stable + 1, slices.Clone(log[stable:])})
			}
			land(len(inflight) - 1) // the youngest first: the older ones land late
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileStorageOn(fsys, "wal")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, got, _ := re.Load(); !sameEntries(got, log) {
			t.Fatalf("replay = %v, want the in-order log %v", got, log)
		}
	})
}
