package raftcore

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adore/internal/types"
)

// numbered returns n entries for indexes from, from+1, ...: term t, and a
// command naming the index and term, so a slot written twice shows.
func numbered(from, n int, t types.Time) []LogEntry {
	es := make([]LogEntry, n)
	for i := range es {
		es[i] = LogEntry{Term: t, Kind: EntryCommand, Command: []byte(fmt.Sprintf("%d@%d", from+i, t))}
	}
	return es
}

// checkLog fails unless l holds exactly want at base+1, base+2, ...
func checkLog(t *testing.T, l *entryLog, base int, want []LogEntry) {
	t.Helper()
	if l.last != base+len(want) {
		t.Fatalf("log ends at %d, want %d", l.last, base+len(want))
	}
	for i, e := range want {
		if got := l.at(base + 1 + i); !reflect.DeepEqual(got, e) {
			t.Fatalf("at(%d) = %+v, want %+v", base+1+i, got, e)
		}
	}
	if got := l.slice(base+1, l.last+1); !reflect.DeepEqual(got, want) && len(want) > 0 {
		t.Fatalf("slice(%d, %d) differs from the appended entries", base+1, l.last+1)
	}
}

// sharesChunk reports whether s is a view into l's chunks (its first element
// is a slot of the chunk that holds index i) rather than a copy.
func sharesChunk(l *entryLog, s []LogEntry, i int) bool {
	return &s[0] == &l.chunks[i/chunkSize-l.first][i%chunkSize]
}

func TestEntryLogAcrossChunks(t *testing.T) {
	for _, base := range []int{0, 100, chunkSize - 1, chunkSize, 3*chunkSize + 17} {
		t.Run(fmt.Sprint("base=", base), func(t *testing.T) {
			want := numbered(base+1, 2*chunkSize+500, 1)
			l := newEntryLog(base, want)
			checkLog(t, &l, base, want)
			if n := l.last/chunkSize - (base+1)/chunkSize + 1; len(l.chunks) != n {
				t.Fatalf("%d chunks, want %d", len(l.chunks), n)
			}
			for k, c := range l.chunks {
				if cap(c) != chunkSize {
					t.Fatalf("chunk %d has capacity %d, want %d", k, cap(c), chunkSize)
				}
			}

			// One entry at a time reaches the same log.
			one := newEntryLog(base, nil)
			for _, e := range want {
				one.append(e)
			}
			checkLog(t, &one, base, want)

			// A span inside one chunk is a view, capped at its end; a span
			// across a boundary is a copy of the same entries.
			b := ((base+1)/chunkSize + 1) * chunkSize // the end of the chunk that holds base+1
			view := l.slice(b+1, b+11)
			if !sharesChunk(&l, view, b+1) || len(view) != 10 || cap(view) != 10 {
				t.Fatalf("in-chunk span: view=%v len=%d cap=%d, want a view of len = cap = 10",
					sharesChunk(&l, view, b+1), len(view), cap(view))
			}
			across := l.slice(b-5, b+5)
			if sharesChunk(&l, across, b-5) || !reflect.DeepEqual(across, want[b-5-base-1:b+5-base-1]) {
				t.Fatal("a span across a chunk boundary must be an equal copy")
			}
			if got := l.slice(b, b); got == nil || len(got) != 0 {
				t.Fatalf("empty span = %#v, want empty and non-nil", got)
			}
		})
	}
}

func TestEntryLogTruncate(t *testing.T) {
	for _, pos := range []int{1, 2, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 3, 2*chunkSize + 500} {
		t.Run(fmt.Sprint("pos=", pos), func(t *testing.T) {
			l := newEntryLog(0, numbered(1, 2*chunkSize+500, 1))
			l.truncate(pos)
			want := numbered(1, pos-1, 1)
			checkLog(t, &l, 0, want)
			more := numbered(pos, chunkSize+10, 2)
			l.append(more...)
			checkLog(t, &l, 0, append(want, more...))
		})
	}
	// Above a base that is not a chunk boundary, down to the empty log.
	l := newEntryLog(chunkSize+5, numbered(chunkSize+6, 10, 1))
	l.truncate(chunkSize + 9)
	checkLog(t, &l, chunkSize+5, numbered(chunkSize+6, 3, 1))
	l.truncate(chunkSize + 6)
	checkLog(t, &l, chunkSize+5, nil)
	l.append(numbered(chunkSize+6, 2, 3)...)
	checkLog(t, &l, chunkSize+5, numbered(chunkSize+6, 2, 3))
}

// TestEntryLogWriteOnce pins the property the core's views rest on: a view
// stays what it was when a truncation cuts inside it and different entries
// are written at the same indexes.
func TestEntryLogWriteOnce(t *testing.T) {
	for _, span := range [][2]int{{10, 60}, {chunkSize - 20, chunkSize + 20}} {
		l := newEntryLog(0, numbered(1, chunkSize+100, 1))
		view := l.slice(span[0], span[1])
		kept := append([]LogEntry(nil), view...)
		cut := (span[0] + span[1]) / 2
		l.truncate(cut)
		l.append(numbered(cut, 200, 2)...)
		if !reflect.DeepEqual(view, kept) {
			t.Fatalf("span %v: the view changed after a truncation at %d and new appends", span, cut)
		}
		if got := l.at(cut); got.Term != 2 {
			t.Fatalf("span %v: at(%d) = %+v, want the term-2 entry", span, cut, got)
		}
		// An append to the view itself cannot reach the log.
		_ = append(view, LogEntry{Term: 9})
		if got := l.at(span[1]); got.Term == 9 {
			t.Fatalf("span %v: appending to a view wrote the log", span)
		}
	}
}

// TestEntryLogCompactDropsChunks: compaction drops every chunk wholly at or
// below the new base and copies nothing; the chunk that holds base+1 stays.
func TestEntryLogCompactDropsChunks(t *testing.T) {
	all := numbered(1, 3*chunkSize+10, 1)
	l := newEntryLog(0, all)
	third := &l.chunks[2][0]
	l.compact(2*chunkSize + 7)
	if len(l.chunks) != 2 || l.first != 2 || &l.chunks[0][0] != third {
		t.Fatalf("after compact: %d chunks from chunk %d, want the original chunks 2 and 3", len(l.chunks), l.first)
	}
	checkLog(t, &l, 2*chunkSize+7, all[2*chunkSize+7:])
	// A base just below a boundary drops the chunk it ends.
	l.compact(3*chunkSize - 1)
	if len(l.chunks) != 1 || l.first != 3 {
		t.Fatalf("after compact to a chunk's end: %d chunks from chunk %d, want chunk 3 alone", len(l.chunks), l.first)
	}
	checkLog(t, &l, 3*chunkSize-1, all[3*chunkSize-1:])
	// Compacting everything keeps appending where the log left off.
	l.compact(l.last)
	l.append(numbered(l.last+1, 5, 2)...)
	checkLog(t, &l, 3*chunkSize+10, numbered(3*chunkSize+11, 5, 2))
	l.reset(10)
	l.append(LogEntry{Term: 4})
	checkLog(t, &l, 10, []LogEntry{{Term: 4}})
}

// TestUnstableAndWindowsAllocateNoEntrySlice: a TakeUnstable batch and an
// append window that lie inside one chunk are views: handing them out
// allocates nothing. One that crosses a chunk boundary is a copy.
func TestUnstableAndWindowsAllocateNoEntrySlice(t *testing.T) {
	c := leader3(t)
	cmds := make([][]byte, chunkSize+200)
	for i := range cmds {
		cmds[i] = []byte("v")
	}
	if _, _, err := c.ProposeBatch(cmds); err != nil {
		t.Fatal(err)
	}
	c.TakeReady()
	last := c.LastIndex()

	// The batch [from, last] is handed out again on every run.
	unstable := func(from int) func() {
		return func() {
			c.dirtyFrom = from
			if u, ok := c.TakeUnstable(); !ok || len(u.Entries) != last-from+1 {
				t.Fatalf("TakeUnstable from %d: ok=%v, %d entries", from, ok, len(u.Entries))
			}
			c.inflight = c.inflight[:0]
		}
	}
	// The window from next is sent to S2 on every run.
	window := func(next int) func() {
		return func() {
			c.nextIndex[2] = next
			c.sendAppend(2)
			if n := len(c.msgs); n == 0 || len(c.msgs[n-1].Entries) == 0 {
				t.Fatalf("no window sent from %d", next)
			}
			c.msgs = c.msgs[:0]
		}
	}
	for _, tc := range []struct {
		name string
		f    func()
		want float64
	}{
		{"unstable batch inside a chunk", unstable(chunkSize + 1), 0},
		{"unstable batch across a boundary", unstable(chunkSize - 1), 1},
		{"append window inside a chunk", window(2), 0},
		{"append window across a boundary", window(chunkSize - 10), 1},
	} {
		if got := testing.AllocsPerRun(50, tc.f); got != tc.want {
			t.Errorf("%s: %v allocations per run, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUnstableViewReadWithoutLock reads every TakeUnstable batch on another
// goroutine, with no lock, while the core goes on appending and truncating
// its log, as the driver's write lane does. Under the race detector a write
// to a slot a batch still shows is a reported race; without it, a changed
// entry fails the comparison with the copy taken at handout.
func TestUnstableViewReadWithoutLock(t *testing.T) {
	c := follower(2, []types.NodeID{1, 2, 3}, HardState{}, nil)
	type batch struct {
		first       int
		view, taken []LogEntry
	}
	// Room for a few batches, so the core runs ahead of the reader.
	batches := make(chan batch, 16)
	done := make(chan error, 1)
	defer func() { // also when a check below stops the test
		close(batches)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	go func() {
		var err error
		for b := range batches {
			time.Sleep(time.Microsecond) // let the core run ahead
			if err == nil && !reflect.DeepEqual(b.view, b.taken) {
				err = fmt.Errorf("the batch from %d changed after it was handed out", b.first)
			}
		}
		done <- err
	}()

	var terms []types.Time // the leader's log, as the test builds it; terms[i] is index i+1's
	persist := func() {
		for {
			u, ok := c.TakeUnstable()
			if !ok {
				break
			}
			if u.FirstIndex != 0 {
				batches <- batch{u.FirstIndex, u.Entries, append([]LogEntry(nil), u.Entries...)}
			}
			c.Stable(1)
		}
		c.TakeEffects()
	}
	send := func(term types.Time, prev, n int) {
		m := Message{Type: MsgAppendEntries, From: 1, To: 2, Term: term, PrevLogIndex: prev, Entries: numbered(prev+1, n, term)}
		if prev > 0 {
			m.PrevLogTerm = terms[prev-1]
		}
		terms = terms[:prev]
		for range n {
			terms = append(terms, term)
		}
		c.Step(m)
	}
	for term := types.Time(1); len(terms) < 3*chunkSize; term++ {
		// Each term appends, then overwrites the tail of what the last term
		// wrote, which cuts the follower's log inside a batch it handed out.
		for range 7 {
			send(term, len(terms), 97)
			persist()
		}
		send(term+1, len(terms)-150, 60)
		persist()
		if got := c.LastIndex(); got != len(terms) {
			t.Fatalf("follower log ends at %d, leader's at %d", got, len(terms))
		}
	}
	for i, term := range terms {
		if got := c.Entry(i + 1); got.Term != term {
			t.Fatalf("entry %d has term %d, want %d", i+1, got.Term, term)
		}
	}
}

// BenchmarkCoreReplicate pumps three cores by direct message passing through
// TakeReady, the leader proposing batches of 10 commands of 100 bytes, and
// reports the cost per committed entry.
func BenchmarkCoreReplicate(b *testing.B) {
	members := []types.NodeID{1, 2, 3}
	cores := make(map[types.NodeID]*Core, len(members))
	for _, id := range members {
		jitter := int(id) * 3 // S1 times out first and wins
		cores[id] = New(Config{ID: id, Members: members, ElectionTicks: 10,
			Jitter: func() int { return jitter }}, HardState{}, Snapshot{}, nil)
	}
	pump := func() {
		for busy := true; busy; {
			busy = false
			for _, id := range members {
				for _, m := range cores[id].TakeReady().Messages {
					busy = true
					cores[m.To].Step(m)
				}
			}
		}
	}
	leader := cores[1]
	for i := 0; i < 100 && leader.Role() != Leader; i++ {
		for _, id := range members {
			cores[id].Tick()
		}
		pump()
	}
	if leader.Role() != Leader {
		b.Fatal("S1 did not win the election")
	}
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = make([]byte, 100)
	}
	var before, after runtime.MemStats
	commit0 := leader.CommitIndex()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		if _, _, err := leader.ProposeBatch(batch); err != nil {
			b.Fatal(err)
		}
		pump()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	entries := float64(leader.CommitIndex() - commit0)
	if entries != float64(10*b.N) {
		b.Fatalf("%v entries committed, want %d", entries, 10*b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/entries, "B/entry")
}
