package raftcore

// chunkSize is the number of entries in one chunk of an entryLog.
const chunkSize = 4096

// entryLog is the core's retained log: the entries up to absolute index last,
// held in fixed-size chunks that are allocated once and never regrown. Chunk
// n holds indexes [n*chunkSize, (n+1)*chunkSize); chunks[0] is chunk first,
// the one that holds the first retained index, and every chunk but the last
// is full. The slots of chunks[0] below the first retained index are dead;
// the core's snapIndex says where that is.
//
// A slot, once written, is never written again: an append writes the next
// unwritten slot of the last chunk, and a truncation puts a fresh copy of the
// part of the cut chunk it keeps in that chunk's place. So a view handed out
// by slice stays what it was however the log moves on, and may be read with
// no lock held while the core appends, truncates and compacts.
type entryLog struct {
	last   int // the last index (the base when the log is empty)
	first  int // chunk number of chunks[0]
	chunks [][]LogEntry
}

// newEntryLog returns the log that holds entries at base+1, base+2, ...
func newEntryLog(base int, entries []LogEntry) entryLog {
	l := entryLog{last: base, first: (base + 1) / chunkSize}
	l.append(entries...)
	return l
}

// at returns the entry at absolute index i, a retained index.
func (l *entryLog) at(i int) LogEntry { return l.chunks[i/chunkSize-l.first][i%chunkSize] }

// append adds es at last+1, last+2, ..., one chunk-sized copy at a time.
func (l *entryLog) append(es ...LogEntry) {
	for len(es) > 0 {
		next := l.last + 1
		k := next/chunkSize - l.first
		if k == len(l.chunks) {
			l.chunks = append(l.chunks, make([]LogEntry, next%chunkSize, chunkSize))
		}
		n := min(len(es), chunkSize-next%chunkSize)
		l.chunks[k] = append(l.chunks[k], es[:n]...)
		l.last += n
		es = es[n:]
	}
}

// truncate drops the entries at pos and above, pos a retained index. The
// chunk holding pos is replaced by a fresh copy of its slots below pos, so
// the slots it held are never written again.
func (l *entryLog) truncate(pos int) {
	k := pos/chunkSize - l.first
	cut := l.chunks[k]
	clear(l.chunks[k:])
	l.chunks = l.chunks[:k]
	if keep := pos % chunkSize; keep > 0 {
		fresh := make([]LogEntry, keep, chunkSize)
		copy(fresh, cut)
		l.chunks = append(l.chunks, fresh)
	}
	l.last = pos - 1
}

// compact makes idx, at most last, the new base: every chunk that holds no
// index above it is dropped. The chunk that holds idx+1 keeps its dead
// slots: nothing is copied.
func (l *entryLog) compact(idx int) {
	if d := (idx+1)/chunkSize - l.first; d > 0 {
		clear(l.chunks[:d])
		l.chunks = l.chunks[d:]
		l.first += d
	}
}

// reset empties the log onto a new base (a snapshot install).
func (l *entryLog) reset(base int) {
	clear(l.chunks)
	*l = entryLog{last: base, first: (base + 1) / chunkSize, chunks: l.chunks[:0]}
}

// slice returns the entries [lo, hi), retained indexes with lo <= hi <=
// last+1. Within one chunk it is a view into that chunk, capped at hi so that
// an append to it cannot write into the log; across a chunk boundary it is a
// copy. Either way the caller must not write it. An empty range is an empty,
// non-nil slice.
func (l *entryLog) slice(lo, hi int) []LogEntry {
	if lo >= hi {
		return []LogEntry{}
	}
	if k := lo / chunkSize; k == (hi-1)/chunkSize {
		s := hi - k*chunkSize
		return l.chunks[k-l.first][lo%chunkSize : s : s]
	}
	out := make([]LogEntry, 0, hi-lo)
	for i := lo; i < hi; {
		k := i / chunkSize
		end := min(hi, (k+1)*chunkSize)
		out = append(out, l.chunks[k-l.first][i%chunkSize:end-k*chunkSize]...)
		i = end
	}
	return out
}
