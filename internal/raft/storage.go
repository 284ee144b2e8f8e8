package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"adore/internal/types"
)

// Storage persists a node's hard state, snapshot, and log suffix.
// Implementations must make each call durable before returning — the
// protocol's safety after a crash depends on it. A nil Storage in Options
// means the node is volatile (fine for models, benchmarks, and tests that
// never restart nodes).
type Storage interface {
	// SaveState durably records the term and vote.
	SaveState(hs HardState) error
	// SaveEntries durably replaces the log suffix starting at the
	// absolute index firstIndex with entries; the log is implicitly
	// truncated at firstIndex before the append (nil entries = pure
	// truncation). firstIndex must lie in (snapshot index, last index+1].
	SaveEntries(firstIndex int, entries []LogEntry) error
	// SaveSnapshot durably records snap and drops the stored log prefix
	// [1, snap.Index]. The snapshot MUST be durable before any prefix is
	// dropped ("snapshot durable before log drop") — a crash between the
	// two must never lose the only copy of committed state. Entries above
	// snap.Index are retained. A snapshot at or below the current base is
	// a no-op.
	SaveSnapshot(snap LogSnapshot) error
	// Load recovers the persisted state: hard state, the snapshot base
	// (zero Index when none), and the retained entries after the base,
	// without any sentinel. A fresh store returns zero values.
	Load() (HardState, LogSnapshot, []LogEntry, error)
	// Close releases resources.
	Close() error
}

// MemStorage is an in-memory Storage for tests: durable across Node
// restarts within a process, not across process crashes.
type MemStorage struct {
	mu   sync.Mutex
	hs   HardState   // guarded by mu
	base LogSnapshot // snapshot base; guarded by mu
	log  []LogEntry  // suffix after base, sentinel at [0]; guarded by mu
}

// NewMemStorage creates an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{log: make([]LogEntry, 1)}
}

// SaveState implements Storage.
func (m *MemStorage) SaveState(hs HardState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hs = hs
	return nil
}

// SaveEntries implements Storage.
func (m *MemStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := firstIndex - m.base.Index
	if p < 1 || p > len(m.log) {
		return fmt.Errorf("raft: SaveEntries at %d outside log (%d, %d]",
			firstIndex, m.base.Index, m.base.Index+len(m.log)-1)
	}
	m.log = append(m.log[:p], entries...)
	return nil
}

// SaveSnapshot implements Storage.
func (m *MemStorage) SaveSnapshot(snap LogSnapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if snap.Index <= m.base.Index {
		return nil // stale
	}
	m.log = spliceSuffix(m.log, m.base.Index, snap)
	m.base = snap
	return nil
}

// Load implements Storage. The returned slice is a copy of the retained
// suffix only — bounded by the compaction threshold, not by history.
func (m *MemStorage) Load() (HardState, LogSnapshot, []LogEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]LogEntry, len(m.log)-1)
	copy(out, m.log[1:])
	return m.hs, m.base, out, nil
}

// Close implements Storage.
func (m *MemStorage) Close() error { return nil }

// spliceSuffix rebuilds a sentinel-prefixed log as the suffix above a new
// snapshot base. oldBase is the previous base index of log.
func spliceSuffix(log []LogEntry, oldBase int, snap LogSnapshot) []LogEntry {
	if p := snap.Index - oldBase; p < len(log) {
		out := make([]LogEntry, len(log)-p)
		copy(out, log[p:])
		out[0] = LogEntry{Term: snap.Term}
		return out
	}
	// The snapshot covers (or outruns) the whole log: empty suffix.
	return []LogEntry{{Term: snap.Term}}
}

// FileStorage is a directory of write-ahead-log segments and nothing else.
// Every segment begins with a base record holding the whole base it builds on
// — hard state and snapshot, image included — and every later state change
// and log mutation is one record, appended to the active segment as one
// CRC-checked durable frame; Load replays the segments in order. Compaction
// (SaveSnapshot) starts a fresh segment whose base is the new snapshot and
// unlinks the segment files that snapshot fully covers — an O(segments)
// unlink, not a log rewrite. Each open starts a new segment, so a torn tail
// from a crash mid-write is simply ignored at the next replay.
type FileStorage struct {
	mu  sync.Mutex
	dir string
	f   *os.File // active segment; guarded by mu

	// cached live state
	hs   HardState   // guarded by mu
	base LogSnapshot // snapshot base; guarded by mu
	log  []LogEntry  // suffix after base, sentinel at [0]; guarded by mu

	// segs are the live segments in sequence order; the last one is
	// active. max is the highest absolute entry index a segment may
	// contain (an overestimate is safe: it only delays its unlink).
	segs []walSegment // guarded by mu

	// buf is the reused frame-encoding buffer: the append hot path encodes
	// each record into it instead of allocating per record.
	buf []byte // guarded by mu
}

// walSegment is one live segment file.
type walSegment struct {
	seq int
	max int // highest absolute entry index possibly present
}

// A segment is walHeader, then one durable frame per record, the first of
// them its base record. The header goes out in the same write as the base.
const walHeader = "ADOREWAL\x02" // magic, format version 2

var errWALFormat = errors.New("raft: wal: segment does not start with the ADOREWAL v2 header " +
	"(a WAL from a build with another on-disk format is not read: wipe the directory)")

// walRecord is one WAL record.
type walRecord struct {
	Kind       uint8 // 0 = state, 1 = entries, 2 = segment base
	HS         HardState
	FirstIndex int
	Entries    []LogEntry
	// Segment base (Kind 2): the snapshot the segment's contents build
	// on, image included.
	Base LogSnapshot
}

// appendRecord appends rec to dst as one durable frame whose body is the
// kind byte, then that kind's fields in the envelope's encodings (wire.go).
func appendRecord(dst []byte, rec walRecord) []byte {
	start := len(dst)
	dst = append(append(dst, make([]byte, durableHeaderLen)...), rec.Kind)
	if rec.Kind == 1 {
		dst = binary.AppendVarint(dst, int64(rec.FirstIndex))
		dst = appendEntries(dst, rec.Entries)
	} else {
		dst = binary.AppendUvarint(dst, uint64(rec.HS.Term))
		dst = binary.AppendUvarint(dst, uint64(rec.HS.VotedFor))
		if rec.Kind == 2 {
			dst = binary.AppendVarint(dst, int64(rec.Base.Index))
			dst = binary.AppendUvarint(dst, uint64(rec.Base.Term))
			dst = appendBytes(appendMembers(dst, rec.Base.Members), rec.Base.Data)
		}
	}
	sealFrame(dst[start:])
	return dst
}

// nextRecord decodes the durable frame at the front of b as one record and
// returns the bytes after it. Decoding is as strict as DecodeEnvelope's.
func nextRecord(b []byte) (walRecord, []byte, error) {
	body, rest, err := splitFrame(b)
	if err != nil {
		return walRecord{}, nil, err
	}
	r := wireReader{b: body}
	rec := walRecord{Kind: r.byte()}
	switch rec.Kind {
	case 1:
		rec.FirstIndex, rec.Entries = r.int(), r.entries()
	case 0, 2:
		rec.HS = HardState{Term: types.Time(r.uvarint()), VotedFor: types.NodeID(r.uvarint32())}
		if rec.Kind == 2 {
			rec.Base = LogSnapshot{Index: r.int(), Term: types.Time(r.uvarint())}
			rec.Base.Members, rec.Base.Data = r.members(), r.bytes()
		}
	default:
		r.fail(errWireRange)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(errWireTrailing)
	}
	return rec, rest, r.err
}

// replaySegment reads one segment's records. A segment gets its final name
// only once its header and base record are durable (rotateLocked), so both
// must be whole: anything else fails loudly. After the base, replay stops at
// the first frame that is short, fails its CRC or does not decode: a crash
// tears only the last write, and what precedes it is the durable prefix. If a
// complete, valid frame follows that point, the damage is inside the segment,
// not a torn tail, and replay fails loudly too.
func replaySegment(path string) ([]walRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal segment: %w", err)
	}
	if len(b) < len(walHeader) || string(b[:len(walHeader)]) != walHeader {
		return nil, fmt.Errorf("raft: wal segment %s: %w", path, errWALFormat)
	}
	base, rest, err := nextRecord(b[len(walHeader):])
	if err == nil && base.Kind != 2 {
		err = errWireRange
	}
	if err != nil {
		return nil, fmt.Errorf("raft: wal segment %s: base record: %w", path, err)
	}
	recs := []walRecord{base}
	for at := len(b) - len(rest); at < len(b); {
		rec, rest, err := nextRecord(b[at:])
		if err != nil {
			for next := at + 1; next < len(b); next++ {
				if _, _, err := nextRecord(b[next:]); err == nil {
					return nil, fmt.Errorf("raft: wal segment %s: frame at byte %d is damaged but a valid frame follows at byte %d",
						path, at, next)
				}
			}
			return recs, nil
		}
		recs = append(recs, rec)
		at = len(b) - len(rest)
	}
	return recs, nil
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// syncDir fsyncs a directory so renames/creates/unlinks inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// The durable frame, one per WAL record:
//
//	u32 big-endian body length · u32 CRC-32 (IEEE) of the body · body
//
// A writer appends durableHeaderLen zero bytes, then the body, then calls
// sealFrame.
const durableHeaderLen = 8

var (
	errFrameLength = errors.New("raft: frame: corrupt length")
	errFrameCRC    = errors.New("raft: frame: checksum mismatch")
)

// sealFrame fills in the header of the durable frame that starts at frame[0]
// and runs to its end.
func sealFrame(frame []byte) {
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-durableHeaderLen))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[durableHeaderLen:]))
}

// splitFrame checks the durable frame at the front of b and returns its body
// and the bytes after it: errFrameLength if b ends inside the frame,
// errFrameCRC if the body does not match its checksum.
func splitFrame(b []byte) (body, rest []byte, err error) {
	if len(b) < durableHeaderLen {
		return nil, nil, errFrameLength
	}
	n := uint64(binary.BigEndian.Uint32(b[0:4]))
	if n > uint64(len(b)-durableHeaderLen) {
		return nil, nil, errFrameLength
	}
	body, rest = b[durableHeaderLen:durableHeaderLen+n], b[durableHeaderLen+n:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(b[4:8]) {
		return nil, nil, errFrameCRC
	}
	return body, rest, nil
}

// OpenFileStorage opens (or creates) a WAL directory at dir: it replays the
// retained segments in order — each base record installs its snapshot, so
// only the suffix above the newest one is ever materialized — and starts a
// fresh active segment for this process generation.
func OpenFileStorage(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	fs := &FileStorage{dir: dir, log: make([]LogEntry, 1)}
	fs.mu.Lock()
	defer fs.mu.Unlock()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	var segSeqs []int
	for _, de := range entries {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")); err == nil {
				segSeqs = append(segSeqs, n)
			}
		case strings.HasSuffix(name, ".tmp"):
			// A rotation torn by a crash: the link never happened, so it
			// holds nothing durable.
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Ints(segSeqs)

	for _, seq := range segSeqs {
		recs, err := replaySegment(segPath(dir, seq))
		if err != nil {
			return nil, err
		}
		max := 0
		for _, rec := range recs {
			if err := fs.applyRecordLocked(rec); err != nil {
				return nil, err
			}
			if rec.Kind == 1 && len(rec.Entries) > 0 {
				if end := rec.FirstIndex + len(rec.Entries) - 1; end > max {
					max = end
				}
			}
		}
		fs.segs = append(fs.segs, walSegment{seq: seq, max: max})
	}
	// Never append to an old segment (its tail may be torn): this
	// generation writes to a fresh one.
	next := 1
	if n := len(fs.segs); n > 0 {
		next = fs.segs[n-1].seq + 1
	}
	if err := fs.rotateLocked(next); err != nil {
		return nil, err
	}
	return fs, nil
}

// rotateLocked closes the active segment (if any) and starts segment seq
// with the header and a base record carrying the current hard state and
// snapshot, image included, in one write. The write is made durable under a
// temp name and then linked into place, so a segment under its final name
// always holds its whole base; a link, unlike a rename, never replaces an
// existing segment.
func (fs *FileStorage) rotateLocked(seq int) error {
	if fs.f != nil {
		if err := fs.f.Close(); err != nil {
			return err
		}
		fs.f = nil
	}
	path := segPath(fs.dir, seq)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("raft: rotate wal segment: %w", err)
	}
	fs.f = f
	buf := append(make([]byte, 0, 64+len(fs.base.Data)), walHeader...)
	_, err = f.Write(appendRecord(buf, walRecord{Kind: 2, HS: fs.hs, Base: fs.base}))
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Link(tmp, path)
	}
	if err == nil {
		err = os.Remove(tmp)
	}
	if err != nil {
		return fmt.Errorf("raft: rotate wal segment: %w", err)
	}
	fs.segs = append(fs.segs, walSegment{seq: seq})
	return syncDir(fs.dir)
}

// applyRecordLocked folds one replayed record into the cached state.
func (fs *FileStorage) applyRecordLocked(rec walRecord) error {
	switch rec.Kind {
	case 0:
		fs.hs = rec.HS
	case 1:
		first, ents := rec.FirstIndex, rec.Entries
		if first <= fs.base.Index {
			// The snapshot already covers a prefix of this record.
			drop := fs.base.Index + 1 - first
			if drop >= len(ents) {
				return nil // entirely below the base
			}
			ents = ents[drop:]
			first = fs.base.Index + 1
		}
		p := first - fs.base.Index
		if p > len(fs.log) {
			// A gap can only mean a segment was unlinked without its
			// covering snapshot surviving — fail loudly rather than
			// fabricate a log.
			return fmt.Errorf("raft: wal replay: entries at %d leave a gap after %d",
				first, fs.base.Index+len(fs.log)-1)
		}
		fs.log = append(fs.log[:p], ents...)
	case 2:
		fs.hs = rec.HS
		switch {
		case rec.Base.Index > fs.base.Index:
			fs.log = spliceSuffix(fs.log, fs.base.Index, rec.Base)
			fs.base = rec.Base
		case rec.Base.Index < fs.base.Index:
			// Bases only grow: an older one after a newer means the
			// segments are not the ones this store wrote.
			return fmt.Errorf("raft: wal replay: segment base %d below the base %d already replayed",
				rec.Base.Index, fs.base.Index)
		}
	}
	return nil
}

// appendLocked writes rec's frame to the active segment in one write, and
// syncs it.
func (fs *FileStorage) appendLocked(rec walRecord) error {
	fs.buf = appendRecord(fs.buf[:0], rec)
	if _, err := fs.f.Write(fs.buf); err != nil {
		return fmt.Errorf("raft: wal append: %w", err)
	}
	return fs.f.Sync()
}

// SaveState implements Storage.
func (fs *FileStorage) SaveState(hs HardState) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hs = hs
	return fs.appendLocked(walRecord{Kind: 0, HS: hs})
}

// SaveEntries implements Storage.
func (fs *FileStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := firstIndex - fs.base.Index
	if p < 1 || p > len(fs.log) {
		return fmt.Errorf("raft: SaveEntries at %d outside log (%d, %d]",
			firstIndex, fs.base.Index, fs.base.Index+len(fs.log)-1)
	}
	fs.log = append(fs.log[:p], entries...)
	if len(entries) > 0 {
		active := &fs.segs[len(fs.segs)-1]
		if end := firstIndex + len(entries) - 1; end > active.max {
			active.max = end
		}
	}
	return fs.appendLocked(walRecord{Kind: 1, FirstIndex: firstIndex, Entries: entries})
}

// SaveSnapshot implements Storage: rotate to a fresh segment whose base
// record is snap, so the image is durable FIRST, then unlink the segment
// files the snapshot fully covers. Compaction cost is O(image + retained
// suffix + number of segments), independent of history length.
func (fs *FileStorage) SaveSnapshot(snap LogSnapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if snap.Index <= fs.base.Index {
		return nil // stale
	}
	fs.log = spliceSuffix(fs.log, fs.base.Index, snap)
	fs.base = snap
	// The image is durable, in the new active segment's base record,
	// before any log prefix is dropped.
	if err := fs.rotateLocked(fs.segs[len(fs.segs)-1].seq + 1); err != nil {
		return err
	}
	// Unlink the prefix of segments whose entries are all at or below the
	// base (never the active segment). Their records are superseded by
	// the base record just written.
	cut := 0
	for cut < len(fs.segs)-1 && fs.segs[cut].max <= snap.Index {
		if err := os.Remove(segPath(fs.dir, fs.segs[cut].seq)); err != nil {
			return fmt.Errorf("raft: drop wal segment: %w", err)
		}
		cut++
	}
	fs.segs = append(fs.segs[:0], fs.segs[cut:]...)
	return syncDir(fs.dir)
}

// Load implements Storage. The returned slice is a copy of the retained
// suffix only — bounded by the compaction threshold, not by history.
func (fs *FileStorage) Load() (HardState, LogSnapshot, []LogEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]LogEntry, len(fs.log)-1)
	copy(out, fs.log[1:])
	return fs.hs, fs.base, out, nil
}

// Close implements Storage.
func (fs *FileStorage) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	err := fs.f.Close()
	fs.f = nil
	return err
}
