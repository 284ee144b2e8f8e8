package raft

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

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

// FileStorage is a directory of write-ahead-log segments plus snapshot
// files. Every state change and log mutation is one length-prefixed,
// independently gob-encoded record appended to the active segment; Load
// replays the snapshot and then the segments in order. Compaction
// (SaveSnapshot) writes the snapshot file atomically (temp + fsync +
// rename), rotates to a fresh segment, and unlinks the segment files the
// snapshot fully covers — an O(segments) unlink, not a log rewrite. Each
// open starts a new segment, so a torn tail from a crash mid-write is
// simply ignored at the next replay.
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

	// scratch is the reused frame-encoding buffer: the append hot path
	// encodes each record into it instead of allocating per record.
	scratch bytes.Buffer // guarded by mu
}

// walSegment is one live segment file.
type walSegment struct {
	seq int
	max int // highest absolute entry index possibly present
}

// walRecord is one WAL entry.
type walRecord struct {
	Kind       uint8 // 0 = state, 1 = entries, 2 = segment base
	HS         HardState
	FirstIndex int
	Entries    []LogEntry
	// Segment base (Kind 2): the snapshot the segment's contents build
	// on. The image itself lives in the snapshot file; replay fails
	// loudly if that file is missing or corrupt.
	SnapIndex int
	SnapTerm  types.Time
}

// encodeFrameInto serializes one record into buf as a length-prefixed
// standalone gob blob (each record carries its own type table, so streams
// survive appends by later process generations). buf is reset first, so
// callers can reuse one buffer across records and avoid the per-record
// allocations of building each frame from scratch.
func encodeFrameInto(buf *bytes.Buffer, rec walRecord) error {
	buf.Reset()
	var pad [frameHeaderLen]byte
	buf.Write(pad[:])
	if err := gob.NewEncoder(buf).Encode(rec); err != nil {
		return err
	}
	binary.BigEndian.PutUint32(buf.Bytes()[:frameHeaderLen], uint32(buf.Len()-frameHeaderLen))
	return nil
}

// readFrames decodes every complete record in r, ignoring a torn tail. A
// tail torn inside the 4-byte prefix can claim any length; ReadFrame sizes its
// buffer by the bytes the segment actually holds, never by the prefix.
func readFrames(r io.Reader) []walRecord {
	var recs []walRecord
	var buf []byte
	for {
		body, err := ReadFrame(r, buf)
		if err != nil {
			return recs // end of segment, or a torn write: the durable prefix stands
		}
		buf = body // gob copies what it decodes, so the next frame may reuse it
		var rec walRecord
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&rec); err != nil {
			return recs
		}
		recs = append(recs, rec)
	}
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

func snapPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", index))
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

// snapFileVersion leads every snapshot file body. A gob body from a build
// that predates this format starts with its first message's length, never 1,
// so it fails the load loudly instead of being mis-parsed.
const snapFileVersion = 1

var errSnapVersion = errors.New("raft: snapshot: unknown format version")

// writeSnapFile writes one snapshot atomically: length + CRC + body into a
// temp file, fsync, rename into place, fsync the directory. A crash
// mid-write leaves only an ignored .tmp; a crash after the rename leaves a
// fully valid file — there is no torn intermediate state. The body is the
// version, then index, term, members and image in the envelope's field
// encodings (wire.go).
func writeSnapFile(dir string, snap LogSnapshot) error {
	buf := append(make([]byte, 8, 64+len(snap.Data)), snapFileVersion)
	buf = binary.AppendVarint(buf, int64(snap.Index))
	buf = binary.AppendUvarint(buf, uint64(snap.Term))
	buf = appendBytes(appendMembers(buf, snap.Members), snap.Data)
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-8))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(buf[8:]))
	path := snapPath(dir, snap.Index)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("raft: write snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("raft: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("raft: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("raft: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("raft: rename snapshot: %w", err)
	}
	return syncDir(dir)
}

// readSnapFile loads and verifies one snapshot file. Any truncation or
// bit-rot fails loudly: snapshot files are written atomically, so unlike
// a WAL tail there is no legitimate torn state to tolerate. Like
// DecodeEnvelope it accepts only the canonical body and allocates no more
// than the file's own length, whatever its counts claim.
func readSnapFile(path string) (LogSnapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return LogSnapshot{}, err
	}
	if len(b) < 8 || int(binary.BigEndian.Uint32(b[0:4])) != len(b)-8 {
		return LogSnapshot{}, fmt.Errorf("raft: snapshot %s: corrupt length", path)
	}
	if crc32.ChecksumIEEE(b[8:]) != binary.BigEndian.Uint32(b[4:8]) {
		return LogSnapshot{}, fmt.Errorf("raft: snapshot %s: checksum mismatch", path)
	}
	r := wireReader{b: b[8:]}
	if r.byte() != snapFileVersion {
		r.fail(errSnapVersion)
	}
	snap := LogSnapshot{Index: r.int(), Term: types.Time(r.uvarint())}
	snap.Members = r.members()
	snap.Data = r.bytes()
	if r.err == nil && len(r.b) != 0 {
		r.fail(errWireTrailing)
	}
	if r.err != nil {
		return LogSnapshot{}, fmt.Errorf("raft: snapshot %s: %w", path, r.err)
	}
	return snap, nil
}

// OpenFileStorage opens (or creates) a WAL directory at dir: it loads the
// newest snapshot file (fail-stop if it is corrupt), replays the retained
// segments on top of it — only the suffix above the snapshot is ever
// materialized — and starts a fresh active segment for this process
// generation.
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
	snapIdx := -1
	for _, de := range entries {
		name := de.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")); err == nil {
				segSeqs = append(segSeqs, n)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap")); err == nil && n > snapIdx {
				snapIdx = n
			}
		case strings.HasSuffix(name, ".tmp"):
			// Torn snapshot write from a crash: the rename never
			// happened, so it holds nothing durable.
			os.Remove(filepath.Join(dir, name))
		}
	}
	sort.Ints(segSeqs)

	if snapIdx >= 0 {
		snap, err := readSnapFile(snapPath(dir, snapIdx))
		if err != nil {
			return nil, err
		}
		fs.base = snap
		fs.log[0] = LogEntry{Term: snap.Term}
	}
	for _, seq := range segSeqs {
		f, err := os.Open(segPath(dir, seq))
		if err != nil {
			return nil, fmt.Errorf("raft: open wal segment: %w", err)
		}
		recs := readFrames(f)
		if err := f.Close(); err != nil {
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
// with a base record carrying the current hard state and snapshot base.
func (fs *FileStorage) rotateLocked(seq int) error {
	if fs.f != nil {
		if err := fs.f.Close(); err != nil {
			return err
		}
		fs.f = nil
	}
	f, err := os.OpenFile(segPath(fs.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("raft: rotate wal segment: %w", err)
	}
	fs.f = f
	fs.segs = append(fs.segs, walSegment{seq: seq})
	if err := fs.appendLocked(walRecord{
		Kind: 2, HS: fs.hs, SnapIndex: fs.base.Index, SnapTerm: fs.base.Term,
	}); err != nil {
		return err
	}
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
		if rec.SnapIndex > fs.base.Index {
			return fmt.Errorf("raft: wal replay: segment base %d but newest snapshot is %d (snapshot file missing or corrupt)",
				rec.SnapIndex, fs.base.Index)
		}
	}
	return nil
}

func (fs *FileStorage) appendLocked(rec walRecord) error {
	if err := encodeFrameInto(&fs.scratch, rec); err != nil {
		return fmt.Errorf("raft: wal append: %w", err)
	}
	if _, err := fs.f.Write(fs.scratch.Bytes()); err != nil {
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

// SaveSnapshot implements Storage: write the snapshot file atomically and
// make it durable FIRST, then rotate to a fresh segment and unlink the
// segment files the snapshot fully covers. Compaction cost is O(retained
// suffix + number of segments), independent of history length.
func (fs *FileStorage) SaveSnapshot(snap LogSnapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if snap.Index <= fs.base.Index {
		return nil // stale
	}
	// 1. Snapshot durable before any log prefix is dropped.
	if err := writeSnapFile(fs.dir, snap); err != nil {
		return err
	}
	oldSnap := fs.base.Index
	fs.log = spliceSuffix(fs.log, fs.base.Index, snap)
	fs.base = snap
	// 2. Rotate so the active segment's base record reflects the new
	// snapshot; later segments only ever hold suffix entries.
	if err := fs.rotateLocked(fs.segs[len(fs.segs)-1].seq + 1); err != nil {
		return err
	}
	// 3. Unlink the prefix of segments whose entries are all at or below
	// the base (never the active segment). Their hard-state records are
	// superseded by the base record just written.
	cut := 0
	for cut < len(fs.segs)-1 && fs.segs[cut].max <= snap.Index {
		if err := os.Remove(segPath(fs.dir, fs.segs[cut].seq)); err != nil {
			return fmt.Errorf("raft: drop wal segment: %w", err)
		}
		cut++
	}
	fs.segs = append(fs.segs[:0], fs.segs[cut:]...)
	// 4. Older snapshot files are fully superseded.
	if oldSnap > 0 {
		if err := os.Remove(snapPath(fs.dir, oldSnap)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("raft: drop old snapshot: %w", err)
		}
	}
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

// SegmentCount returns the number of live WAL segment files (tests use it
// to assert compaction keeps the directory bounded).
func (fs *FileStorage) SegmentCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.segs)
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

// CountingStorage wraps a Storage and counts its SaveEntries (WAL frames)
// and SaveSnapshot calls.
type CountingStorage struct {
	Inner Storage

	entrySaves atomic.Uint64
	snapSaves  atomic.Uint64
}

// SaveState implements Storage.
func (c *CountingStorage) SaveState(hs HardState) error { return c.Inner.SaveState(hs) }

// SaveEntries implements Storage.
func (c *CountingStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	c.entrySaves.Add(1)
	return c.Inner.SaveEntries(firstIndex, entries)
}

// SaveSnapshot implements Storage.
func (c *CountingStorage) SaveSnapshot(snap LogSnapshot) error {
	c.snapSaves.Add(1)
	return c.Inner.SaveSnapshot(snap)
}

// Load implements Storage.
func (c *CountingStorage) Load() (HardState, LogSnapshot, []LogEntry, error) {
	return c.Inner.Load()
}

// Close implements Storage.
func (c *CountingStorage) Close() error { return c.Inner.Close() }

// EntrySaves returns the number of SaveEntries calls (WAL frames written).
func (c *CountingStorage) EntrySaves() uint64 { return c.entrySaves.Load() }

// SnapshotSaves returns the number of SaveSnapshot calls.
func (c *CountingStorage) SnapshotSaves() uint64 { return c.snapSaves.Load() }
