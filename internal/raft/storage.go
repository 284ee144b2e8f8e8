package raft

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
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
	// truncated at the first entry that differs from the stored one at its
	// index (nil entries = pure truncation at firstIndex). Entries already
	// stored at their index are kept as they are, and when every entry is
	// already stored nothing is written and the stored suffix above them
	// stays: two overlapping appends of one log (a pipelined write rewrites
	// the log from the stable index up) then leave the same log whichever
	// lands first. firstIndex must lie in (snapshot index, last index+1].
	// entries is a shared, read-only view into the core's log: copy it to
	// keep it, never write it.
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

// FileStorage is a directory of write-ahead-log segments and nothing else,
// kept on an FS. Every segment begins with a base record holding the whole
// base it builds on — hard state and snapshot, image included — and every
// later state change and log mutation is one record, appended to the active
// segment as one CRC-checked durable frame; Load replays the segments in
// order. Compaction (SaveSnapshot) starts a fresh segment holding the new
// snapshot and the log suffix above it, and unlinks every older segment. Each
// open starts a new segment, so a torn tail from a crash mid-write is simply
// ignored at the next replay.
//
// The cached state changes only once a write has landed, and the first failed
// write or sync is latched: every later Save returns it, so a torn frame is
// never followed by a valid one in the same segment.
type FileStorage struct {
	mu   sync.Mutex
	fsys FS
	dir  string
	f    File  // active segment; guarded by mu
	seq  int   // the active segment's sequence number; guarded by mu
	old  int   // the oldest live segment's; guarded by mu
	err  error // the latched write error; guarded by mu

	// cached live state
	hs   HardState   // guarded by mu
	base LogSnapshot // snapshot base; guarded by mu
	log  []LogEntry  // suffix after base, sentinel at [0]; guarded by mu

	// buf is the reused frame-encoding buffer: the append hot path encodes
	// each record into it instead of allocating per record.
	buf []byte // guarded by mu
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

// replayLocked folds one segment's records into the cached state. A segment
// gets its final name only once its header and base record are durable
// (rotateLocked), so both must be whole: anything else fails loudly. After the
// base, replay stops at the first frame that is short, fails its CRC or does
// not decode: a crash tears only the last write, and what precedes it is the
// durable prefix. If a complete, valid frame follows that point, the damage is
// inside the segment, not a torn tail, and replay fails loudly too.
func (fs *FileStorage) replayLocked(path string) error {
	b, err := fs.fsys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("raft: open wal segment: %w", err)
	}
	if len(b) < len(walHeader) || string(b[:len(walHeader)]) != walHeader {
		return fmt.Errorf("raft: wal segment %s: %w", path, errWALFormat)
	}
	rec, rest, err := nextRecord(b[len(walHeader):])
	if err == nil && rec.Kind != 2 {
		err = errWireRange
	}
	if err != nil {
		return fmt.Errorf("raft: wal segment %s: base record: %w", path, err)
	}
	for {
		if err := fs.applyRecordLocked(rec); err != nil || len(rest) == 0 {
			return err
		}
		at := len(b) - len(rest)
		if rec, rest, err = nextRecord(rest); err != nil {
			for next := at + 1; next < len(b); next++ {
				if _, _, err := nextRecord(b[next:]); err == nil {
					return fmt.Errorf("raft: wal segment %s: frame at byte %d is damaged but a valid frame follows at byte %d",
						path, at, next)
				}
			}
			return nil
		}
	}
}

func segPath(dir string, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
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

// OpenFileStorage is OpenFileStorageOn the operating system's file system.
func OpenFileStorage(dir string) (*FileStorage, error) { return OpenFileStorageOn(OSFS, dir) }

// OpenFileStorageOn opens (or creates) a WAL directory at dir on fsys: it
// replays the retained segments in order — each base record installs its
// snapshot, so only the suffix above the newest one is ever materialized —
// and starts a fresh active segment for this process generation.
func OpenFileStorageOn(fsys FS, dir string) (*FileStorage, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	fs := &FileStorage{fsys: fsys, dir: dir, old: 1, log: make([]LogEntry, 1)}
	fs.mu.Lock()
	defer fs.mu.Unlock()

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	var segSeqs []int // ascending: the names are sorted and zero-padded
	for _, name := range names {
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")); err == nil {
				segSeqs = append(segSeqs, n)
			}
		case strings.HasSuffix(name, ".tmp"):
			// A rotation torn by a crash: the link never happened, so it
			// holds nothing durable.
			fsys.Remove(filepath.Join(dir, name))
		}
	}
	for _, seq := range segSeqs {
		if err := fs.replayLocked(segPath(dir, seq)); err != nil {
			return nil, err
		}
	}
	if n := len(segSeqs); n > 0 {
		fs.old, fs.seq = segSeqs[0], segSeqs[n-1]
	}
	// Never append to an old segment (its tail may be torn): this
	// generation writes to a fresh one.
	if err := fs.rotateLocked(fs.base, nil); err != nil {
		return nil, err
	}
	return fs, nil
}

// rotateLocked closes the active segment (if any) and starts the next one
// with the header, a base record carrying the current hard state and base,
// image included, and an entries record of suffix, the log above base, in one
// write. The write is made durable under a temp name and then linked into
// place, so a segment under its final name always holds its whole base; a
// link, unlike a rename, never replaces an existing segment.
func (fs *FileStorage) rotateLocked(base LogSnapshot, suffix []LogEntry) error {
	if fs.err != nil {
		return fs.err
	}
	path := segPath(fs.dir, fs.seq+1)
	tmp := path + ".tmp"
	buf := appendRecord(append(make([]byte, 0, 64+len(base.Data)), walHeader...), walRecord{Kind: 2, HS: fs.hs, Base: base})
	if len(suffix) > 0 {
		buf = appendRecord(buf, walRecord{Kind: 1, FirstIndex: base.Index + 1, Entries: suffix})
	}
	var err error
	if fs.f != nil {
		err = fs.f.Close()
	}
	if err == nil {
		fs.f, err = fs.fsys.Create(tmp)
	}
	if err == nil {
		_, err = fs.f.Write(buf)
	}
	if err == nil {
		err = fs.f.Sync()
	}
	if err == nil {
		err = fs.fsys.Link(tmp, path)
	}
	if err == nil {
		err = fs.fsys.Remove(tmp)
	}
	if err == nil {
		err = fs.fsys.SyncDir(fs.dir)
	}
	if err != nil {
		fs.err = fmt.Errorf("raft: rotate wal segment: %w", err)
		return fs.err
	}
	fs.seq++
	return nil
}

// applyRecordLocked folds one replayed record into the cached state.
func (fs *FileStorage) applyRecordLocked(rec walRecord) error {
	switch rec.Kind {
	case 0:
		fs.hs = rec.HS
	case 1:
		p := rec.FirstIndex - fs.base.Index
		if p < 1 || p > len(fs.log) {
			// A gap can only mean a segment was unlinked without its
			// covering snapshot surviving, and no store writes entries at or
			// below its base: fail loudly rather than fabricate a log.
			return fmt.Errorf("raft: wal replay: entries at %d outside (%d, %d]: a gap, or under the base",
				rec.FirstIndex, fs.base.Index, fs.base.Index+len(fs.log))
		}
		fs.log = append(fs.log[:p], rec.Entries...)
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
	if fs.err != nil {
		return fs.err
	}
	fs.buf = appendRecord(fs.buf[:0], rec)
	_, err := fs.f.Write(fs.buf)
	if err == nil {
		err = fs.f.Sync()
	}
	if err != nil {
		fs.err = fmt.Errorf("raft: wal append: %w", err)
	}
	return fs.err
}

// SaveState implements Storage.
func (fs *FileStorage) SaveState(hs HardState) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.appendLocked(walRecord{Kind: 0, HS: hs}); err != nil {
		return err
	}
	fs.hs = hs
	return nil
}

// SaveEntries implements Storage: it writes one record of the entries from
// the first one not already stored at its index, and none when all are.
func (fs *FileStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := firstIndex - fs.base.Index
	if fs.err == nil && (p < 1 || p > len(fs.log)) { // a failed store reports its write error
		return fmt.Errorf("raft: SaveEntries at %d outside log (%d, %d]",
			firstIndex, fs.base.Index, fs.base.Index+len(fs.log)-1)
	}
	k := 0
	for k < len(entries) && p+k < len(fs.log) && sameEntry(fs.log[p+k], entries[k]) {
		k++
	}
	if k > 0 && k == len(entries) {
		return fs.err
	}
	if err := fs.appendLocked(walRecord{Kind: 1, FirstIndex: firstIndex + k, Entries: entries[k:]}); err != nil {
		return err
	}
	fs.log = append(fs.log[:p+k], entries[k:]...)
	return nil
}

// sameEntry reports whether a and b are the same log entry: same term, kind,
// command and members.
func sameEntry(a, b LogEntry) bool {
	return a.Term == b.Term && a.Kind == b.Kind && bytes.Equal(a.Command, b.Command) && slices.Equal(a.Members, b.Members)
}

// SaveSnapshot implements Storage: rotate to a fresh segment holding snap and
// the log suffix above it, so the image is durable FIRST, then unlink every
// older segment, which the new one supersedes. Compaction cost is O(image +
// retained suffix + number of segments), independent of history length.
func (fs *FileStorage) SaveSnapshot(snap LogSnapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if snap.Index <= fs.base.Index {
		return fs.err // stale: nothing to write
	}
	log := spliceSuffix(fs.log, fs.base.Index, snap)
	if err := fs.rotateLocked(snap, log[1:]); err != nil {
		return err
	}
	fs.base, fs.log = snap, log
	for ; fs.old < fs.seq; fs.old++ {
		if err := fs.fsys.Remove(segPath(fs.dir, fs.old)); err != nil {
			return fmt.Errorf("raft: drop wal segment: %w", err)
		}
	}
	return fs.fsys.SyncDir(fs.dir)
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
