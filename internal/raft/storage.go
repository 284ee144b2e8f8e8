package raft

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// truncated at the first entry whose term differs from the stored one
	// at its index (nil entries = pure truncation at firstIndex): an index
	// and a term name one entry (DESIGN). When every entry is already stored
	// nothing is written and the stored suffix above them stays: two
	// overlapping appends of one log (a pipelined write rewrites the log
	// from the stable index up) then leave the same log whichever lands
	// first. firstIndex must lie in (snapshot index, last index+1].
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
// The segments are the only copy of the log; memory holds the term at each
// index above the base, which changes only once a write has landed. The first
// failed write or sync is latched: every later Save returns it, so a torn
// frame is never followed by a valid one in the same segment.
type FileStorage struct {
	mu    sync.Mutex
	fsys  FS
	dir   string       // clean, so that segPath matches filepath.Join
	f     File         // active segment; guarded by mu
	seq   int          // the active segment's sequence number; guarded by mu
	old   int          // the oldest live segment's; guarded by mu
	err   error        // the latched write error; guarded by mu
	base  int          // the snapshot base's index; guarded by mu
	terms []types.Time // terms[i] is the term at index base+1+i; guarded by mu

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

// walState is what the live segments hold; log is the log above base.
type walState struct {
	hs   HardState
	base LogSnapshot
	log  []LogEntry
}

// readLocked replays the live segments, oldest first.
func (fs *FileStorage) readLocked() (s walState, err error) {
	for seq := fs.old; seq <= fs.seq && err == nil; seq++ {
		err = s.replay(fs.fsys, segPath(fs.dir, seq))
	}
	return s, err
}

// replay folds the segment at path into s; a missing one folds nothing, and a
// gap it leaves in the log fails the next segment's replay. A segment gets
// its final name only once its header and base record are durable
// (rotateLocked), so both must be whole: anything else fails loudly. After
// the base, replay stops at the first frame that is short, fails its CRC or
// does not decode: a crash tears only the last write, and what precedes it is
// the durable prefix. If a complete, valid frame follows that point, the
// damage is inside the segment, not a torn tail, and replay fails loudly too.
func (s *walState) replay(fsys FS, path string) error {
	b, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
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
		if err := s.apply(rec); err != nil || len(rest) == 0 {
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

// segPath is filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq)) for a clean
// dir other than the root, in one allocation: Load reads each segment by it.
func segPath(dir string, seq int) string {
	var digits [20]byte
	n := strconv.AppendInt(digits[:0], int64(seq), 10)
	return dir + string(filepath.Separator) + "wal-" + "00000000"[min(len(n), 8):] + string(n) + ".seg"
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
// replays the retained segments in order, keeps the term at each index above
// the newest base record's snapshot, and starts a fresh active segment for
// this process generation.
func OpenFileStorageOn(fsys FS, dir string) (*FileStorage, error) {
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	fs := &FileStorage{fsys: fsys, dir: filepath.Clean(dir), old: 1}
	fs.mu.Lock()
	defer fs.mu.Unlock()

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("raft: open wal dir: %w", err)
	}
	for _, name := range names { // sorted, and the numbers zero-padded: ascending
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")); err == nil {
				if fs.seq == 0 {
					fs.old = n
				}
				fs.seq = n
			}
		case strings.HasSuffix(name, ".tmp"):
			// A rotation torn by a crash: the link never happened, so it
			// holds nothing durable.
			fsys.Remove(filepath.Join(dir, name))
		}
	}
	s, err := fs.readLocked()
	if err == nil {
		// Never append to an old segment (its tail may be torn): this
		// generation writes to a fresh one.
		err = fs.rotateLocked(s.hs, s.base, nil)
	}
	if err != nil {
		return nil, err
	}
	fs.base, fs.terms = s.base.Index, appendTerms(nil, s.log)
	return fs, nil
}

// appendTerms appends the term of each of es to terms.
func appendTerms(terms []types.Time, es []LogEntry) []types.Time {
	for _, e := range es {
		terms = append(terms, e.Term)
	}
	return terms
}

// rotateLocked closes the active segment (if any) and starts the next one
// with the header, a base record carrying hs and base, image included, and an
// entries record of suffix, the log above base, in one write. The write is
// made durable under a temp name and then linked into place, so a segment
// under its final name always holds its whole base; a link, unlike a rename,
// never replaces an existing segment.
func (fs *FileStorage) rotateLocked(hs HardState, base LogSnapshot, suffix []LogEntry) error {
	path := segPath(fs.dir, fs.seq+1)
	tmp := path + ".tmp"
	buf := appendRecord(append(make([]byte, 0, 64+len(base.Data)), walHeader...), walRecord{Kind: 2, HS: hs, Base: base})
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

// apply folds one replayed record into s. An entries record that starts at
// the base becomes the log itself, uncopied.
func (s *walState) apply(rec walRecord) error {
	switch rec.Kind {
	case 0:
		s.hs = rec.HS
	case 1:
		switch p := rec.FirstIndex - s.base.Index - 1; {
		case p < 0 || p > len(s.log):
			// A gap can only mean a segment was unlinked without its
			// covering snapshot surviving, and no store writes entries at or
			// below its base: fail loudly rather than fabricate a log.
			return fmt.Errorf("raft: wal replay: entries at %d outside (%d, %d]: a gap, or under the base",
				rec.FirstIndex, s.base.Index, s.base.Index+len(s.log)+1)
		case p == 0:
			s.log = rec.Entries
		default:
			s.log = append(s.log[:p], rec.Entries...)
		}
	case 2:
		s.hs = rec.HS
		switch {
		case rec.Base.Index > s.base.Index:
			s.log = s.log[min(rec.Base.Index-s.base.Index, len(s.log)):]
			s.base = rec.Base
		case rec.Base.Index < s.base.Index:
			// Bases only grow: an older one after a newer means the
			// segments are not the ones this store wrote.
			return fmt.Errorf("raft: wal replay: segment base %d below the base %d already replayed",
				rec.Base.Index, s.base.Index)
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
	return fs.appendLocked(walRecord{Kind: 0, HS: hs})
}

// SaveEntries implements Storage: it writes one record of the entries from
// the first one whose term differs from the stored one at its index, and none
// when all are stored.
func (fs *FileStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.err != nil {
		return fs.err
	}
	p := firstIndex - fs.base - 1
	if p < 0 || p > len(fs.terms) {
		return fmt.Errorf("raft: SaveEntries at %d outside [%d, %d], the log's first index through one past its last", firstIndex, fs.base+1, fs.base+len(fs.terms)+1)
	}
	k := 0
	for k < len(entries) && p+k < len(fs.terms) && fs.terms[p+k] == entries[k].Term {
		k++
	}
	if k > 0 && k == len(entries) {
		return nil
	}
	if err := fs.appendLocked(walRecord{Kind: 1, FirstIndex: firstIndex + k, Entries: entries[k:]}); err != nil {
		return err
	}
	fs.terms = appendTerms(fs.terms[:p+k], entries[k:])
	return nil
}

// SaveSnapshot implements Storage: rotate to a fresh segment holding snap and
// the log suffix above it, read back from the live segments, so the image is
// durable FIRST, then unlink every older segment, which the new one
// supersedes. Compaction cost is O(the live segments), not O(history).
func (fs *FileStorage) SaveSnapshot(snap LogSnapshot) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if snap.Index <= fs.base || fs.err != nil {
		return fs.err // stale: nothing to write
	}
	s, err := fs.readLocked()
	suffix := s.log[min(snap.Index-s.base.Index, len(s.log)):]
	if err == nil {
		err = fs.rotateLocked(s.hs, snap, suffix)
	}
	if err != nil {
		return err
	}
	fs.base, fs.terms = snap.Index, appendTerms(nil, suffix)
	for ; fs.old < fs.seq; fs.old++ {
		if err := fs.fsys.Remove(segPath(fs.dir, fs.old)); err != nil {
			return fmt.Errorf("raft: drop wal segment: %w", err)
		}
	}
	return fs.fsys.SyncDir(fs.dir)
}

// Load implements Storage: it replays the live segments and returns the log
// as decoded, with no copy kept, O(the live segments), not O(history).
func (fs *FileStorage) Load() (HardState, LogSnapshot, []LogEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s, err := fs.readLocked()
	return s.hs, s.base, s.log, err
}

// Holds reports whether the store holds the entry (idx, term): at or below
// its snapshot base, or above it with that term. It reads no disk.
func (fs *FileStorage) Holds(idx int, term types.Time) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := idx - fs.base - 1
	return p < 0 || p < len(fs.terms) && fs.terms[p] == term
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
