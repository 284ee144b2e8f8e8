// Package kvstore is the distributed key-value store the paper uses as its
// running application example (§2): a replicated map driven through the
// consensus log. Writes go through the log, with client request IDs making
// retries idempotent; reads are served from a replica's Store once it has
// applied through a read index. A Server is one replica (cmd/raft-kv runs one
// over TCP); Replicated runs one per node in process.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"adore/internal/raft"
)

// Op enumerates store operations.
type Op string

const (
	// OpPut sets a key; OpGet reads it; OpDelete removes it; OpCAS
	// performs compare-and-swap; OpAppend appends to the value.
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpDelete Op = "delete"
	OpCAS    Op = "cas"
	OpAppend Op = "append"
)

// Command is the log entry payload. Its byte format is hand-rolled (see
// Encode) so that applying an entry — which every replica does for every
// command, inside the apply pump the next commit waits behind — costs a few
// length checks and the key/value string copies, with no reflection.
type Command struct {
	Op    Op
	Key   string
	Value string
	Old   string // CAS expected value

	// Client and Seq identify the request for idempotency.
	Client uint64
	Seq    uint64
}

// commandVersion leads every encoded command. It is never '{', so a JSON
// payload written by a build that predates this format is a decode error,
// not a mis-parse.
const commandVersion = 1

// opByCode maps the wire's op byte to its Op; code 0 is invalid.
var opByCode = [...]Op{1: OpPut, 2: OpGet, 3: OpDelete, 4: OpCAS, 5: OpAppend}

func (o Op) code() byte {
	for code := 1; code < len(opByCode); code++ {
		if opByCode[code] == o {
			return byte(code)
		}
	}
	return 0
}

// uvarintLen is the number of bytes binary.AppendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Encode serializes the command for a raft proposal:
//
//	version(1 B) · op(1 B) · uvarint Client · uvarint Seq · Key · Value · Old
//
// with each string as uvarint length + bytes. The buffer is sized exactly,
// once: the bytes live in every replica's log.
func (c Command) Encode() []byte {
	code := c.Op.code()
	if code == 0 {
		panic(fmt.Sprintf("kvstore: encode: unknown op %q", c.Op)) // callers build commands from the Op constants
	}
	strs := [...]string{c.Key, c.Value, c.Old}
	n := 2 + uvarintLen(c.Client) + uvarintLen(c.Seq)
	for _, s := range strs {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	b := make([]byte, 0, n)
	b = append(b, commandVersion, code)
	b = binary.AppendUvarint(b, c.Client)
	b = binary.AppendUvarint(b, c.Seq)
	for _, s := range strs {
		b = appendString(b, s)
	}
	return b
}

var (
	errCommandShort    = errors.New("kvstore: decode: short input")
	errCommandVersion  = errors.New("kvstore: decode: unknown version")
	errCommandOp       = errors.New("kvstore: decode: unknown op")
	errCommandVarint   = errors.New("kvstore: decode: malformed or non-minimal varint")
	errCommandBool     = errors.New("kvstore: decode: flag not 0 or 1")
	errCommandTrailing = errors.New("kvstore: decode: trailing bytes")
)

// commandReader consumes an encoded command or Store image front to back;
// the first error sticks and empties the reader, so every later read returns
// zero.
type commandReader struct {
	b   []byte
	err error
}

func (r *commandReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *commandReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errCommandShort)
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		// Overflow, or a padded encoding: one value has one encoding, so
		// Encode(Decode(b)) == b for every b that decodes.
		r.fail(errCommandVarint)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an element count whose elements each occupy at least minLen
// bytes, and rejects one the unread bytes cannot hold.
func (r *commandReader) count(minLen int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minLen) {
		r.fail(errCommandShort)
		return 0
	}
	return int(n)
}

// bool reads a uvarint that must be 0 or 1.
func (r *commandReader) bool() bool {
	v := r.uvarint()
	if v > 1 {
		r.fail(errCommandBool)
	}
	return v == 1
}

func (r *commandReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// DecodeCommand parses a log payload. Decoding is strict — a wrong version,
// an op outside the five, a length that overruns the payload, a non-minimal
// varint and trailing bytes are all errors — so every replica reaches the
// same verdict on the same bytes.
func DecodeCommand(b []byte) (Command, error) {
	if len(b) < 2 {
		return Command{}, errCommandShort
	}
	if b[0] != commandVersion {
		return Command{}, errCommandVersion
	}
	if b[1] == 0 || int(b[1]) >= len(opByCode) {
		return Command{}, errCommandOp
	}
	r := commandReader{b: b[2:]}
	c := Command{Op: opByCode[b[1]]}
	c.Client = r.uvarint()
	c.Seq = r.uvarint()
	c.Key = r.str()
	c.Value = r.str()
	c.Old = r.str()
	if r.err == nil && len(r.b) != 0 {
		r.err = errCommandTrailing
	}
	if r.err != nil {
		return Command{}, r.err
	}
	return c, nil
}

// Result is the outcome of one applied command.
type Result struct {
	Value   string // Get/CAS: the (previous) value
	Found   bool   // Get/Delete: key existed
	Swapped bool   // CAS: swap performed
}

// Store is one replica's state machine. Feed it every committed entry (in
// order) via Apply; it maintains the map, deduplicates retried requests,
// and wakes the reads waiting for an index to be applied.
type Store struct {
	mu      sync.Mutex
	data    map[string]string       // guarded by mu
	last    map[uint64]dedup        // client → its highest applied Seq; guarded by mu
	waiters map[int][]chan struct{} // log index → reads waiting for it; guarded by mu
	applied int                     // highest applied index; guarded by mu
}

// dedup is a client's row in the dedup table: its highest applied Seq and
// that command's Result.
type dedup struct {
	seq uint64
	res Result
}

// NewStore creates an empty state machine.
func NewStore() *Store {
	return &Store{
		data:    make(map[string]string),
		last:    make(map[uint64]dedup),
		waiters: make(map[int][]chan struct{}),
	}
}

// Apply consumes one committed raft entry and wakes the reads waiting for its
// index, whatever the entry's kind. An EntrySnapshot message replaces the
// whole state with the image in Command — the restore path for crash
// recovery and leader-installed snapshots; the dedup tables ride inside the
// image, so exactly-once semantics survive a snapshot-based rejoin.
func (s *Store) Apply(msg raft.ApplyMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if msg.Kind == raft.EntrySnapshot {
		if msg.Index <= s.applied {
			// Stale restore: a store that outlived its node's restart is
			// already at or past the base, and the image is a prefix of
			// its current state. Rewinding would transiently expose old
			// values to local readers.
			return
		}
		if err := s.restoreLocked(msg.Command); err != nil {
			// The image was committed by consensus; failing to decode it
			// is unrecoverable divergence, not a retryable error.
			panic(fmt.Sprintf("kvstore: snapshot restore at index %d: %v", msg.Index, err))
		}
		s.applied = msg.Index
		for idx, ws := range s.waiters {
			if idx <= msg.Index {
				wake(ws)
				delete(s.waiters, idx)
			}
		}
		return
	}
	s.applied = msg.Index
	var cmd Command
	isCmd := false
	if msg.Kind == raft.EntryCommand {
		if c, err := DecodeCommand(msg.Command); err == nil {
			cmd = c
			isCmd = true
		}
	}
	if isCmd {
		// A duplicate keeps its row, whose cached result answers it.
		if d := s.last[cmd.Client]; d.seq < cmd.Seq || cmd.Seq == 0 {
			res := s.applyCommandLocked(cmd)
			if cmd.Seq != 0 {
				s.last[cmd.Client] = dedup{cmd.Seq, res}
			}
		}
	}
	wake(s.waiters[msg.Index])
	delete(s.waiters, msg.Index)
}

func wake(ws []chan struct{}) {
	for _, ch := range ws {
		close(ch)
	}
}

func (s *Store) applyCommandLocked(c Command) Result {
	switch c.Op {
	case OpPut:
		s.data[c.Key] = c.Value
		return Result{Value: c.Value, Found: true}
	case OpGet:
		v, ok := s.data[c.Key]
		return Result{Value: v, Found: ok}
	case OpDelete:
		_, ok := s.data[c.Key]
		delete(s.data, c.Key)
		return Result{Found: ok}
	case OpCAS:
		v, ok := s.data[c.Key]
		if ok && v == c.Old {
			s.data[c.Key] = c.Value
			return Result{Value: v, Found: true, Swapped: true}
		}
		return Result{Value: v, Found: ok}
	case OpAppend:
		s.data[c.Key] += c.Value
		return Result{Value: s.data[c.Key], Found: true}
	default:
		return Result{}
	}
}

// Outcome is a write's answer, read without waiting: once this replica has
// applied through index (ok), whether the request (client, seq) has applied
// (mine) and its Result. With one outstanding request per client, the dedup
// table reaching seq means exactly that request applied — at index, or at an
// earlier one whose ack was lost.
func (s *Store) Outcome(index int, client, seq uint64) (res Result, mine, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applied < index {
		return Result{}, false, false
	}
	if d := s.last[client]; d.seq >= seq {
		return d.res, true, true
	}
	return Result{}, false, true
}

// LocalGet reads the key from the local replica without going through the
// log (fast but possibly stale).
func (s *Store) LocalGet(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Snapshot returns a copy of the map (diagnostics/tests).
func (s *Store) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// imageVersion leads every encoded Store image, as commandVersion leads a
// command; a gob image from a build that predates this format is a decode
// error.
const imageVersion = 1

// SaveSnapshot serializes the state machine (data, dedup table, applied
// index) for log compaction or node bootstrap, and reports the applied
// index the image captures. The capture is atomic with respect to Apply,
// so the index and the data always agree. Implements raft.StateMachine.
// The image is
//
//	version(1 B) · uvarint applied · uvarint n · n × (Key · Value) ·
//	uvarint m · m × (uvarint Client · uvarint Seq · Value · Found(1 B) · Swapped(1 B))
//
// with each string as uvarint length + bytes and the maps in iteration order.
func (s *Store) SaveSnapshot() ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := binary.AppendUvarint([]byte{imageVersion}, uint64(s.applied))
	b = binary.AppendUvarint(b, uint64(len(s.data)))
	for k, v := range s.data {
		b = appendString(appendString(b, k), v)
	}
	b = binary.AppendUvarint(b, uint64(len(s.last)))
	for client, d := range s.last {
		b = binary.AppendUvarint(binary.AppendUvarint(b, client), d.seq)
		b = append(appendString(b, d.res.Value), boolByte(d.res.Found), boolByte(d.res.Swapped))
	}
	return b, s.applied, nil
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// LoadSnapshot replaces the state machine with a serialized image.
func (s *Store) LoadSnapshot(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreLocked(b)
}

// restoreLocked decodes an image as strictly as DecodeCommand decodes a
// command, allocating no more than a constant multiple of the image's length
// whatever its counts claim. A rejected image leaves the Store as it was.
func (s *Store) restoreLocked(b []byte) error {
	if len(b) == 0 || b[0] != imageVersion {
		return errCommandVersion
	}
	r := commandReader{b: b[1:]}
	applied := int(r.uvarint())
	n := r.count(2) // an empty key and value
	data := make(map[string]string, n)
	for range n {
		k := r.str()
		data[k] = r.str()
	}
	m := r.count(5) // client, seq, an empty value, two flags
	last := make(map[uint64]dedup, m)
	for range m {
		client, seq := r.uvarint(), r.uvarint()
		last[client] = dedup{seq, Result{Value: r.str(), Found: r.bool(), Swapped: r.bool()}}
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail(errCommandTrailing)
	}
	if r.err != nil {
		return r.err
	}
	s.data, s.last, s.applied = data, last, applied
	return nil
}

// LastApplied returns the highest sequence number this replica has applied
// for the client, with its cached result. The benchmark's clients poll it to
// detect that a retried request landed: with one outstanding request per
// client, seq reaching the request's number means exactly that request
// committed, and res is its outcome.
func (s *Store) LastApplied(client uint64) (seq uint64, res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.last[client]
	return d.seq, d.res
}

// AppliedIndex returns the highest log index applied so far.
func (s *Store) AppliedIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// waitApplied blocks until the apply cursor reaches idx or the deadline
// passes, and reports whether it got there. It parks on a per-index waiter,
// so the Apply that lands idx (or the snapshot that folds it) wakes it, and
// Apply pays nothing for readers that are not waiting.
func (s *Store) waitApplied(idx int, deadline time.Time) bool {
	s.mu.Lock()
	if s.applied >= idx {
		s.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	s.waiters[idx] = append(s.waiters[idx], ch)
	s.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return s.AppliedIndex() >= idx
	}
}

// ErrTimeout reports that a request did not apply within its deadline.
// (Client retries leadership loss transparently, relying on the dedup table.)
var ErrTimeout = errors.New("kvstore: request timed out")
