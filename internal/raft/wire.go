package raft

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"

	"adore/internal/types"
)

// The byte format of an Envelope on a stream transport. It lives here, next
// to the types, and not in raftcore: the core passes Go values and needs no
// bytes. One frame is
//
//	u32 big-endian body length · body
//
// and the body is
//
//	version(1 B) · uvarint Group · Type(1 B) · flags(1 B)
//	· the remaining Message fields in declaration order
//
// where types.NodeID, types.Time and uint64 fields are uvarints, int fields
// are zig-zag varints, the three bools are the flags byte (Transfer, Granted,
// Success from bit 0), a []byte is uvarint length + bytes, a []NodeID is
// uvarint count + uvarints, and Entries is uvarint count + entries, each
// entry Term · Kind(1 B) · Members · Command. Type and Kind travel as opaque
// bytes: what they mean is raftcore's business.
//
// Decoding is strict: an unknown version, a set flag bit that has no field, a
// count or length that overruns the body, a non-minimal varint and trailing
// bytes are all errors. One value therefore has exactly one encoding, and a
// body that decodes re-encodes to the same bytes.

const (
	wireVersion = 1

	// frameHeaderLen is the u32 length prefix of a stream frame. (WAL
	// segments use the CRC-checked durable frame, storage.go.)
	frameHeaderLen = 4

	// MaxFrameLen is the longest frame (prefix + body) the u32 length prefix
	// can describe. AppendEnvelope does not check it; a stream sender must
	// not write a frame that is longer.
	MaxFrameLen = frameHeaderLen + math.MaxUint32

	// frameChunk is how far ReadFrame lets its buffer run ahead of the bytes
	// it has actually received.
	frameChunk = 64 << 10

	// minEntryLen is the encoded size of an empty entry (term, kind, member
	// count, command length): the decoder's bound on an entry count.
	minEntryLen = 4
)

const (
	flagTransfer = 1 << iota
	flagGranted
	flagSuccess
	flagsKnown = flagTransfer | flagGranted | flagSuccess
)

// AppendEnvelope appends env's frame — length prefix and body — to dst and
// returns the extended slice, so a sender can lay several envelopes into one
// reused buffer and hand them to a single Write.
func AppendEnvelope(dst []byte, env Envelope) []byte {
	start := len(dst)
	m := &env.Msg
	var flags byte
	if m.Transfer {
		flags |= flagTransfer
	}
	if m.Granted {
		flags |= flagGranted
	}
	if m.Success {
		flags |= flagSuccess
	}
	dst = append(dst, 0, 0, 0, 0, wireVersion)
	dst = binary.AppendUvarint(dst, uint64(env.Group))
	dst = append(dst, byte(m.Type), flags)
	dst = binary.AppendUvarint(dst, uint64(m.From))
	dst = binary.AppendUvarint(dst, uint64(m.To))
	dst = binary.AppendUvarint(dst, uint64(m.Term))
	dst = binary.AppendVarint(dst, int64(m.LastLogIndex))
	dst = binary.AppendUvarint(dst, uint64(m.LastLogTerm))
	dst = binary.AppendVarint(dst, int64(m.PrevLogIndex))
	dst = binary.AppendUvarint(dst, uint64(m.PrevLogTerm))
	dst = appendEntries(dst, m.Entries)
	dst = binary.AppendVarint(dst, int64(m.LeaderCommit))
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendVarint(dst, int64(m.MatchIndex))
	dst = binary.AppendVarint(dst, int64(m.HintIndex))
	dst = binary.AppendUvarint(dst, m.ReadCtx)
	dst = binary.AppendVarint(dst, int64(m.SnapIndex))
	dst = binary.AppendUvarint(dst, uint64(m.SnapTerm))
	dst = appendMembers(dst, m.SnapMembers)
	dst = binary.AppendVarint(dst, int64(m.SnapOffset))
	dst = binary.AppendVarint(dst, int64(m.SnapTotal))
	dst = appendBytes(dst, m.SnapData)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// appendEntries appends a uvarint count and the entries. appendEntry (with
// wireReader.entry) is the one LogEntry codec: envelopes and WAL records
// both use it, so there is one to fuzz, not two.
func appendEntries(dst []byte, es []LogEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(es)))
	for i := range es {
		dst = appendEntry(dst, &es[i])
	}
	return dst
}

func appendEntry(dst []byte, e *LogEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(e.Term))
	dst = append(dst, byte(e.Kind))
	dst = appendMembers(dst, e.Members)
	return appendBytes(dst, e.Command)
}

func appendMembers(dst []byte, ids []types.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

var (
	errWireShort    = errors.New("raft: wire: short body")
	errWireVersion  = errors.New("raft: wire: unknown version")
	errWireFlags    = errors.New("raft: wire: unknown flag bits")
	errWireVarint   = errors.New("raft: wire: malformed or non-minimal varint")
	errWireRange    = errors.New("raft: wire: value out of range")
	errWireTrailing = errors.New("raft: wire: trailing bytes")
)

// wireReader consumes a frame body front to back. The first error sticks and
// empties the reader, so every later read returns zero and DecodeEnvelope
// checks once, at the end. Everything a read allocates is bounded by the
// bytes still unread.
type wireReader struct {
	b   []byte
	err error
	// arena backs every []byte the decoded envelope or record carries: one
	// allocation per frame, made at the first non-empty field and sized by
	// the bytes then unread, so the result never aliases the frame buffer.
	arena []byte
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errWireShort)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) uvarint() uint64 {
	if len(r.b) > 0 && r.b[0] < 0x80 { // most fields of most messages are small
		return uint64(r.byte())
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(errWireShort)
		return 0
	case n < 0 || r.b[n-1] == 0:
		r.fail(errWireVarint) // overflow, or a padded (non-minimal) encoding
		return 0
	}
	r.b = r.b[n:]
	return v
}

// uvarint32 reads a uvarint that must fit the 32-bit identifier types.
func (r *wireReader) uvarint32() uint32 {
	v := r.uvarint()
	if v > math.MaxUint32 {
		r.fail(errWireRange)
		return 0
	}
	return uint32(v)
}

// int reads a zig-zag varint. The zig-zag map is a bijection on uint64, so a
// minimal uvarint is a minimal varint.
func (r *wireReader) int() int {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	if int64(int(v)) != v {
		r.fail(errWireRange)
		return 0
	}
	return int(v)
}

// count reads an element count whose elements each occupy at least minLen
// bytes, and rejects one the unread bytes cannot hold.
func (r *wireReader) count(minLen int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minLen) {
		r.fail(errWireShort)
		return 0
	}
	return int(n)
}

func (r *wireReader) bytes() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	if cap(r.arena)-len(r.arena) < n {
		r.arena = make([]byte, 0, len(r.b))
	}
	start := len(r.arena)
	r.arena = append(r.arena, r.b[:n]...)
	r.b = r.b[n:]
	return r.arena[start:len(r.arena):len(r.arena)]
}

func (r *wireReader) members() []types.NodeID {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(r.uvarint32())
	}
	return ids
}

func (r *wireReader) entries() []LogEntry {
	n := r.count(minEntryLen)
	if n == 0 {
		return nil
	}
	es := make([]LogEntry, n)
	for i := range es {
		es[i] = r.entry()
	}
	return es
}

func (r *wireReader) entry() LogEntry {
	var e LogEntry
	e.Term = types.Time(r.uvarint())
	e.Kind = EntryKind(r.byte())
	e.Members = r.members()
	e.Command = r.bytes()
	return e
}

// DecodeEnvelope parses one frame body (the bytes after the length prefix).
// The result owns its memory: body may be reused as soon as the call returns.
func DecodeEnvelope(body []byte) (Envelope, error) {
	r := wireReader{b: body}
	if r.byte() != wireVersion {
		r.fail(errWireVersion)
	}
	var env Envelope
	env.Group = GroupID(r.uvarint32())
	m := &env.Msg
	m.Type = MessageType(r.byte())
	flags := r.byte()
	if flags&^flagsKnown != 0 {
		r.fail(errWireFlags)
	}
	m.Transfer = flags&flagTransfer != 0
	m.Granted = flags&flagGranted != 0
	m.Success = flags&flagSuccess != 0
	m.From = types.NodeID(r.uvarint32())
	m.To = types.NodeID(r.uvarint32())
	m.Term = types.Time(r.uvarint())
	m.LastLogIndex = r.int()
	m.LastLogTerm = types.Time(r.uvarint())
	m.PrevLogIndex = r.int()
	m.PrevLogTerm = types.Time(r.uvarint())
	m.Entries = r.entries()
	m.LeaderCommit = r.int()
	m.Seq = r.uvarint()
	m.MatchIndex = r.int()
	m.HintIndex = r.int()
	m.ReadCtx = r.uvarint()
	m.SnapIndex = r.int()
	m.SnapTerm = types.Time(r.uvarint())
	m.SnapMembers = r.members()
	m.SnapOffset = r.int()
	m.SnapTotal = r.int()
	m.SnapData = r.bytes()
	if r.err == nil && len(r.b) != 0 {
		r.fail(errWireTrailing)
	}
	if r.err != nil {
		return Envelope{}, r.err
	}
	return env, nil
}

// ReadFrame reads one length-prefixed frame from r and returns its body,
// reusing buf's storage (the body is valid until buf is used again). It
// returns io.EOF when r ends on a frame boundary and io.ErrUnexpectedEOF
// when it ends inside a frame.
//
// The buffer grows as bytes arrive, never ahead of them by more than
// frameChunk or the amount already received: what ReadFrame allocates is
// bounded by the bytes actually present, not by the length prefix. A torn or
// hostile prefix claiming 4 GiB costs one chunk.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], frameHeaderLen)
	if _, err := io.ReadFull(r, buf[:frameHeaderLen]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(buf[:frameHeaderLen]))
	body := buf[:0]
	for len(body) < n {
		step := min(n-len(body), max(frameChunk, len(body)))
		body = slices.Grow(body, step)
		got, err := io.ReadFull(r, body[len(body):len(body)+step])
		body = body[:len(body)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}
