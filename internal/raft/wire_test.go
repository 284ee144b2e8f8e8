package raft

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"adore/internal/codectest"
	"adore/internal/types"
)

func filledEnvelope() Envelope {
	var env Envelope
	codectest.Fill(&env)
	return env
}

// roundTrip pushes env through the frame writer, the frame reader and the
// decoder, as a TCP connection would.
func roundTrip(env Envelope) (Envelope, error) {
	body, err := ReadFrame(bytes.NewReader(AppendEnvelope(nil, env)), nil)
	if err != nil {
		return Envelope{}, err
	}
	return DecodeEnvelope(body)
}

// TestWireCoversEveryField is the teeth a hand-rolled codec needs: gob picked
// up a new Message or LogEntry field for free, this codec drops it silently —
// unless this test is there to fail. Every leaf of Envelope / Message /
// LogEntry gets a distinct non-zero value and must survive the round trip.
// The second half proves the check bites, leaf by leaf: a sender that loses
// any one field (encodes its zero value) must be caught.
func TestWireCoversEveryField(t *testing.T) {
	want := filledEnvelope()
	got, err := roundTrip(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost a field:\n in  %+v\n out %+v", want, got)
	}
	leaves := 0
	lossy := filledEnvelope()
	codectest.EachLeaf(&lossy, func(path string, leaf reflect.Value) {
		leaves++
		saved := reflect.ValueOf(leaf.Interface())
		leaf.SetZero()
		got, err := roundTrip(lossy)
		leaf.Set(saved)
		if err != nil {
			t.Fatalf("without %s: %v", path, err)
		}
		if reflect.DeepEqual(got, want) {
			t.Errorf("an encoder that drops %s passed the round-trip check", path)
		}
	})
	// Group, Message's 20 scalars and SnapData, 2 SnapMembers, and 2 entries ×
	// (Term, Kind, Command, 2 Members): fewer means the walk stopped reaching
	// inside a slice or a struct, and the loop above proved less than it says.
	if leaves < 34 {
		t.Errorf("walked %d leaves, want at least 34", leaves)
	}
}

// envelopeGolden is goldenAppend on the wire. A change to these bytes is a
// format change: both ends of every connection must move together.
const envelopeGolden = "00000027" + // body length
	"01" + "02" + "02" + "00" + // version, group 2, MsgAppendEntries, no flags
	"01" + "03" + "05" + // from 1, to 3, term 5
	"00" + "00" + // last log index / term (vote requests only)
	"d804" + "04" + // prev log index 300 (zig-zag), prev log term 4
	"02" + // two entries
	"05" + "00" + "00" + "03707574" + // term 5, command, no members, "put"
	"05" + "02" + "03010203" + "00" + // term 5, config, members 1 2 3, no command
	"d604" + "09" + // leader commit 299 (zig-zag), seq 9
	"00" + "00" + "00" + // match, hint, read ctx
	"00" + "00" + "00" + "00" + "00" + "00" // snapshot index, term, members, offset, total, data

var goldenAppend = Envelope{Group: 2, Msg: Message{
	Type: MsgAppendEntries, From: 1, To: 3, Term: 5,
	PrevLogIndex: 300, PrevLogTerm: 4,
	Entries: []LogEntry{
		{Term: 5, Kind: EntryCommand, Command: []byte("put")},
		{Term: 5, Kind: EntryConfig, Members: []types.NodeID{1, 2, 3}},
	},
	LeaderCommit: 299, Seq: 9,
}}

func TestEnvelopeGolden(t *testing.T) {
	if got := hex.EncodeToString(AppendEnvelope(nil, goldenAppend)); got != envelopeGolden {
		t.Fatalf("encoding changed:\n got  %s\n want %s", got, envelopeGolden)
	}
	frame, _ := hex.DecodeString(envelopeGolden)
	got, err := DecodeEnvelope(frame[frameHeaderLen:])
	if err != nil || !reflect.DeepEqual(got, goldenAppend) {
		t.Fatalf("golden decodes to %+v (err %v)", got, err)
	}
}

// TestDecodeEnvelopeStrict: anything but exactly one well-formed body is an
// error, so a desynchronized or corrupted stream closes its connection
// instead of feeding the core a half-right message.
func TestDecodeEnvelopeStrict(t *testing.T) {
	good := AppendEnvelope(nil, goldenAppend)[frameHeaderLen:]
	if _, err := DecodeEnvelope(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"version 0", mutate(func(b []byte) []byte { b[0] = 0; return b })},
		{"version 2", mutate(func(b []byte) []byte { b[0] = 2; return b })},
		{"unknown flag bit", mutate(func(b []byte) []byte { b[3] = 0x08; return b })},
		{"entry count overruns", mutate(func(b []byte) []byte { b[12] = 0x7f; return b })},
		{"command length overruns", mutate(func(b []byte) []byte { b[16] = 0x7f; return b })},
		{"member count overruns", mutate(func(b []byte) []byte { b[22] = 0x7f; return b })},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"padded varint", mutate(func(b []byte) []byte {
			return append(append(append([]byte(nil), b[:4]...), 0x81, 0x00), b[5:]...) // From = 1, padded
		})},
		{"node id past 32 bits", mutate(func(b []byte) []byte {
			return append(append(append([]byte(nil), b[:4]...), 0x80, 0x80, 0x80, 0x80, 0x10), b[5:]...)
		})},
		{"gob stream", []byte{0x37, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08, 0x45, 0x6e, 0x76}},
	} {
		if env, err := DecodeEnvelope(tc.b); err == nil {
			t.Errorf("%s: % x decoded as %+v", tc.name, tc.b, env)
		}
	}
}

// TestDecodedEnvelopeOwnsItsBytes: the receiver reuses its frame buffer, so a
// decoded command must not alias it — and one entry's command must not be
// able to grow into its neighbour's.
func TestDecodedEnvelopeOwnsItsBytes(t *testing.T) {
	body := AppendEnvelope(nil, goldenAppend)[frameHeaderLen:]
	env, err := DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xee
	}
	if !reflect.DeepEqual(env, goldenAppend) {
		t.Fatalf("decoded envelope changed with its frame buffer: %+v", env)
	}
	in := filledEnvelope()
	out, err := roundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(out.Msg.Entries[0].Command, 0xee, 0xee, 0xee, 0xee)
	if !reflect.DeepEqual(out, in) {
		t.Fatal("appending to one decoded command overwrote another field's bytes")
	}
}

// allocated reports the heap bytes f allocates (other goroutines' included:
// callers leave slack and compare against bugs that are orders larger).
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestReadFrameAllocationFollowsBytesPresent is the allocation rule: what
// the frame reader allocates is bounded by the bytes that actually arrived,
// never by the length prefix alone.
func TestReadFrameAllocationFollowsBytesPresent(t *testing.T) {
	torn := []byte{0xff, 0xff, 0xff, 0xf0, 1, 2, 3} // claims 4 GiB, holds 3 bytes
	var err error
	got := allocated(func() { _, err = ReadFrame(bytes.NewReader(torn), nil) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got > 1<<20 {
		t.Fatalf("a 7-byte torn frame allocated %d bytes", got)
	}

	// A real large frame still arrives whole, across many growth steps.
	big := Envelope{Msg: Message{Type: MsgInstallSnapshot, SnapData: bytes.Repeat([]byte{7}, 5*frameChunk+123)}}
	env, err := roundTrip(big)
	if err != nil || !reflect.DeepEqual(env, big) {
		t.Fatalf("large frame did not survive (err %v)", err)
	}

	// Clean end of stream vs. an end inside the prefix.
	if _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn prefix: err = %v, want io.ErrUnexpectedEOF", err)
	}

	// The buffer is reused: a stream of same-sized frames settles at zero
	// allocations per frame.
	var stream []byte
	for i := 0; i < 1+2*7; i++ { // the first read sizes buf; AllocsPerRun runs a warm-up pass too
		stream = AppendEnvelope(stream, goldenAppend)
	}
	r := bytes.NewReader(stream)
	buf, _ := ReadFrame(r, nil)
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 7; i++ {
			if buf, err = ReadFrame(r, buf); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs > 0 {
		t.Errorf("reading 7 more same-sized frames allocated %.0f times", allocs)
	}
}

// readStream decodes every frame of stream the way a TCP receiver does — one
// reused buffer, stop at the first error — and hands each envelope to visit
// with the bytes it was read from.
func readStream(stream []byte, visit func(env Envelope, frame []byte)) error {
	r := bytes.NewReader(stream)
	var buf []byte
	for {
		start := len(stream) - r.Len()
		body, err := ReadFrame(r, buf)
		if err != nil {
			return err
		}
		buf = body
		env, err := DecodeEnvelope(body)
		if err != nil {
			return err
		}
		if visit != nil {
			visit(env, stream[start:len(stream)-r.Len()])
		}
	}
}

// FuzzEnvelopeStream feeds arbitrary bytes to the frame reader and the
// envelope decoder. They must never panic; must end in a clean error (io.EOF
// included); must allocate in proportion to the input, whatever its length
// prefixes claim; and every envelope they yield must be the canonical
// encoding of itself, byte for byte. The seeds are committed under
// testdata/fuzz/FuzzEnvelopeStream: the golden append, two frames back to
// back, a snapshot chunk, a torn frame, a prefix claiming 4 GiB, an entry
// count far past its body.
func FuzzEnvelopeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The element types cost a fixed multiple of their shortest encoding
		// (a 64-byte LogEntry header per 4-byte empty entry), hence 32×; the
		// constant is ReadFrame's one chunk plus slack for the runtime.
		limit := uint64(32*len(stream) + 2*frameChunk)
		var err error
		got := allocated(func() { err = readStream(stream, nil) })
		for retry := 0; got > limit && retry < 3; retry++ { // another goroutine's garbage?
			got = allocated(func() { err = readStream(stream, nil) })
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(stream), got, limit)
		}
		if err == nil {
			t.Fatal("readStream returned without an error; a stream ends in io.EOF at best")
		}
		readStream(stream, func(env Envelope, frame []byte) {
			if enc := AppendEnvelope(nil, env); !bytes.Equal(enc, frame) {
				t.Fatalf("frame % x\n decoded to %+v\n which encodes to % x", frame, env, enc)
			}
		})
	})
}

// appendOf builds the leader's hot message: n entries with the canonical
// benchmark's ~120-byte put command.
func appendOf(n int) Envelope {
	env := Envelope{Msg: Message{Type: MsgAppendEntries, From: 1, To: 2, Term: 3,
		PrevLogIndex: 123456, PrevLogTerm: 3, LeaderCommit: 123450, Seq: 99999}}
	for i := 0; i < n; i++ {
		env.Msg.Entries = append(env.Msg.Entries, LogEntry{Term: 3, Kind: EntryCommand, Command: bytes.Repeat([]byte{'v'}, 120)})
	}
	return env
}

var benchEnvelopes = []struct {
	name string
	env  Envelope
}{
	{"append1", appendOf(1)},
	{"append16", appendOf(16)},
	{"response", Envelope{Msg: Message{Type: MsgAppendResponse, From: 2, To: 1, Term: 3, Success: true, MatchIndex: 123457, Seq: 99999}}},
}

// TestEnvelopeCodecAllocs pins the per-message cost on the TCP path: encoding
// into a reused buffer allocates nothing, and decoding allocates the Entries
// slice and one arena for every command — a constant, not one per entry —
// and nothing at all for a response.
func TestEnvelopeCodecAllocs(t *testing.T) {
	for _, tc := range benchEnvelopes {
		buf := AppendEnvelope(nil, tc.env)
		if allocs := testing.AllocsPerRun(100, func() { buf = AppendEnvelope(buf[:0], tc.env) }); allocs > 0 {
			t.Errorf("%s: encode into a reused buffer allocates %.0f times", tc.name, allocs)
		}
		body := buf[frameHeaderLen:]
		limit := float64(2)
		if len(tc.env.Msg.Entries) == 0 {
			limit = 0
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeEnvelope(body) }); allocs > limit {
			t.Errorf("%s: decode allocates %.0f times, want ≤ %.0f", tc.name, allocs, limit)
		}
	}
}

var (
	sinkFrame    []byte
	sinkEnvelope Envelope
)

func BenchmarkEnvelopeEncode(b *testing.B) {
	for _, tc := range benchEnvelopes {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFrame = AppendEnvelope(sinkFrame[:0], tc.env)
			}
			b.SetBytes(int64(len(sinkFrame)))
		})
	}
}

func BenchmarkEnvelopeDecode(b *testing.B) {
	for _, tc := range benchEnvelopes {
		b.Run(tc.name, func(b *testing.B) {
			body := AppendEnvelope(nil, tc.env)[frameHeaderLen:]
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkEnvelope, err = DecodeEnvelope(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
