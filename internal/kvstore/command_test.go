package kvstore

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"adore/internal/codectest"
	"adore/internal/raft"
)

// filledCommand is a Command whose every field holds a distinct non-zero
// value. Op is the one field Fill cannot choose: only the five ops encode.
func filledCommand() Command {
	var c Command
	codectest.Fill(&c)
	c.Op = OpCAS
	return c
}

// TestCommandCodecCoversEveryField is the teeth a hand-rolled codec needs: a
// field added to Command and forgotten in Encode or DecodeCommand fails here.
// The second half proves the check bites, field by field: an encoder that
// loses any one field (here: is handed its zero value) must be caught.
func TestCommandCodecCoversEveryField(t *testing.T) {
	want := filledCommand()
	if got, err := DecodeCommand(want.Encode()); err != nil || got != want {
		t.Fatalf("round trip lost a field:\n in  %+v\n out %+v (err %v)", want, got, err)
	}
	lossy := filledCommand()
	codectest.EachLeaf(&lossy, func(path string, leaf reflect.Value) {
		saved := reflect.ValueOf(leaf.Interface())
		leaf.SetZero()
		if path == "Op" {
			lossy.Op = OpPut // a zero Op does not encode; a constant one is as lossy
		}
		if got, err := DecodeCommand(lossy.Encode()); err == nil && got == want {
			t.Errorf("an encoder that drops %s passed the round-trip check", path)
		}
		leaf.Set(saved)
	})
}

// commandGolden is Command{Op: OpCAS, Key: "key", Value: "value", Old: "old",
// Client: 300, Seq: 7} on the wire. A change to these bytes is a format
// change: every log entry a running cluster holds is in the old one.
const commandGolden = "0104ac0207036b65790576616c7565036f6c64"

func TestCommandGolden(t *testing.T) {
	c := Command{Op: OpCAS, Key: "key", Value: "value", Old: "old", Client: 300, Seq: 7}
	if got := hex.EncodeToString(c.Encode()); got != commandGolden {
		t.Fatalf("encoding changed:\n got  %s\n want %s", got, commandGolden)
	}
	b, _ := hex.DecodeString(commandGolden)
	if got, err := DecodeCommand(b); err != nil || got != c {
		t.Fatalf("golden decodes to %+v (err %v), want %+v", got, err, c)
	}
}

// FuzzDecodeCommand: arbitrary bytes never panic the decoder, and whatever
// decodes is the one canonical encoding of its command. The seeds are
// committed under testdata/fuzz/FuzzDecodeCommand: the golden, a put, a JSON
// payload from before the binary format, a key length far past the payload.
func FuzzDecodeCommand(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCommand(b)
		if err != nil {
			if c != (Command{}) {
				t.Fatalf("error %v alongside a non-zero command %+v", err, c)
			}
			return
		}
		if enc := c.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("% x decoded to %+v, which encodes to % x", b, c, enc)
		}
	})
}

// TestCommandDecodeAllocs pins the decode cost the apply pump pays per entry
// on every replica: the key, value and old strings, nothing else.
func TestCommandDecodeAllocs(t *testing.T) {
	b := benchPut.Encode()
	if allocs := testing.AllocsPerRun(200, func() { DecodeCommand(b) }); allocs > 3 {
		t.Errorf("DecodeCommand allocates %.0f times per command, want ≤ 3", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { benchPut.Encode() }); allocs > 1 {
		t.Errorf("Encode allocates %.0f times per command, want 1", allocs)
	}
}

// benchPut has the shape of the canonical benchmark's put: a 6-byte key and a
// 100-byte value.
var benchPut = Command{Op: OpPut, Key: "k00042", Value: string(bytes.Repeat([]byte("v"), 100)), Client: 7, Seq: 123456}

var (
	sinkBytes   []byte
	sinkCommand Command
)

func BenchmarkCommandEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkBytes = benchPut.Encode()
	}
}

func BenchmarkCommandDecode(b *testing.B) {
	enc := benchPut.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCommand, _ = DecodeCommand(enc)
	}
}

func BenchmarkStoreApply(b *testing.B) {
	cmds := make([][]byte, 1000)
	for i := range cmds {
		c := benchPut
		c.Key = string(rune('a'+i%26)) + c.Key
		c.Seq = 0 // outside the dedup table, like the benchmark's probe
		cmds[i] = c.Encode()
	}
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(raft.ApplyMsg{Index: i + 1, Term: 1, Kind: raft.EntryCommand, Command: cmds[i%len(cmds)]})
	}
}
