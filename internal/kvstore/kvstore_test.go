package kvstore

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adore/internal/raft"
)

const opTimeout = 10 * time.Second

func applyCmd(t *testing.T, s *Store, idx int, c Command) {
	t.Helper()
	s.Apply(raft.ApplyMsg{Index: idx, Kind: raft.EntryCommand, Command: c.Encode()})
}

func TestStoreBasicOps(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	if v, ok := s.LocalGet("a"); !ok || v != "1" {
		t.Errorf("get a = %q %v", v, ok)
	}
	applyCmd(t, s, 2, Command{Op: OpAppend, Key: "a", Value: "2", Client: 1, Seq: 2})
	if v, _ := s.LocalGet("a"); v != "12" {
		t.Errorf("append: %q", v)
	}
	applyCmd(t, s, 3, Command{Op: OpCAS, Key: "a", Old: "12", Value: "x", Client: 1, Seq: 3})
	if v, _ := s.LocalGet("a"); v != "x" {
		t.Errorf("cas: %q", v)
	}
	applyCmd(t, s, 4, Command{Op: OpCAS, Key: "a", Old: "wrong", Value: "y", Client: 1, Seq: 4})
	if v, _ := s.LocalGet("a"); v != "x" {
		t.Errorf("failed cas must not write: %q", v)
	}
	applyCmd(t, s, 5, Command{Op: OpDelete, Key: "a", Client: 1, Seq: 5})
	if _, ok := s.LocalGet("a"); ok {
		t.Error("delete did not remove the key")
	}
	if s.Len() != 0 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestStoreDeduplicatesRetries(t *testing.T) {
	s := NewStore()
	cmd := Command{Op: OpAppend, Key: "k", Value: "x", Client: 9, Seq: 1}
	applyCmd(t, s, 1, cmd)
	applyCmd(t, s, 2, cmd) // retried proposal applied twice by raft
	if v, _ := s.LocalGet("k"); v != "x" {
		t.Errorf("duplicate applied: %q", v)
	}
}

// TestStoreWaiters: a read parked on an index wakes at the Apply of that
// index whatever entry is there (someone else's command, a no-op) and at the
// restore of an image that covers it; Outcome answers a write from the dedup
// table once its index is applied, and not before.
func TestStoreWaiters(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Outcome(1, 5, 1); ok {
		t.Error("Outcome answered before its index applied")
	}
	woken := func(idx int) chan bool {
		ch := make(chan bool, 1)
		go func() { ch <- s.waitApplied(idx, time.Now().Add(opTimeout)) }()
		for s.waitingAt(idx) == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		return ch
	}
	w1 := woken(1)
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "v", Client: 5, Seq: 1})
	if !<-w1 {
		t.Error("the read at index 1 was not woken by its Apply")
	}
	if res, mine, ok := s.Outcome(1, 5, 1); !ok || !mine || res.Value != "v" {
		t.Errorf("Outcome(1, client 5, seq 1) = %+v %v %v; want v, mine", res, mine, ok)
	}
	// Someone else's command at index 2: the read wakes, the write is not mine.
	w2 := woken(2)
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "b", Value: "w", Client: 77, Seq: 1})
	if !<-w2 {
		t.Error("the read at index 2 was not woken by a foreign command")
	}
	if _, mine, ok := s.Outcome(2, 5, 2); !ok || mine {
		t.Errorf("Outcome(2, client 5, seq 2): mine %v ok %v; want applied, not mine", mine, ok)
	}
	w3 := woken(3)
	s.Apply(raft.ApplyMsg{Index: 3, Kind: raft.EntryNoOp})
	if !<-w3 {
		t.Error("the read at index 3 was not woken by a no-op")
	}
	// An image through 6 wakes the reads at 4 and 6, not the one at 7.
	img, _, _ := s.SaveSnapshot()
	img[1] = 6 // the image's applied index: one uvarint byte
	w4, w6, w7 := woken(4), woken(6), woken(7)
	s.Apply(raft.ApplyMsg{Index: 6, Kind: raft.EntrySnapshot, Command: img})
	if !<-w4 || !<-w6 {
		t.Error("a restore through 6 left a read at or below 6 parked")
	}
	if s.waitingAt(7) != 1 {
		t.Error("a restore through 6 woke the read at 7")
	}
	applyCmd(t, s, 7, Command{Op: OpPut, Key: "c", Value: "x", Client: 5, Seq: 2})
	if !<-w7 {
		t.Error("the read at index 7 was not woken by its Apply")
	}
}

// TestStoreWaitApplied: readers blocked on the apply cursor are woken by the
// Apply that lands their index (not a poll), an index already applied
// returns at once, and a wait that hits its deadline reports false.
func TestStoreWaitApplied(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	if !s.waitApplied(1, time.Now()) {
		t.Fatal("index 1 is applied: want true without waiting")
	}

	const readers = 8
	done := make(chan bool, readers)
	for i := 0; i < readers; i++ {
		go func() { done <- s.waitApplied(3, time.Now().Add(opTimeout)) }()
	}
	for s.waitingAt(3) < readers { // every reader is parked on the cursor
		time.Sleep(100 * time.Microsecond)
	}
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "a", Value: "2", Client: 1, Seq: 2})
	select {
	case <-done:
		t.Fatal("a waiter for index 3 returned at index 2")
	default:
	}
	applyCmd(t, s, 3, Command{Op: OpPut, Key: "a", Value: "3", Client: 1, Seq: 3})
	for i := 0; i < readers; i++ {
		if !<-done {
			t.Fatal("waitApplied(3) = false after index 3 applied")
		}
	}

	if s.waitApplied(9, time.Now().Add(5*time.Millisecond)) {
		t.Fatal("waitApplied(9) = true with the cursor at 3")
	}
}

func (s *Store) waitingAt(idx int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.waiters[idx])
}

func TestStoreIgnoresNonCommands(t *testing.T) {
	s := NewStore()
	s.Apply(raft.ApplyMsg{Index: 1, Kind: raft.EntryNoOp})
	if _, mine, ok := s.Outcome(1, 1, 1); !ok || mine {
		t.Errorf("a no-op at index 1: Outcome mine %v ok %v; want applied, not mine", mine, ok)
	}
	if s.Len() != 0 {
		t.Error("no-op mutated the store")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	snap := s.Snapshot()
	snap["a"] = "mutated"
	if v, _ := s.LocalGet("a"); v != "1" {
		t.Error("snapshot shares storage")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Command{Op: OpCAS, Key: "k", Value: "v", Old: "o", Client: 3, Seq: 7}
	out, err := DecodeCommand(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v vs %+v", out, in)
	}
	// Decoding is strict: every replica must reach the same verdict on the
	// same bytes, so anything but exactly one well-formed command is an error.
	good := Command{Op: OpPut, Key: "k", Value: "v", Client: 1, Seq: 1}.Encode() // 01 01 01 01 01 'k' 01 'v' 00
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"version only", good[:1]},
		{"version 0", mutate(func(b []byte) []byte { b[0] = 0; return b })},
		{"version 2", mutate(func(b []byte) []byte { b[0] = 2; return b })},
		{"op 0", mutate(func(b []byte) []byte { b[1] = 0; return b })},
		{"op 6", mutate(func(b []byte) []byte { b[1] = 6; return b })},
		{"key length overruns", mutate(func(b []byte) []byte { b[4] = 200; return b })},
		{"old length overruns", mutate(func(b []byte) []byte { b[len(b)-1] = 1; return b })},
		{"missing old", good[:len(good)-1]},
		{"trailing byte", append(append([]byte(nil), good...), 0)},
		{"padded varint", []byte{1, 1, 0x81, 0x00, 1, 0, 0, 0}},
		{"varint overflow", []byte{1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0}},
		{"pre-binary JSON payload", []byte(`{"op":"put","key":"k","value":"v","client":1,"seq":1}`)},
		{"garbage", []byte("not a command")},
	} {
		if c, err := DecodeCommand(tc.b); err == nil {
			t.Errorf("%s: % x decoded as %+v", tc.name, tc.b, c)
		}
	}
}

// TestStoreUndecodablePayloadIsANoOp pins what every replica does with an
// EntryCommand it cannot decode (here: a payload in the JSON format builds
// before the binary codec wrote): nothing, deterministically — the cursor
// advances, no key changes, and the write at the index is "not mine".
func TestStoreUndecodablePayloadIsANoOp(t *testing.T) {
	s := NewStore()
	s.Apply(raft.ApplyMsg{Index: 1, Kind: raft.EntryCommand,
		Command: []byte(`{"op":"put","key":"k","value":"v","client":1,"seq":1}`)})
	if _, mine, _ := s.Outcome(1, 1, 1); mine {
		t.Error("undecodable payload resolved as the write's command")
	}
	if s.Len() != 0 {
		t.Error("undecodable payload mutated the store")
	}
	if seq, _ := s.LastApplied(1); seq != 0 {
		t.Errorf("undecodable payload entered the dedup table (seq %d)", seq)
	}
	if s.AppliedIndex() != 1 {
		t.Errorf("applied index = %d, want 1", s.AppliedIndex())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	applyCmd(t, s, 1, Command{Op: OpPut, Key: "a", Value: "1", Client: 1, Seq: 1})
	applyCmd(t, s, 2, Command{Op: OpPut, Key: "b", Value: "2", Client: 1, Seq: 2})
	img, applied, err := s.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 2 {
		t.Errorf("snapshot applied index = %d, want 2", applied)
	}
	fresh := NewStore()
	if err := fresh.LoadSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.LocalGet("a"); !ok || v != "1" {
		t.Errorf("restored a = %q %v", v, ok)
	}
	if fresh.AppliedIndex() != 2 {
		t.Errorf("restored applied = %d", fresh.AppliedIndex())
	}
	// Dedup table survives: re-applying an old command is a no-op.
	applyCmd(t, fresh, 3, Command{Op: OpPut, Key: "a", Value: "STALE", Client: 1, Seq: 1})
	if v, _ := fresh.LocalGet("a"); v != "1" {
		t.Errorf("dedup lost across snapshot: %q", v)
	}
	if err := fresh.LoadSnapshot([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// FuzzStoreImage is the Store image's restore contract: arbitrary bytes
// never panic the decoder, it allocates in proportion to the image whatever
// its counts claim, and an image it accepts re-encodes to one that restores
// the same state. The seeds are committed under testdata/fuzz/FuzzStoreImage:
// the image of a store that saw puts, a delete, a CAS and a retried command,
// an empty store's image, a torn image, a count far past its image, and a gob
// image from before this format.
func FuzzStoreImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		s := NewStore()
		var err error
		// Map slots cost a fixed multiple of their shortest row (a 40-byte
		// string slot per 2-byte empty key and value), hence 64×; the
		// constant is slack for the runtime.
		limit := uint64(64*len(img) + 64<<10)
		n := allocated(func() { err = s.LoadSnapshot(img) })
		for retry := 0; n > limit && retry < 3; retry++ { // another goroutine's garbage?
			s = NewStore()
			n = allocated(func() { err = s.LoadSnapshot(img) })
		}
		if n > limit {
			t.Fatalf("restoring a %d-byte image allocated %d (limit %d)", len(img), n, limit)
		}
		if err != nil {
			if !reflect.DeepEqual(stateOf(s), stateOf(NewStore())) {
				t.Fatalf("rejected image (%v) changed the store", err)
			}
			return
		}
		again, _, err := s.SaveSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		re := NewStore()
		if err := re.LoadSnapshot(again); err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if got, want := stateOf(re), stateOf(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("image restores to %+v, its re-encoding to %+v", want, got)
		}
	})
}

// imageState is what a Store image carries.
type imageState struct {
	data    map[string]string
	last    map[uint64]dedup
	applied int
}

func stateOf(s *Store) imageState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return imageState{s.data, s.last, s.applied}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestShardOfIsStableAndCovers pins the shard map: routes are deterministic
// (the map is a deployment contract) and a modest keyspace reaches every
// shard.
func TestShardOfIsStableAndCovers(t *testing.T) {
	const shards = 4
	seen := make(map[raft.GroupID]int)
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := ShardOf(key, shards)
		if g >= shards {
			t.Fatalf("ShardOf(%q, %d) = %d out of range", key, shards, g)
		}
		if g2 := ShardOf(key, shards); g2 != g {
			t.Fatalf("ShardOf(%q) unstable: %d then %d", key, g, g2)
		}
		seen[g]++
	}
	for g := raft.GroupID(0); g < shards; g++ {
		if seen[g] == 0 {
			t.Fatalf("shard %d received no keys out of 256: distribution %v", g, seen)
		}
	}
	// Single-shard degenerate case: everything routes to group 0.
	if g := ShardOf("anything", 1); g != 0 {
		t.Fatalf("ShardOf with 1 shard = %d", g)
	}
}
