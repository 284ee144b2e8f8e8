package chaos

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/sim"
	"adore/internal/types"
)

// snapshotCatchupSchedule is the crafted snapshot-path plan: one follower
// crashes early and stays down while the rest of the cluster commits far
// past the compaction threshold (including a reconfiguration, so the
// folded-away prefix carries a config entry); the follower restarts late
// enough that the leader's log no longer reaches back to it and catch-up
// MUST go through InstallSnapshot.
func snapshotCatchupSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return &Schedule{
		Seed:  -2,
		Nodes: opt.Nodes,
		Events: []Event{
			{At: d * 15 / 100, Kind: EvCrash, Node: 3, Mode: CrashClean},
			{At: d * 40 / 100, Kind: EvReconfigRemove, Node: 5},
			{At: d * 55 / 100, Kind: EvReconfigAdd, Node: 5},
			{At: d * 75 / 100, Kind: EvRestart, Node: 3},
		},
		Scripts: Generate(2, opt).Scripts,
	}
}

// TestSimSnapshotCatchup replays the crafted plan deterministically and
// requires the rejoin to actually take the snapshot path: nodes compact
// during the run, the restarted follower installs a leader-sent snapshot,
// and every oracle — refinement over the compacted base included — stays
// green.
func TestSimSnapshotCatchup(t *testing.T) {
	opt := Options{
		Nodes:             5,
		Clients:           4,
		OpsPerClient:      24,
		Duration:          2 * time.Second,
		SnapshotThreshold: 16,
	}
	sched := snapshotCatchupSchedule(opt)
	rep, err := RunSim(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on the snapshot catch-up plan:\n%s\n--- journal ---\n%s",
			strings.Join(rep.Violations, "\n"), rep.Journal)
	}
	j := string(rep.Journal)
	if !strings.Contains(j, " snapshot@") {
		t.Fatalf("no node ever compacted its log (threshold %d):\n%s", opt.SnapshotThreshold, j)
	}
	if !strings.Contains(j, "S3 install snapshot@") {
		t.Fatalf("restarted follower caught up without InstallSnapshot — the plan no longer forces the snapshot path:\n%s", j)
	}
	if rep.Ops == 0 {
		t.Fatal("no client operations ran")
	}
}

// TestSimSnapshotPersistFailStop injects a snapshot-write error under the
// leader and requires a fail-stop: truncating the log after the
// replacement image failed to become durable would lose the committed
// prefix, so the node must halt instead.
func TestSimSnapshotPersistFailStop(t *testing.T) {
	s := sim.New(sim.Options{Nodes: 3, Seed: 9, SnapshotThreshold: 8})
	s.OnSnapshot(func(id types.NodeID, index int) []byte { return []byte("image") })

	var lid types.NodeID
	for i := 0; i < 1000 && lid == types.NoNode; i++ {
		s.Step()
		if id, ok := s.Leader(); ok {
			lid = id
		}
	}
	if lid == types.NoNode {
		t.Fatal("no leader elected")
	}
	s.FailNextSaveSnapshot(lid)
	for i := 0; i < 32 && s.Alive(lid); i++ {
		s.Propose(lid, []byte(fmt.Sprintf("cmd-%d", i)))
		for j := 0; j < 20; j++ {
			s.Step()
		}
	}
	err := s.FailStopErr(lid)
	if err == nil {
		t.Fatalf("leader S%d survived a snapshot persist error (still alive: %v):\n%s", lid, s.Alive(lid), s.Journal())
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Fatalf("fail-stop error does not name the snapshot write: %v", err)
	}
}

// TestRunCorruptSnapshotFailStop is the teeth variant over real files: a
// live run with compaction leaves segments whose base records carry images;
// flipping the last byte of one image must make recovery refuse the store
// loudly instead of serving a silently-corrupted state machine.
func TestRunCorruptSnapshotFailStop(t *testing.T) {
	if testing.Short() {
		t.Skip("file-backed chaos run in -short mode")
	}
	dir := t.TempDir()
	opt := Options{
		Nodes:             3,
		Clients:           2,
		OpsPerClient:      20,
		Duration:          800 * time.Millisecond,
		SettleTimeout:     15 * time.Second,
		SnapshotThreshold: 8,
		Dir:               dir,
	}
	sched := &Schedule{Seed: -3, Nodes: 3, Scripts: Generate(3, opt).Scripts}
	rep, err := Run(sched, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations on a healthy run:\n%s", strings.Join(rep.Violations, "\n"))
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range segs {
		b, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		end, index := baseFrame(b)
		if index == 0 {
			continue // no image in this segment's base
		}
		b[end-1] ^= 0xff
		if err := os.WriteFile(victim, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := raft.OpenFileStorage(filepath.Dir(victim)); err == nil {
			t.Fatalf("recovery accepted the corrupted image in %s", victim)
		} else if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted image in %s: open error %v, want checksum mismatch", victim, err)
		} else {
			t.Logf("recovery refused corrupted image: %v", err)
		}
		return
	}
	t.Fatalf("run with threshold %d left no segment with an image in %s", opt.SnapshotThreshold, dir)
}

// baseFrame reads a segment's base record as DESIGN §5 lays it out — the
// 9-byte header, then a frame of u32 length · u32 CRC · body, the body kind
// (1 B) · Term · VotedFor · Index · … — and returns where the frame ends and
// the snapshot index it names (0 when it carries no image).
func baseFrame(seg []byte) (end, index int) {
	const header, frameHeader = 9, 8
	if len(seg) < header+frameHeader {
		return 0, 0
	}
	end = header + frameHeader + int(binary.BigEndian.Uint32(seg[header:]))
	if end <= header+frameHeader || end > len(seg) {
		return 0, 0
	}
	body := seg[header+frameHeader+1 : end]
	for range 2 { // Term, VotedFor
		_, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, 0
		}
		body = body[n:]
	}
	idx, _ := binary.Varint(body)
	return end, int(idx)
}
