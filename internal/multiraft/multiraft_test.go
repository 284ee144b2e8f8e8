package multiraft

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/raftcore"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// memTransports joins each member to one in-memory network and closes the
// transports when the test ends.
func memTransports(t *testing.T, members []types.NodeID) map[types.NodeID]*transport.TCPTransport {
	t.Helper()
	net := transport.NewMemNet(0, 0, 1)
	trs := make(map[types.NodeID]*transport.TCPTransport, len(members))
	for _, id := range members {
		tr, err := net.Join(id, members, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[id] = tr
	}
	return trs
}

// startHosts brings up an n-node cluster of hosts, each running groups
// raft groups over its own transport on one in-memory network, recording
// every group's apply stream.
func startHosts(t *testing.T, n, groups int, rec *applyRecorder) (map[types.NodeID]*transport.TCPTransport, map[types.NodeID]*Host) {
	t.Helper()
	members := types.Range(1, types.NodeID(n)).Copy()
	trs := memTransports(t, members)
	hosts := make(map[types.NodeID]*Host)
	for _, id := range members {
		id := id
		h, err := Start(Options{
			ID:        id,
			Members:   members,
			Groups:    groups,
			Transport: trs[id],
			// Fast timers keep the test snappy.
			ElectionTimeoutMin: 10 * time.Millisecond,
			Seed:               int64(id),
			OnApply: func(g raft.GroupID, batch []raft.ApplyMsg) {
				rec.add(g, id, batch)
			},
		})
		if err != nil {
			t.Fatalf("start host %s: %v", id, err)
		}
		hosts[id] = h
	}
	t.Cleanup(func() {
		for _, h := range hosts {
			h.Stop()
		}
	})
	return trs, hosts
}

// applyRecorder collects each (group, node)'s apply stream.
type applyRecorder struct {
	mu sync.Mutex
	by map[string][]raft.ApplyMsg // guarded by mu
}

func newApplyRecorder() *applyRecorder {
	return &applyRecorder{by: make(map[string][]raft.ApplyMsg)}
}

func (r *applyRecorder) add(g raft.GroupID, id types.NodeID, batch []raft.ApplyMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := fmt.Sprintf("%d/%s", g, id)
	r.by[k] = append(r.by[k], batch...)
}

func (r *applyRecorder) commands(g raft.GroupID, id types.NodeID) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, m := range r.by[fmt.Sprintf("%d/%s", g, id)] {
		if m.Kind == raft.EntryCommand {
			out = append(out, string(m.Command))
		}
	}
	return out
}

// leaderOf polls for group g's leader across the hosts.
func leaderOf(t *testing.T, hosts map[types.NodeID]*Host, g raft.GroupID) *raft.Node {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, h := range hosts {
			n := h.Node(g)
			if n == nil {
				continue
			}
			if n.Snapshot().Role == raft.Leader {
				return n
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no leader for group %d", g)
	return nil
}

// TestHostGroupsAreIndependent runs three groups on three hosts over one
// shared network: every group elects its own leader (driven by the shared
// tick loop), commands proposed to one group commit in that group on every
// node and never leak into another group's apply stream.
func TestHostGroupsAreIndependent(t *testing.T) {
	const nodes, groups = 3, 3
	rec := newApplyRecorder()
	trs, hosts := startHosts(t, nodes, groups, rec)

	// Propose distinct commands in each group via its own leader.
	for g := raft.GroupID(0); g < groups; g++ {
		lead := leaderOf(t, hosts, g)
		want := fmt.Sprintf("cmd-for-group-%d", g)
		var idx int
		var err error
		deadline := time.Now().Add(10 * time.Second)
		for {
			idx, _, err = lead.ProposeAsync([]byte(want)).Wait()
			if err == nil {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("group %d: propose: %v", g, err)
			}
			time.Sleep(time.Millisecond)
			lead = leaderOf(t, hosts, g)
		}
		// Wait for the command to apply on every node of the group.
		for id := types.NodeID(1); id <= nodes; id++ {
			waitFor(t, func() bool {
				for _, c := range rec.commands(g, id) {
					if c == want {
						return true
					}
				}
				return false
			}, fmt.Sprintf("group %d index %d applied on %s", g, idx, id))
		}
	}

	// Isolation: each node's per-group stream holds exactly its own
	// group's command, never a neighbor's.
	for g := raft.GroupID(0); g < groups; g++ {
		for id := types.NodeID(1); id <= nodes; id++ {
			for _, c := range rec.commands(g, id) {
				if c != fmt.Sprintf("cmd-for-group-%d", g) {
					t.Fatalf("group %d on %s applied foreign command %q", g, id, c)
				}
			}
		}
	}

	// The multiplexer really carried distinct per-group traffic.
	for g := raft.GroupID(0); g < groups; g++ {
		var delivered uint64
		for _, tr := range trs {
			d, _, _ := tr.GroupCounters(g)
			delivered += d
		}
		if delivered == 0 {
			t.Fatalf("group %d moved no traffic through the shared transports", g)
		}
	}
}

// TestHostStopsCleanly: stopping a host detaches every group without
// wedging the others' hosts (their groups re-elect if the stopped node led).
func TestHostStopsCleanly(t *testing.T) {
	rec := newApplyRecorder()
	trs, hosts := startHosts(t, 3, 2, rec)
	lead := leaderOf(t, hosts, 1)
	victim := lead.ID()
	hosts[victim].Stop()
	trs[victim].Close()
	delete(hosts, victim)
	// Both groups must still elect among the survivors.
	for g := raft.GroupID(0); g < 2; g++ {
		n := leaderOf(t, hosts, g)
		if n.ID() == victim {
			t.Fatalf("group %d still led by stopped node %s", g, victim)
		}
	}
}

// TestFreshHostsElectInsideOneInterval: three one-group hosts that start
// with nothing on disk have a leader before raft.ElectionTicks ticks have
// passed. A node that never persisted a term campaigns on its first jittered
// tick; only a node with recovered state waits out the full interval.
func TestFreshHostsElectInsideOneInterval(t *testing.T) {
	const etMin = 600 * time.Millisecond // a 100 ms tick: message latency is noise
	interval := raft.ElectionTicks * tickPeriod(etMin)
	members := types.Range(1, 3).Copy()
	trs := memTransports(t, members)
	var hosts []*Host
	defer func() {
		for _, h := range hosts {
			h.Stop()
		}
	}()
	start := time.Now()
	for _, id := range members {
		h, err := Start(Options{
			ID:                 id,
			Members:            members,
			Transport:          trs[id],
			ElectionTimeoutMin: etMin,
			Seed:               int64(id),
		})
		if err != nil {
			t.Fatalf("start host %s: %v", id, err)
		}
		hosts = append(hosts, h)
	}
	for time.Since(start) < interval {
		for _, h := range hosts {
			if h.Node(0).Snapshot().Role == raft.Leader {
				t.Logf("S%d led after %v (interval %v)", h.ID(), time.Since(start).Round(time.Millisecond), interval)
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no leader %v (%d ticks) after a fresh start", interval, raft.ElectionTicks)
}

// TestTimersMatchDerivation checks the node's timer constants and the host's
// tick period against the derivation they replace, for every
// ElectionTimeoutMin the repo runs with: the tick was HeartbeatInterval/2
// with HeartbeatInterval = ElectionTimeoutMin/3, the election timeout and the
// jitter span (ElectionTimeoutMax = 2·ElectionTimeoutMin) were counted in
// that tick, and a window was 256 entries.
func TestTimersMatchDerivation(t *testing.T) {
	ms := time.Millisecond
	for _, etMin := range []time.Duration{10 * ms, 15 * ms, 40 * ms, 0, 150 * ms, 3 * time.Second} {
		et := etMin
		if et == 0 {
			et = 50 * ms // the one default
		}
		unit := et / 3 / 2
		electionTicks := int(et / unit)
		jitterSpan := int((2*et - et) / unit)
		if got := tickPeriod(etMin); got != unit {
			t.Errorf("ElectionTimeoutMin %v: tick period %v, want %v", etMin, got, unit)
		}
		if raft.ElectionTicks != electionTicks || raft.ElectionTicks != jitterSpan {
			t.Errorf("ElectionTimeoutMin %v: ElectionTicks %d, want %d election ticks and a jitter span of %d",
				etMin, raft.ElectionTicks, electionTicks, jitterSpan)
		}
	}
	if raftcore.MaxEntriesPerAppend != 256 {
		t.Errorf("MaxEntriesPerAppend = %d, want 256", raftcore.MaxEntriesPerAppend)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGroupStorageNamespacing pins the cross-group compaction isolation:
// with each group confined to GroupStorageDir, one group's SaveSnapshot
// (which unlinks covered WAL segments) cannot touch a neighbor group's
// files — and the neighbor reloads its full state afterwards.
func TestGroupStorageNamespacing(t *testing.T) {
	root := t.TempDir()
	open := func(g raft.GroupID) *raft.FileStorage {
		fs, err := raft.OpenFileStorage(GroupStorageDir(root, g))
		if err != nil {
			t.Fatalf("open group %d: %v", g, err)
		}
		return fs
	}
	entry := func(i int) raft.LogEntry {
		return raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: []byte(fmt.Sprintf("e%d", i))}
	}

	g0, g1 := open(0), open(1)
	for i := 1; i <= 20; i++ {
		if err := g0.SaveEntries(i, []raft.LogEntry{entry(i)}); err != nil {
			t.Fatal(err)
		}
		if err := g1.SaveEntries(i, []raft.LogEntry{entry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := listDir(t, GroupStorageDir(root, 1))

	// Group 0 compacts: snapshot at 15, segments below it unlinked.
	if err := g0.SaveSnapshot(raft.LogSnapshot{Index: 15, Term: 1, Members: []types.NodeID{1}}); err != nil {
		t.Fatal(err)
	}
	after := listDir(t, GroupStorageDir(root, 1))
	if fmt.Sprint(before) != fmt.Sprint(after) {
		t.Fatalf("group 0 compaction changed group 1's files:\n before %v\n after  %v", before, after)
	}
	if err := g0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g1.Close(); err != nil {
		t.Fatal(err)
	}

	// Group 1 reloads every entry untouched.
	re := open(1)
	defer re.Close()
	_, base, log, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if base.Index != 0 || len(log) != 20 {
		t.Fatalf("group 1 after neighbor compaction: base %d, %d entries (want 0, 20)", base.Index, len(log))
	}
}

// TestStorageRootLayout pins where StorageRoot puts each group's WAL: a
// one-group host uses the root itself, so a directory written by a plain
// FileStorage reopens under it with every entry; a two-group host gives each
// group its own GroupStorageDir.
func TestStorageRootLayout(t *testing.T) {
	start := func(root string, groups int) *Host {
		t.Helper()
		h, err := Start(Options{
			ID:          1,
			Members:     []types.NodeID{1},
			Groups:      groups,
			Transport:   memTransports(t, []types.NodeID{1})[1],
			StorageRoot: root,
		})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	flat := t.TempDir()
	fs, err := raft.OpenFileStorage(flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveState(raft.HardState{Term: 1, VotedFor: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		e := raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: []byte(fmt.Sprintf("e%d", i))}
		if err := fs.SaveEntries(i, []raft.LogEntry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	h := start(flat, 1)
	last := h.Node(0).Snapshot().LastIndex
	h.Stop()
	if last < 20 {
		t.Fatalf("one-group host on a flat WAL recovered through index %d, want 20", last)
	}

	root := t.TempDir()
	start(root, 2).Stop()
	if got := fmt.Sprint(listDir(t, root)); got != "[group-0000 group-0001]" {
		t.Fatalf("two-group host's storage root holds %s, want one directory per group", got)
	}
}

// TestCrossGroupUnlinkIsCaught is the storage half of the teeth argument:
// if a buggy flat-layout compactor DID unlink another group's segment (the
// bug the per-group subdirectories make impossible), the victim's next
// reload must fail loudly — never silently fabricate a shorter log.
func TestCrossGroupUnlinkIsCaught(t *testing.T) {
	root := t.TempDir()
	dir := GroupStorageDir(root, 1)
	entry := func(i int) raft.LogEntry {
		return raft.LogEntry{Term: 1, Kind: raft.EntryCommand, Command: []byte(fmt.Sprintf("e%d", i))}
	}
	// Two process generations → two segments: entries 1..10 in the first,
	// 11..20 in the second.
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := fs.SaveEntries(i, []raft.LogEntry{entry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err = raft.OpenFileStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 20; i++ {
		if err := fs.SaveEntries(i, []raft.LogEntry{entry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// The "cross-group compaction" unlinks the victim's oldest segment
	// without a covering snapshot.
	segs := listDir(t, dir)
	if len(segs) < 2 {
		t.Fatalf("expected ≥2 segments, got %v", segs)
	}
	if err := os.Remove(filepath.Join(dir, segs[0])); err != nil {
		t.Fatal(err)
	}

	// Reload must detect the gap, not fabricate a log starting at 11.
	if _, err := raft.OpenFileStorage(dir); err == nil {
		t.Fatal("reload after a foreign unlink succeeded silently — the gap went undetected")
	} else {
		t.Logf("caught as expected: %v", err)
	}
}

// listDir returns the sorted names of WAL artifacts in dir.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}
