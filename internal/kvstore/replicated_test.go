package kvstore

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// TestReplicated runs every service scenario against the one service type at
// one shard and at three: the single-group store is the sharded store with
// one shard, so both get the same coverage. Each scenario's comment names
// the pre-merge tests it subsumes.
func TestReplicated(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, shards int)
	}{
		{"EndToEnd", testEndToEnd},
		{"AllReplicasConverge", testAllReplicasConverge},
		{"LeaderLoss", testLeaderLoss},
		{"UnderReconfiguration", testUnderReconfiguration},
		{"StepdownRetry", testStepdownRetry},
		{"ConcurrentSessions", testConcurrentSessions},
		{"DedupSurvivesShardSnapshot", testDedupSurvivesShardSnapshot},
		{"ReadModes", testReadModes},
		{"LeaseSwitch", testLeaseSwitch},
		{"ReadsReprobeUnderTransfer", testReadsReprobeUnderTransfer},
	}
	for _, sc := range scenarios {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) { sc.run(t, shards) })
		}
	}
}

var readModes = []ReadMode{ReadModeLeader, ReadModeFollower}

// startService starts a service with the given shard count (3 nodes and a
// 100 µs network unless opts says otherwise) and waits for every shard to
// elect a leader.
func startService(t *testing.T, shards int, opts cluster.Options) *Replicated {
	t.Helper()
	opts.Groups = shards
	if opts.N == 0 {
		opts.N = 3
	}
	if opts.Latency == 0 {
		opts.Latency = 100 * time.Microsecond
	}
	r := NewReplicated(opts)
	t.Cleanup(r.Stop)
	for g := 0; g < shards; g++ {
		if _, err := r.Cluster.Group(raft.GroupID(g)).WaitForLeader(opTimeout); err != nil {
			t.Fatalf("shard %d: %v", g, err)
		}
	}
	return r
}

// keyIn returns a key that routes to shard g.
func keyIn(r *Replicated, g int, prefix string) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s-%d", prefix, i); r.ShardOf(k) == raft.GroupID(g) {
			return k
		}
	}
}

// testEndToEnd (TestReplicatedEndToEnd, TestShardedEndToEnd): every
// operation round-trips on one key; values written across the keyspace read
// back; and each key's command applied in exactly its own shard's state
// machine — the keyspace partition is real, not just a routing convention.
func testEndToEnd(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 11})
	if err := r.Put("name", "adore", opTimeout); err != nil {
		t.Fatal(err)
	}
	v, ok, err := r.Get("name", opTimeout)
	if err != nil || !ok || v != "adore" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	swapped, err := r.CAS("name", "adore", "adore2", opTimeout)
	if err != nil || !swapped {
		t.Fatalf("cas: %v %v", swapped, err)
	}
	if v, err := r.Append("name", "!", opTimeout); err != nil || v != "adore2!" {
		t.Fatalf("append = %q %v", v, err)
	}
	found, err := r.Delete("name", opTimeout)
	if err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := r.Get("name", opTimeout); ok {
		t.Error("key survived delete")
	}

	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := r.Put(keys[i], fmt.Sprintf("v%d", i), opTimeout); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
	for i, k := range keys {
		v, ok, err := r.Get(k, opTimeout)
		if err != nil || !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("get %s = %q %v %v", k, v, ok, err)
		}
	}
	for _, k := range keys {
		home := r.ShardOf(k)
		for g := raft.GroupID(0); int(g) < shards; g++ {
			leader := r.Cluster.Group(g).Leader()
			if leader == nil {
				t.Fatalf("shard %d lost its leader", g)
			}
			if _, ok := r.Store(g, leader.ID()).LocalGet(k); ok != (g == home) {
				t.Fatalf("key %s (home shard %d): present=%v in shard %d", k, home, ok, g)
			}
		}
	}
}

// testAllReplicasConverge (TestReplicatedAllReplicasConverge): every replica
// of every shard ends with the same state.
func testAllReplicasConverge(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 13})
	const n = 20
	for i := 0; i < n; i++ {
		if err := r.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i), opTimeout); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []types.NodeID{1, 2, 3}
	keysOn := func(id types.NodeID) int {
		total := 0
		for g := 0; g < shards; g++ {
			total += r.Store(raft.GroupID(g), id).Len()
		}
		return total
	}
	deadline := time.Now().Add(opTimeout)
	for _, id := range nodes {
		for keysOn(id) != n {
			if !time.Now().Before(deadline) {
				t.Fatalf("%s has %d keys, want %d", id, keysOn(id), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for g := raft.GroupID(0); int(g) < shards; g++ {
		ref := r.Store(g, 1).Snapshot()
		for _, id := range nodes[1:] {
			snap := r.Store(g, id).Snapshot()
			for k, v := range ref {
				if snap[k] != v {
					t.Fatalf("%s diverges in shard %d at %q: %q vs %q", id, g, k, snap[k], v)
				}
			}
		}
	}
}

// testLeaderLoss (TestReplicatedSurvivesLeaderLoss,
// TestFastGetSurvivesLeaderChange): writes and barrier reads keep working
// through the successor of an isolated shard leader.
func testLeaderLoss(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 17})
	if err := r.Put("k", "v1", opTimeout); err != nil {
		t.Fatal(err)
	}
	r.Cluster.Net.Isolate(r.Cluster.Group(r.ShardOf("k")).Leader().ID())
	defer r.Cluster.Net.Heal()
	if v, ok, err := r.FastGet("k", opTimeout); err != nil || !ok || v != "v1" {
		t.Fatalf("FastGet after failover: %q %v %v", v, ok, err)
	}
	if err := r.Put("k", "v2", opTimeout); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := r.Get("k", opTimeout); err != nil || !ok || v != "v2" {
		t.Fatalf("after failover: %q %v %v", v, ok, err)
	}
}

// testUnderReconfiguration (TestReplicatedUnderReconfiguration): every shard
// grows to four replicas and shrinks back while serving writes.
func testUnderReconfiguration(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 19})
	reconfigure := func(members types.NodeSet) {
		t.Helper()
		for g := 0; g < shards; g++ {
			if _, err := r.Cluster.Group(raft.GroupID(g)).Reconfigure(members, opTimeout); err != nil {
				t.Fatalf("shard %d: %v", g, err)
			}
		}
	}
	put := func(stage string) {
		t.Helper()
		for g := 0; g < shards; g++ {
			if err := r.Put(keyIn(r, g, stage), stage, opTimeout); err != nil {
				t.Fatal(err)
			}
		}
	}
	put("pre")
	r.Cluster.StartNode(4, []types.NodeID{1, 2, 3, 4})
	reconfigure(types.Range(1, 4))
	put("during")
	reconfigure(types.Range(1, 3))
	put("post")
	for _, stage := range []string{"pre", "during", "post"} {
		for g := 0; g < shards; g++ {
			if _, ok, err := r.Get(keyIn(r, g, stage), opTimeout); err != nil || !ok {
				t.Fatalf("%q key of shard %d lost across reconfiguration (%v)", stage, g, err)
			}
		}
	}
}

// testStepdownRetry (TestShardedStepdownRetry) isolates one shard's leader
// mid-workload: the client's cached hint goes stale, the shard re-elects, and
// the request retries through to the new leader. Exactly-once still holds
// (the retried append lands once).
func testStepdownRetry(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 13})
	key := "stepdown-key"
	gv := r.Cluster.Group(r.ShardOf(key))
	// The put primes the default session's hint; then knock that leader out.
	if err := r.Put(key, "base", opTimeout); err != nil {
		t.Fatal(err)
	}
	leader := gv.Leader()
	if leader == nil {
		t.Fatal("no leader to isolate")
	}
	r.Cluster.Net.Isolate(leader.ID())
	defer r.Cluster.Net.Heal()
	got, err := r.Append(key, "+retry", 2*opTimeout)
	if err != nil {
		t.Fatalf("append across the shard's leader loss: %v", err)
	}
	if got != "base+retry" {
		t.Fatalf("append applied %q, want %q (duplicate or lost under retry)", got, "base+retry")
	}
	next := gv.Leader()
	if next == nil {
		t.Fatal("shard never re-elected")
	}
	if next.ID() == leader.ID() {
		t.Fatalf("isolated node %s still leads its shard", leader.ID())
	}
}

// testConcurrentSessions (TestShardedConcurrentClientsAcrossShards): separate
// sessions hammer the store at once without cross-talk, and one session runs
// concurrent requests against different shards (independent seq domains).
func testConcurrentSessions(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 11})
	const sessions, appends = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, sessions*shards)
	for c := 0; c < sessions; c++ {
		cl := r.NewClient()
		for g := 0; g < shards; g++ {
			key := keyIn(r, g, fmt.Sprintf("c%d", c))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < appends; i++ {
					if _, err := cl.Append(key, "x", opTimeout); err != nil {
						errs <- fmt.Errorf("%s: %w", key, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	for c := 0; c < sessions; c++ {
		for g := 0; g < shards; g++ {
			key := keyIn(r, g, fmt.Sprintf("c%d", c))
			v, _, err := r.Get(key, opTimeout)
			if err != nil || v != strings.Repeat("x", appends) {
				t.Fatalf("%s = %q (%v) — appends lost or duplicated", key, v, err)
			}
		}
	}
}

// testDedupSurvivesShardSnapshot (TestShardedDedupSurvivesShardSnapshot) is
// the exactly-once pin: a shard compacts its own WAL into a snapshot, a
// replica restarts from that snapshot, and a duplicate of an already-
// committed (client, shard-seq) command — the retry a client sends when an
// ack is lost — is still absorbed by the dedup table that rode along in the
// snapshot. Meanwhile the SAME numeric (client, seq) pair in a different
// shard is a distinct request and must apply: the dedup domains are per
// group.
func testDedupSurvivesShardSnapshot(t *testing.T, shards int) {
	var mu sync.Mutex
	disks := make(map[string]*raft.MemFS) // one per (group, node); guarded by mu
	r := startService(t, shards, cluster.Options{
		Seed: 17,
		StorageFor: func(g raft.GroupID, id types.NodeID) raft.Storage {
			mu.Lock()
			defer mu.Unlock()
			k := fmt.Sprintf("%d/%s", g, id)
			if disks[k] == nil {
				disks[k] = raft.NewMemFS()
			}
			st, err := raft.OpenFileStorageOn(disks[k], "wal")
			if err != nil {
				t.Errorf("%s: reopen: %v", k, err)
				return nil
			}
			return st
		},
		SnapshotThreshold: 8,
	})
	k0 := keyIn(r, 0, "probe")
	cl := r.NewClient()
	if _, err := cl.Append(k0, "once", opTimeout); err != nil {
		t.Fatal(err)
	}
	// cl's first op used (client=cl.id, seq=1) in shard 0. The same numeric
	// pair in another shard is a separate request and must apply.
	for g := 1; g < shards; g++ {
		if _, err := cl.Append(keyIn(r, g, "probe"), "other-shard", opTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// Push shard 0 past its snapshot threshold so the WAL compacts.
	for i := 0; i < 12; i++ {
		if err := cl.Put(k0, fmt.Sprintf("fill%d", i), opTimeout); err != nil {
			t.Fatal(err)
		}
	}

	// Restart a follower of shard 0: it reloads from its own shard-local
	// snapshot + WAL tail (StorageFor reopens them from the node's disk).
	members := []types.NodeID{1, 2, 3}
	leader0 := r.Cluster.Leader()
	var follower types.NodeID
	for _, id := range members {
		if id != leader0.ID() {
			follower = id
			break
		}
	}
	r.Cluster.CrashNode(follower)
	r.Cluster.RestartNode(follower, members)

	// Duplicate delivery: re-propose the exact committed command bytes of
	// cl's first shard-0 request (client, seq=1) — what a client retry after
	// a lost ack looks like on the wire. The dedup table must swallow it.
	dup := Command{Op: OpAppend, Key: k0, Value: "once", Client: cl.id, Seq: 1}
	if _, err := r.Cluster.Propose(dup.Encode(), opTimeout); err != nil {
		t.Fatal(err)
	}

	// A marker append AFTER the duplicate preserves the evidence: if the
	// dedup held, every replica ends at "fill11+sync"; a replica whose
	// restored dedup table lost cl's entry re-applies the duplicate and
	// shows "fill11once+sync" instead.
	const want = "fill11+sync"
	if got, err := r.Append(k0, "+sync", opTimeout); err != nil || got != want {
		t.Fatalf("duplicate (client,seq) applied on shard 0: %q (%v), want %q", got, err, want)
	}
	deadline := time.Now().Add(opTimeout)
	for _, id := range members {
		st := r.Store(0, id)
		for {
			if v, ok := st.LocalGet(k0); ok && strings.HasSuffix(v, "+sync") {
				if v != want {
					t.Fatalf("replica %s diverged after shard snapshot restart: %q, want %q", id, v, want)
				}
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("replica %s of shard 0 never converged", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for g := 1; g < shards; g++ {
		if v, _, err := r.Get(keyIn(r, g, "probe"), opTimeout); err != nil || v != "other-shard" {
			t.Fatalf("shard %d value = %q (%v): per-shard seq domains broken", g, v, err)
		}
	}
}

// testReadModes (TestFastGetObservesPrecedingWrites,
// TestFastGetModesObservePrecedingWrites, TestShardedFastGetModes): every
// read mode must observe a write that was acknowledged before the read was
// issued — the core linearizability contract FastGet promises regardless of
// which replica serves — for keys in every shard.
func testReadModes(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{N: 5, Seed: 53})
	for i, k := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		for round := 0; round < 3; round++ {
			val := fmt.Sprintf("v%d.%d", i, round)
			if err := r.Put(k, val, opTimeout); err != nil {
				t.Fatal(err)
			}
			for _, m := range readModes {
				v, ok, err := r.FastGetMode(k, m, opTimeout)
				if err != nil || !ok || v != val {
					t.Fatalf("mode %d %q: %q %v %v after Put(%q) returned", m, k, v, ok, err, val)
				}
			}
		}
	}
	if v, ok, err := r.FastGet("alpha", opTimeout); err != nil || !ok || v != "v0.2" {
		t.Fatalf("FastGet: %q %v %v", v, ok, err)
	}
	if _, ok, err := r.FastGet("missing", opTimeout); err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v", ok, err)
	}
}

// testLeaseSwitch (TestFastGetLeaseModeFallsBackWhenDisabled): the leader
// picks lease or barrier, and DisableLeaseRead is the one switch between
// them. With leases on, leader-served FastGets are answered from the lease:
// LeaseReads rises and no barrier opens. With DisableLeaseRead every one
// opens or joins a barrier, no lease read is counted, and all stay correct.
func testLeaseSwitch(t *testing.T, shards int) {
	for _, off := range []bool{false, true} {
		r := startService(t, shards, cluster.Options{Seed: 59, Ablation: raft.Ablation{DisableLeaseRead: off}})
		for g := 0; g < shards; g++ {
			k := keyIn(r, g, "k")
			if err := r.Put(k, "v", opTimeout); err != nil {
				t.Fatal(err)
			}
		}
		before := readCounters(r)
		for g := 0; g < shards; g++ {
			k := keyIn(r, g, "k")
			if v, ok, err := r.FastGet(k, opTimeout); err != nil || !ok || v != "v" {
				t.Fatalf("DisableLeaseRead=%v: FastGet = %q %v %v", off, v, ok, err)
			}
		}
		after := readCounters(r)
		leases, barriers := after.LeaseReads-before.LeaseReads, after.ReadBarriers-before.ReadBarriers
		if off && (leases != 0 || barriers == 0) {
			t.Fatalf("leases off: %d lease reads, %d barriers; want 0 and at least 1", leases, barriers)
		}
		if !off && (leases == 0 || barriers != 0) {
			t.Fatalf("leases on: %d lease reads, %d barriers; want at least 1 and 0", leases, barriers)
		}
	}
}

// readCounters sums the core counters over every node of every shard.
func readCounters(r *Replicated) (sum raft.Counters) {
	for _, n := range r.Cluster.Nodes() {
		sum.Add(n.Snapshot().Counters)
	}
	return sum
}

// testReadsReprobeUnderTransfer (TestFastGetReprobesUnderLeadershipTransfer;
// regression, ISSUE 10 satellite): a leadership transfer aborts in-flight
// read barriers with ErrLeaderStepdown, and FastGet must treat that as an
// immediate re-probe — not a generic error — succeeding promptly against
// the successor. Exercised across every read mode and repeated transfers.
func testReadsReprobeUnderTransfer(t *testing.T, shards int) {
	r := startService(t, shards, cluster.Options{Seed: 61})
	gv := r.Cluster.Group(r.ShardOf("k"))
	if err := r.Put("k", "stable", opTimeout); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		leader := gv.Leader()
		if leader == nil {
			if _, err := gv.WaitForLeader(opTimeout); err != nil {
				t.Fatal(err)
			}
			continue
		}
		// Hand leadership to the most caught-up voter, then read while the
		// transfer (and the stepdown aborts it causes) is in flight.
		_ = leader.TransferLeader(types.NoNode)
		m := readModes[i%len(readModes)]
		if v, ok, err := r.FastGetMode("k", m, opTimeout); err != nil || !ok || v != "stable" {
			t.Fatalf("transfer %d (%v): FastGet %q %v %v", i, m, v, ok, err)
		}
	}
}
