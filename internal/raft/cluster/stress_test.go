package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestConcurrentProposeCrashReconfigStress hammers one cluster from four
// directions at once — two proposer goroutines, a crash/restart loop, and
// a reconfiguration loop — while the race detector watches. It is the
// regression net for the locking discipline the guarded-field annotations
// document: any unguarded access to node, store, or network state shows up
// here under `go test -race`.
func TestConcurrentProposeCrashReconfigStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: skipped with -short")
	}

	var storeMu sync.Mutex
	stores := map[types.NodeID]*raft.MemStorage{}
	c := New(Options{N: 5, Seed: 77, StorageFor: func(_ raft.GroupID, id types.NodeID) raft.Storage {
		storeMu.Lock()
		defer storeMu.Unlock()
		if stores[id] == nil {
			stores[id] = raft.NewMemStorage()
		}
		return stores[id]
	}})
	defer c.Stop()

	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}

	all := []types.NodeID{1, 2, 3, 4, 5}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Two proposer goroutines: Propose retries internally across leader
	// changes, so failures during crashes are expected and tolerated.
	proposed := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := c.Propose([]byte(fmt.Sprintf("g%d-%d", g, i)), time.Second); err == nil {
					proposed[g]++
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}

	// Crash/restart loop: repeatedly kill a non-leader and bring it back.
	restarts := map[types.NodeID]int{} // read after wg.Wait
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			lid, err := c.WaitForLeader(timeout)
			if err != nil {
				return
			}
			var victim types.NodeID
			for _, id := range all {
				if id != lid && c.Node(id) != nil {
					victim = id
					break
				}
			}
			if victim == types.NoNode {
				continue
			}
			c.CrashNode(victim)
			time.Sleep(30 * time.Millisecond)
			c.RestartNode(victim, all)
			restarts[victim]++
			time.Sleep(30 * time.Millisecond)
		}
	}()

	// Reconfiguration loop: shrink to a quorum-preserving majority and
	// grow back, exercising config entries interleaved with commands.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 2; round++ {
			if _, err := c.Reconfigure(types.NewNodeSet(1, 2, 3, 4), time.Second); err != nil {
				continue
			}
			time.Sleep(20 * time.Millisecond)
			_, _ = c.Reconfigure(types.NewNodeSet(all...), time.Second)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)

	if proposed[0]+proposed[1] == 0 {
		t.Fatal("no proposal succeeded despite a running cluster")
	}

	// Let in-flight commits settle, then check the applied streams of every
	// surviving node. The cluster's record spans incarnations and a restarted
	// node replays its log from index 1, so each stream is first cut where
	// the index goes backwards: within an incarnation indices must be
	// contiguous and ascending, there may be no more cuts than restarts, and
	// a replay must repeat what the node applied before. What is left is one
	// stream per node without gaps, compared position-wise as before.
	time.Sleep(300 * time.Millisecond)
	applied := make(map[types.NodeID][]raft.ApplyMsg)
	for _, id := range all {
		if c.Node(id) == nil {
			continue
		}
		var merged []raft.ApplyMsg // merged[i] is index i+1
		prev, cuts := 0, 0
		for pos, m := range c.Applied(id) {
			if m.Index <= prev {
				if m.Index != 1 {
					t.Fatalf("%s applied index %d after %d at position %d: neither the next index nor a replay from 1", id, m.Index, prev, pos)
				}
				cuts++
			} else if m.Index != prev+1 {
				t.Fatalf("%s skipped from index %d to %d at position %d", id, prev, m.Index, pos)
			}
			prev = m.Index
			if m.Index <= len(merged) {
				if old := merged[m.Index-1]; fingerprint(old) != fingerprint(m) {
					t.Fatalf("%s re-applied index %d as %s after %s", id, m.Index, fingerprint(m), fingerprint(old))
				}
				continue
			}
			if n := len(merged); n > 0 && m.Term < merged[n-1].Term {
				t.Fatalf("%s applied term %d at index %d after term %d", id, m.Term, m.Index, merged[n-1].Term)
			}
			merged = append(merged, m)
		}
		if cuts > restarts[id] {
			t.Fatalf("%s's applied index went backwards %d times over %d restarts", id, cuts, restarts[id])
		}
		applied[id] = merged
	}
	for _, a := range all {
		for _, b := range all {
			if a >= b || applied[a] == nil || applied[b] == nil {
				continue
			}
			n := len(applied[a])
			if len(applied[b]) < n {
				n = len(applied[b])
			}
			for i := 0; i < n; i++ {
				ea, eb := applied[a][i], applied[b][i]
				if ea.Index != eb.Index || fingerprint(ea) != fingerprint(eb) {
					t.Fatalf("applied streams diverge between %s and %s at position %d: (%d,%s) vs (%d,%s)",
						a, b, i, ea.Index, fingerprint(ea), eb.Index, fingerprint(eb))
				}
			}
		}
	}
}

// fingerprint renders what an applied entry is (everything but its index).
func fingerprint(m raft.ApplyMsg) string {
	return fmt.Sprintf("%s@t%d %q %v", m.Kind, m.Term, m.Command, m.Members)
}
