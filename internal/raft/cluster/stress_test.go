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
	c := New(Options{N: 5, Seed: 77, StorageFor: func(id types.NodeID) raft.Storage {
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

	// Let in-flight commits settle, then check agreement on the applied
	// command streams of every surviving node, index by index: a restarted
	// node replays its log from the start (the record spans incarnations),
	// so a position-wise comparison would mistake the replay for a fork.
	time.Sleep(300 * time.Millisecond)
	applied := make(map[types.NodeID]map[int]string)
	for _, id := range all {
		if c.Node(id) == nil {
			continue
		}
		byIndex := make(map[int]string)
		for _, m := range c.Applied(id) {
			entry := fmt.Sprintf("%s@t%d %q", m.Kind, m.Term, m.Command)
			if prev, ok := byIndex[m.Index]; ok && prev != entry {
				t.Fatalf("%s re-applied index %d as %s after %s", id, m.Index, entry, prev)
			}
			byIndex[m.Index] = entry
		}
		applied[id] = byIndex
	}
	for _, a := range all {
		for _, b := range all {
			if a >= b || applied[a] == nil || applied[b] == nil {
				continue
			}
			for idx, ea := range applied[a] {
				if eb, ok := applied[b][idx]; ok && ea != eb {
					t.Fatalf("applied streams diverge between %s and %s at index %d: %s vs %s", a, b, idx, ea, eb)
				}
			}
		}
	}
}
