// KVStore: run the replicated key-value store (the paper's §2 motivating
// application) on an in-process Raft cluster, exercise it through a leader
// failure and a live membership change, and verify all replicas converge.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

const timeout = 15 * time.Second

func main() {
	// Three replicas over an in-memory network with ~0.5 ms latency.
	store := kvstore.NewReplicated(cluster.Options{
		N:       3,
		Latency: 300 * time.Microsecond,
		Jitter:  400 * time.Microsecond,
		Seed:    2026,
	})
	defer store.Stop()

	leader, err := store.Cluster.WaitForLeader(timeout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leader elected: %s\n", leader)

	// Basic operations, all linearizable (they go through the log).
	must(store.Put("lang", "go", timeout))
	must(store.Put("paper", "adore", timeout))
	v, ok, err := store.Get("paper", timeout)
	must(err)
	fmt.Printf("get paper → %q (found=%v)\n", v, ok)

	swapped, err := store.CAS("lang", "go", "Go", timeout)
	must(err)
	fmt.Printf("cas lang go→Go → swapped=%v\n", swapped)

	// Kill the leader mid-stream: the client retries transparently.
	fmt.Printf("isolating leader %s...\n", leader)
	store.Cluster.Net.Isolate(leader)
	must(store.Put("survived", "yes", timeout))
	v, _, err = store.Get("survived", timeout)
	must(err)
	fmt.Printf("after failover: get survived → %q\n", v)
	store.Cluster.Net.Heal()

	// Hot reconfiguration under load: grow to four replicas while writing.
	fmt.Println("growing the cluster to 4 nodes while serving writes...")
	store.Cluster.StartNode(4, []types.NodeID{1, 2, 3, 4})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 25; i++ {
			if err := store.Put(fmt.Sprintf("load-%d", i), "x", timeout); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	if _, err := store.Cluster.Reconfigure(types.Range(1, 4), timeout); err != nil {
		log.Fatal(err)
	}
	must(<-done)
	fmt.Printf("membership now: %v\n", store.Cluster.Leader().Snapshot().Members)

	// A linearizable read, then wait for replica convergence.
	if _, _, err := store.Get("load-24", timeout); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if store.Store(0, 4).Len() == store.Store(0, 1).Len() {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	fmt.Printf("replica key counts: S1=%d S2=%d S3=%d S4=%d\n",
		store.Store(0, 1).Len(), store.Store(0, 2).Len(), store.Store(0, 3).Len(), store.Store(0, 4).Len())
	fmt.Println("done ✔")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
