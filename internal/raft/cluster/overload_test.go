package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestNoLossUnderInboxPressure overloads a cluster whose per-node inboxes
// are tiny (8 messages) with hundreds of concurrent proposals. Each node
// reads its inbox directly, with no queue behind it, so the transport sheds
// whatever still finds the inbox full after its bounded wait — appends, acks
// and votes alike — and only retransmission recovers it. The assertion is the replication
// contract under that pressure: every acked proposal commits, and all nodes
// apply identical command sequences with nothing missing.
func TestNoLossUnderInboxPressure(t *testing.T) {
	c := New(Options{N: 3, Seed: 77, InboxSize: 8})
	defer c.Stop()
	if _, err := c.WaitForLeader(timeout); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	const perWorker = 20
	total := workers * perWorker
	var wg sync.WaitGroup
	var mu sync.Mutex
	maxIdx := 0
	acked := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cmd := []byte(fmt.Sprintf("w%d-%d", w, i))
				deadline := time.Now().Add(timeout)
				for {
					l := c.Leader()
					if l == nil {
						if !time.Now().Before(deadline) {
							t.Errorf("no leader for %s", cmd)
							return
						}
						time.Sleep(time.Millisecond)
						continue
					}
					idx, _, err := l.ProposeAsync(cmd).Wait()
					if err == nil {
						mu.Lock()
						acked++
						if idx > maxIdx {
							maxIdx = idx
						}
						mu.Unlock()
						break
					}
					if !time.Now().Before(deadline) {
						t.Errorf("propose %s: %v", cmd, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if acked != total {
		t.Fatalf("acked %d of %d proposals", acked, total)
	}

	for _, id := range []types.NodeID{1, 2, 3} {
		if err := c.WaitCommit(id, maxIdx, timeout); err != nil {
			t.Fatal(err)
		}
	}
	// All nodes applied the same commands in the same order, none lost.
	ref := commandStream(c.Applied(1), maxIdx)
	if len(ref) != total {
		t.Fatalf("node 1 applied %d commands up to index %d, want %d", len(ref), maxIdx, total)
	}
	for _, id := range []types.NodeID{2, 3} {
		got := commandStream(c.Applied(id), maxIdx)
		if len(got) != len(ref) {
			t.Fatalf("%s applied %d commands, node 1 applied %d", id, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s diverges at position %d: %q vs %q", id, i, got[i], ref[i])
			}
		}
	}
}

// commandStream extracts the applied command payloads up to and including
// index bound (committed entries past the bound may still be in flight on
// some nodes when the check runs).
func commandStream(msgs []raft.ApplyMsg, bound int) []string {
	var out []string
	for _, m := range msgs {
		if m.Index <= bound && m.Kind == raft.EntryCommand {
			out = append(out, string(m.Command))
		}
	}
	return out
}
