package main

import "fmt"

// staleRead is a get that returned a version older than one acknowledged
// before the get was issued.
type staleRead struct {
	key        string
	floor, got uint64
}

// ackedPut is one acknowledged put: the log index it was acknowledged at and
// the hash of its command.
type ackedPut struct {
	idx  int
	hash uint64
}

// gateInput is everything the correctness gate looks at, gathered after the
// load generators stopped (stores, errs, stale, acked) and after the hosts
// stopped (wals).
type gateInput struct {
	keys   []string
	acked  []uint64            // per key: the last acknowledged version
	stores []map[string]string // per replica: final Store.Snapshot()
	errs   []string            // per replica: fail-stop cause, "" when healthy
	stale  []staleRead
	puts   []ackedPut // durable workloads only
	wals   [][]uint64 // per replica: command hash at index i+1; nil when volatile
	failed []string   // anything the run itself could not do (converge, reload a WAL)
}

// maxReported bounds how many violations of one kind are listed.
const maxReported = 5

// checkGate returns every violation found; an empty result is a pass.
//
//   - every replica holds the same final state;
//   - every acknowledged put is reflected (final version >= last acked);
//   - no get returned a version older than one acknowledged before it was
//     issued;
//   - no replica fail-stopped;
//   - durable: every acknowledged index holds the acknowledged command in a
//     majority of the reopened WALs.
func checkGate(in gateInput) []string {
	out := append([]string(nil), in.failed...)
	for r, e := range in.errs {
		if e != "" {
			out = append(out, fmt.Sprintf("replica S%d fail-stopped: %s", r+1, e))
		}
	}
	for r := 1; r < len(in.stores); r++ {
		if d := diffStores(in.stores[0], in.stores[r]); d != "" {
			out = append(out, fmt.Sprintf("replica S%d diverges from S1: %s", r+1, d))
		}
	}
	if len(in.stores) > 0 {
		lost := 0
		for k, name := range in.keys {
			if got := versionOf(in.stores[0][name]); got < in.acked[k] {
				if lost++; lost <= maxReported {
					out = append(out, fmt.Sprintf("acked put lost: %s at version %d, acked %d", name, got, in.acked[k]))
				}
			}
		}
		if lost > maxReported {
			out = append(out, fmt.Sprintf("... and %d more lost puts", lost-maxReported))
		}
	}
	for i, s := range in.stale {
		if i == maxReported {
			out = append(out, fmt.Sprintf("... and %d more stale reads", len(in.stale)-maxReported))
			break
		}
		out = append(out, fmt.Sprintf("stale read: %s returned version %d after %d was acked", s.key, s.got, s.floor))
	}
	if in.wals != nil {
		need, missing := len(in.wals)/2+1, 0
		for _, p := range in.puts {
			have := 0
			for _, w := range in.wals {
				if p.idx >= 1 && p.idx <= len(w) && w[p.idx-1] == p.hash {
					have++
				}
			}
			if have < need {
				if missing++; missing <= maxReported {
					out = append(out, fmt.Sprintf("acked index %d durable on %d of %d WALs, need %d", p.idx, have, len(in.wals), need))
				}
			}
		}
		if missing > maxReported {
			out = append(out, fmt.Sprintf("... and %d more under-replicated indices", missing-maxReported))
		}
	}
	return out
}

// diffStores describes the first difference between two store snapshots, or
// "" when they are identical.
func diffStores(a, b map[string]string) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d keys vs %d", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || va != vb {
			return fmt.Sprintf("key %s: version %d vs %d", k, versionOf(va), versionOf(vb))
		}
	}
	return ""
}
