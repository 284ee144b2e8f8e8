package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// Fig16Options parameterizes the Fig. 16 reproduction: "the experiment
// reconfigures after every 1000 client requests, starting with five nodes,
// dropping to three, then increasing back to five" (§7). The paper ran on
// EC2 m4.xlarge; we run on a latency-injecting in-memory network (see
// DESIGN.md's substitution table).
type Fig16Options struct {
	// Requests is the total client request count (paper: 5000).
	Requests int
	// ReconfigEvery triggers a membership change after this many requests
	// (paper: 1000).
	ReconfigEvery int
	// StartNodes is the initial cluster size (paper: 5). The schedule
	// shrinks one node at a time to StartNodes-2, then grows back.
	StartNodes int
	// NetLatency/NetJitter simulate the network RTT contribution.
	NetLatency time.Duration
	NetJitter  time.Duration
	// Seed drives all randomness.
	Seed int64
	// Timeout bounds each client request.
	Timeout time.Duration
	// Clients is the number of concurrent closed-loop clients (0 or 1:
	// the paper's single sequential client). With several clients the
	// group-commit path coalesces their proposals into shared WAL frames
	// and broadcasts.
	Clients int
	// Durable backs every node with a real file WAL in a temporary
	// directory (removed afterwards), putting fsync on the critical path
	// as on real hardware. Without it appends are memory-only.
	Durable bool
	// Ablation turns protocol guards off (Pre-Vote, CheckQuorum), so the
	// reconfiguration latency spikes can be measured with and without
	// graceful leadership handling.
	raft.Ablation
}

// Fig16Defaults returns the paper's parameters (scaled to run in seconds on
// a laptop rather than minutes on EC2).
func Fig16Defaults() Fig16Options {
	return Fig16Options{
		Requests:      5000,
		ReconfigEvery: 1000,
		StartNodes:    5,
		NetLatency:    200 * time.Microsecond,
		NetJitter:     300 * time.Microsecond,
		Seed:          1,
		Timeout:       30 * time.Second,
	}
}

// Fig16Result carries the recorded series.
type Fig16Result struct {
	Recorder *LatencyRecorder
	// Schedule lists the applied membership changes as "(n) → (m)".
	Schedule []string
	Elapsed  time.Duration
}

// RunFig16 executes the experiment: a client issues Requests sequential
// put/get operations against a replicated KV store while the membership
// follows the 5 → 3 → 5 schedule, one node per change. Per-request
// latencies are recorded with reconfiguration events annotated.
func RunFig16(opts Fig16Options) (*Fig16Result, error) {
	if opts.Requests == 0 {
		opts = Fig16Defaults()
	}
	clOpts := cluster.Options{
		N:        opts.StartNodes,
		Latency:  opts.NetLatency,
		Jitter:   opts.NetJitter,
		Seed:     opts.Seed,
		Ablation: opts.Ablation,
	}
	if opts.Durable {
		dir, err := os.MkdirTemp("", "fig16-wal-")
		if err != nil {
			return nil, fmt.Errorf("bench: wal dir: %w", err)
		}
		defer os.RemoveAll(dir)
		clOpts.StorageFor = func(_ raft.GroupID, id types.NodeID) raft.Storage {
			fs, err := raft.OpenFileStorage(filepath.Join(dir, fmt.Sprintf("wal-%s", id)))
			if err != nil {
				panic(fmt.Sprintf("bench: open wal for %s: %v", id, err))
			}
			return fs
		}
	}
	r := kvstore.NewReplicated(clOpts)
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opts.Timeout); err != nil {
		return nil, err
	}

	// Membership schedule: remove one node per step down to
	// StartNodes-2, then add them back, at every ReconfigEvery requests.
	type change struct {
		target types.NodeSet
		label  string
	}
	full := types.Range(1, types.NodeID(opts.StartNodes))
	var schedule []change
	cur := full
	// Shrink (remove the two highest IDs one at a time)...
	for i := 0; i < 2; i++ {
		victim := cur.Slice()[cur.Len()-1]
		next := cur.Remove(victim)
		schedule = append(schedule, change{next, fmt.Sprintf("(%d) → (%d) remove %s", cur.Len(), next.Len(), victim)})
		cur = next
	}
	// ...then grow back.
	for i := 0; i < 2; i++ {
		missing := full.Diff(cur).Slice()[0]
		next := cur.Add(missing)
		schedule = append(schedule, change{next, fmt.Sprintf("(%d) → (%d) add %s", cur.Len(), next.Len(), missing)})
		cur = next
	}

	rec := NewLatencyRecorder(opts.Requests)
	res := &Fig16Result{Recorder: rec}
	start := time.Now()

	// One request by its global sequence number i; used by both modes.
	doRequest := func(i int) error {
		t0 := time.Now()
		key := fmt.Sprintf("key-%d", i%64)
		var err error
		if i%4 == 3 {
			_, _, err = r.Get(key, opts.Timeout)
		} else {
			err = r.Put(key, fmt.Sprintf("value-%d", i), opts.Timeout)
		}
		if err != nil {
			return fmt.Errorf("bench: request %d: %w", i, err)
		}
		rec.Record(time.Since(t0))
		return nil
	}

	var schedMu sync.Mutex
	nextChange := 0
	// maybeReconfig applies the next scheduled membership change when the
	// request counter crosses a boundary. Exactly one client owns each
	// request number, so each boundary fires once; schedMu orders the
	// schedule bookkeeping among clients.
	maybeReconfig := func(i int) error {
		if opts.ReconfigEvery <= 0 || i == 0 || i%opts.ReconfigEvery != 0 {
			return nil
		}
		schedMu.Lock()
		if nextChange >= len(schedule) {
			schedMu.Unlock()
			return nil
		}
		ch := schedule[nextChange]
		nextChange++
		rec.Annotate(ch.label)
		res.Schedule = append(res.Schedule, ch.label)
		schedMu.Unlock()
		if _, err := r.Cluster.Reconfigure(ch.target, opts.Timeout); err != nil {
			return fmt.Errorf("bench: reconfig %q: %w", ch.label, err)
		}
		return nil
	}

	if opts.Clients <= 1 {
		// The paper's sequential closed loop.
		for i := 0; i < opts.Requests; i++ {
			if err := maybeReconfig(i); err != nil {
				return nil, err
			}
			if err := doRequest(i); err != nil {
				return nil, err
			}
		}
	} else {
		// Concurrent closed-loop clients share a global request counter;
		// whichever client draws a boundary number performs the reconfig
		// before its request.
		var ctr atomic.Int64
		errCh := make(chan error, opts.Clients)
		var wg sync.WaitGroup
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(ctr.Add(1)) - 1
					if i >= opts.Requests {
						return
					}
					if err := maybeReconfig(i); err != nil {
						errCh <- err
						return
					}
					if err := doRequest(i); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Print writes the Fig. 16 report.
func (r *Fig16Result) Print(w io.Writer, windowSize int) {
	fmt.Fprintf(w, "Fig. 16 — Raft performance under reconfiguration (Go runtime, simulated network)\n")
	fmt.Fprintf(w, "schedule: %v\nelapsed: %s\n\n", r.Schedule, r.Elapsed.Round(time.Millisecond))
	r.Recorder.PrintSeries(w, windowSize)
}
