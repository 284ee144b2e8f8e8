package bench

// This file measures what ISSUE 9's multi-raft sharding buys: aggregate
// propose throughput that scales with the number of raft groups. Each
// group is an independent consensus pipeline — its own leader, WAL, fsync
// stream, and apply loop — so with the keyspace hash-partitioned across
// groups, the per-group serial bottleneck parallelizes. The sweep runs the
// SAME closed-loop client population against 1, 2, 4, and 8 shards and
// reports the speedup over the single-group baseline.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// ShardsOptions parameterizes the shard-scaling sweep.
type ShardsOptions struct {
	// ShardCounts are the group counts to sweep (default 1, 2, 4, 8).
	ShardCounts []int
	// Nodes is the replica count per group; every node hosts every group
	// (default 3).
	Nodes int
	// Clients is the closed-loop client population, identical at every
	// point — the sweep measures what sharding does for a FIXED offered
	// load, not more clients (default 16).
	Clients int
	// Requests is the total operation count per point (default 3000).
	Requests int
	// Keys bounds the keyspace; keys hash across shards (default 256).
	Keys int
	// Durable backs every (group, node) pair with a file WAL in its own
	// group-%04d subdirectory — the storage layout whose namespacing the
	// multiraft layer guarantees. Real files share the host's one disk, so
	// on single-device machines the sweep measures that disk, not the
	// architecture; see WALLatency for the evidence configuration.
	Durable bool
	// WALLatency, when nonzero (and Durable is off), backs each (group,
	// node) pair with an in-memory WAL whose appends block for this long —
	// the storage row of DESIGN.md's substitution table. It models each
	// group's log on its own device (the multi-raft deployment premise:
	// shards scale because their WAL pipelines are independent), which a
	// single shared benchmark-host disk cannot exhibit: every group's
	// fsync funnels into one device queue there. The serialized section —
	// each group's write lane has one append in flight, exactly as with a
	// real fsync — is the architecture under test; only the device wait is
	// simulated.
	WALLatency time.Duration
	// NetLatency/NetJitter simulate the network; the defaults keep them
	// near zero so the serial per-group pipeline, not request RTT,
	// dominates (a closed loop over a pure-latency network cannot scale
	// with shards: throughput = clients / RTT regardless of groups).
	NetLatency time.Duration
	NetJitter  time.Duration
	// Seed drives all randomness.
	Seed int64
	// Timeout bounds each client request.
	Timeout time.Duration
}

// ShardsDefaults returns the committed-evidence parameters.
func ShardsDefaults() ShardsOptions {
	return ShardsOptions{
		ShardCounts: []int{1, 2, 4, 8},
		Nodes:       3,
		Clients:     16,
		Requests:    3000,
		Keys:        256,
		WALLatency:  150 * time.Microsecond,
		NetLatency:  10 * time.Microsecond,
		Seed:        1,
		Timeout:     30 * time.Second,
	}
}

// ShardsPoint is one sweep point: the same workload against one shard count.
type ShardsPoint struct {
	Shards        int     `json:"shards"`
	Requests      int     `json:"requests"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputOPS float64 `json:"throughput_ops"`
	MeanUS        float64 `json:"mean_us"`
	P50US         float64 `json:"p50_us"`
	P95US         float64 `json:"p95_us"`
	P99US         float64 `json:"p99_us"`
	// Speedup is this point's throughput over the 1-shard baseline's.
	Speedup float64 `json:"speedup"`
}

// ShardsResult is the full sweep.
type ShardsResult struct {
	Nodes        int           `json:"nodes"`
	Clients      int           `json:"clients"`
	Durable      bool          `json:"durable"`
	WALLatencyUS float64       `json:"wal_latency_us"`
	Seed         int64         `json:"seed"`
	Points       []ShardsPoint `json:"points"`
}

// RunShards executes the sweep: for each shard count, start a fresh
// cluster hosting that many groups over one shared transport, drive the
// same closed-loop client population through the hash-partitioned
// keyspace, and measure aggregate throughput.
func RunShards(opts ShardsOptions) (*ShardsResult, error) {
	if len(opts.ShardCounts) == 0 {
		opts = ShardsDefaults()
	}
	res := &ShardsResult{
		Nodes:        opts.Nodes,
		Clients:      opts.Clients,
		Durable:      opts.Durable,
		WALLatencyUS: us(opts.WALLatency),
		Seed:         opts.Seed,
	}
	for _, shards := range opts.ShardCounts {
		p, err := runShardsPoint(shards, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %d shards: %w", shards, err)
		}
		res.Points = append(res.Points, *p)
	}
	if len(res.Points) > 0 && res.Points[0].Shards == 1 && res.Points[0].ThroughputOPS > 0 {
		base := res.Points[0].ThroughputOPS
		for i := range res.Points {
			res.Points[i].Speedup = res.Points[i].ThroughputOPS / base
		}
	}
	return res, nil
}

func runShardsPoint(shards int, opts ShardsOptions) (*ShardsPoint, error) {
	clOpts := cluster.Options{
		N:       opts.Nodes,
		Groups:  shards,
		Latency: opts.NetLatency,
		Jitter:  opts.NetJitter,
		Seed:    opts.Seed,
		// The applied-stream record grows with every command on every
		// (group, node) pair; it exists for the chaos oracles, not for
		// throughput measurement.
		NoApplyRecord: true,
	}
	if opts.Durable {
		dir, err := os.MkdirTemp("", "shards-wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		defer os.RemoveAll(dir)
		clOpts.StorageFor = func(g raft.GroupID, id types.NodeID) raft.Storage {
			root := filepath.Join(dir, fmt.Sprintf("node-%s", id))
			fs, err := raft.OpenFileStorage(multiraft.GroupStorageDir(root, g))
			if err != nil {
				panic(fmt.Sprintf("bench: open wal for %s/g%d: %v", id, g, err))
			}
			return fs
		}
	} else if opts.WALLatency > 0 {
		clOpts.StorageFor = func(raft.GroupID, types.NodeID) raft.Storage {
			return &delayStorage{inner: raft.NewMemStorage(), delay: opts.WALLatency}
		}
	}
	s := kvstore.NewReplicated(clOpts)
	defer s.Stop()
	for g := raft.GroupID(0); g < raft.GroupID(shards); g++ {
		if _, err := s.Cluster.Group(g).WaitForLeader(opts.Timeout); err != nil {
			return nil, err
		}
	}

	rec := NewLatencyRecorder(opts.Requests)
	var ctr atomic.Int64
	errCh := make(chan error, opts.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opts.Clients; c++ {
		cl := s.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(ctr.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				key := fmt.Sprintf("key-%d", i%opts.Keys)
				t0 := time.Now()
				if _, err := cl.Do(kvstore.OpPut, key, fmt.Sprintf("value-%d", i), "", opts.Timeout); err != nil {
					errCh <- fmt.Errorf("request %d: %w", i, err)
					return
				}
				rec.Record(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	sum := rec.Summarize()
	p := &ShardsPoint{
		Shards:    shards,
		Requests:  sum.Count,
		ElapsedMS: float64(elapsed.Nanoseconds()) / 1e6,
		MeanUS:    us(sum.Mean),
		P50US:     us(sum.P50),
		P95US:     us(sum.P95),
		P99US:     us(sum.P99),
	}
	if elapsed > 0 {
		p.ThroughputOPS = float64(sum.Count) / elapsed.Seconds()
	}
	return p, nil
}

// delayStorage is the storage row of the substitution table: an in-memory
// WAL whose append path blocks for a fixed device latency, standing in for
// one dedicated log device per (group, node). The caller (the node's write
// lane) blocks exactly as it would on a real fsync; waits on DIFFERENT
// groups' devices overlap, which is the independence the sweep measures.
type delayStorage struct {
	inner *raft.MemStorage
	delay time.Duration
}

func (d *delayStorage) SaveState(hs raft.HardState) error {
	time.Sleep(d.delay)
	return d.inner.SaveState(hs)
}

func (d *delayStorage) SaveEntries(firstIndex int, entries []raft.LogEntry) error {
	time.Sleep(d.delay)
	return d.inner.SaveEntries(firstIndex, entries)
}

func (d *delayStorage) SaveSnapshot(snap raft.LogSnapshot) error {
	time.Sleep(d.delay)
	return d.inner.SaveSnapshot(snap)
}

func (d *delayStorage) Load() (raft.HardState, raft.LogSnapshot, []raft.LogEntry, error) {
	return d.inner.Load()
}

func (d *delayStorage) Close() error { return d.inner.Close() }

// Print renders the sweep as a table.
func (r *ShardsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "shard scaling — %d clients, %d replicas/group, durable=%v, wal latency %s\n",
		r.Clients, r.Nodes, r.Durable, time.Duration(r.WALLatencyUS*1e3))
	t := &Table{Header: []string{
		"shards", "requests", "elapsed ms", "ops/s", "mean us", "p50 us", "p99 us", "speedup",
	}}
	for _, p := range r.Points {
		t.Add(
			fmt.Sprintf("%d", p.Shards),
			fmt.Sprintf("%d", p.Requests),
			fmt.Sprintf("%.1f", p.ElapsedMS),
			fmt.Sprintf("%.0f", p.ThroughputOPS),
			fmt.Sprintf("%.1f", p.MeanUS),
			fmt.Sprintf("%.1f", p.P50US),
			fmt.Sprintf("%.1f", p.P99US),
			fmt.Sprintf("%.2fx", p.Speedup),
		)
	}
	t.Print(w)
}
