package bench

// This file measures what the read path's three tiers buy. The mode grid
// drives the SAME mixed workload (reads dominating, writes paying a WAL
// latency) through each row — leader-served with leases off (every read a
// ReadIndex barrier), leader-served with leases on, follower-served — across
// a closed-loop client sweep, and reports
// per-mode read throughput and latency plus the core's coalescing
// counters (barriers opened vs reads that shared one). The follower
// sweep then scales the replica count with a fixed per-replica
// read-execution cost (see kvstore.ReadServeCost): leader-served reads
// funnel through one replica's serialized lane no matter how many
// replicas exist, while follower-served reads spread across the replica
// set — aggregate read throughput should scale with the follower count.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// ReadsOptions parameterizes the read-path sweeps.
type ReadsOptions struct {
	// Nodes is the cluster size for the mode grid (default 5).
	Nodes int
	// ClientCounts is the closed-loop client sweep for the mode grid
	// (default 4, 16, 32).
	ClientCounts []int
	// Requests is the operation count per point (default 4000).
	Requests int
	// ReadFraction of operations are FastGets; the rest are Puts
	// (default 0.9). Writes matter twice: they are the freshness the
	// barriers must prove, and their broadcasts are the rounds pending
	// read barriers ride.
	ReadFraction float64
	// Keys bounds the keyspace (default 64); it is preloaded so every
	// read finds a value.
	Keys int
	// WALLatency backs every node with an in-memory WAL whose appends
	// block for this long — the same storage substitution the shard
	// sweep uses (default 150µs). Writes pay it; reads must not.
	WALLatency time.Duration
	// NetLatency/NetJitter simulate the network (default 200µs/20µs).
	// The barrier modes pay round trips on this network per confirmation
	// round; lease reads pay none — the gap under measurement.
	NetLatency time.Duration
	NetJitter  time.Duration
	// FollowerNodes is the replica-count sweep for the follower-scaling
	// grid (default 3, 5, 7).
	FollowerNodes []int
	// FollowerClients is the client population for the scaling grid
	// (default 32): enough offered load that the per-replica serve lane,
	// not the client count, is the bottleneck.
	FollowerClients int
	// ServeCost is the per-read execution cost charged on the serving
	// replica's serialized lane in the scaling grid (default 150µs).
	// Like WALLatency, only the wait is simulated; the serialization is
	// the architecture under test.
	ServeCost time.Duration
	// Seed drives all randomness.
	Seed int64
	// Timeout bounds each client request.
	Timeout time.Duration
}

// ReadsDefaults returns the committed-evidence parameters.
func ReadsDefaults() ReadsOptions {
	return ReadsOptions{
		Nodes:           5,
		ClientCounts:    []int{4, 16, 32},
		Requests:        4000,
		ReadFraction:    0.9,
		Keys:            64,
		WALLatency:      150 * time.Microsecond,
		NetLatency:      200 * time.Microsecond,
		NetJitter:       20 * time.Microsecond,
		FollowerNodes:   []int{3, 5, 7},
		FollowerClients: 32,
		ServeCost:       150 * time.Microsecond,
		Seed:            1,
		Timeout:         30 * time.Second,
	}
}

// ReadsPoint is one grid point: one read mode, one cluster, one client
// population, the same mixed workload.
type ReadsPoint struct {
	Mode          string  `json:"mode"`
	Nodes         int     `json:"nodes"`
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	Reads         int     `json:"reads"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	ThroughputOPS float64 `json:"throughput_ops"`
	// ReadThroughputOPS is reads completed per second — the figure the
	// speedup and scaling columns compare.
	ReadThroughputOPS float64 `json:"read_throughput_ops"`
	ReadMeanUS        float64 `json:"read_mean_us"`
	ReadP50US         float64 `json:"read_p50_us"`
	ReadP95US         float64 `json:"read_p95_us"`
	ReadP99US         float64 `json:"read_p99_us"`
	// Core counters summed over the cluster: barriers opened, reads that
	// coalesced into an already-open barrier, reads served from the
	// lease with zero rounds.
	ReadBarriers   uint64 `json:"read_barriers"`
	ReadsCoalesced uint64 `json:"reads_coalesced"`
	LeaseReads     uint64 `json:"lease_reads"`
	// LeaseSpeedup (mode grid, lease rows) is this point's read
	// throughput over the leader-readindex row's at the same client count.
	LeaseSpeedup float64 `json:"lease_speedup,omitempty"`
	// Scaling (follower grid) is this point's read throughput over the
	// same mode's at the smallest replica count.
	Scaling float64 `json:"scaling,omitempty"`
}

// ReadsResult is the full pair of sweeps.
type ReadsResult struct {
	Nodes        int          `json:"nodes"`
	ReadFraction float64      `json:"read_fraction"`
	WALLatencyUS float64      `json:"wal_latency_us"`
	NetLatencyUS float64      `json:"net_latency_us"`
	ServeCostUS  float64      `json:"serve_cost_us"`
	Seed         int64        `json:"seed"`
	Modes        []ReadsPoint `json:"modes"`
	Follower     []ReadsPoint `json:"follower"`
}

// RunReads executes both sweeps: the mode grid over the client counts,
// then the follower-scaling grid over the replica counts.
func RunReads(opts ReadsOptions) (*ReadsResult, error) {
	if opts.Nodes == 0 {
		opts = ReadsDefaults()
	}
	res := &ReadsResult{
		Nodes:        opts.Nodes,
		ReadFraction: opts.ReadFraction,
		WALLatencyUS: us(opts.WALLatency),
		NetLatencyUS: us(opts.NetLatency),
		ServeCostUS:  us(opts.ServeCost),
		Seed:         opts.Seed,
	}
	for _, clients := range opts.ClientCounts {
		base := -1.0
		for _, row := range readRows {
			p, err := runReadsPoint(row, opts.Nodes, clients, 0, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%d clients: %w", row.name, clients, err)
			}
			if row == rowReadIndex {
				base = p.ReadThroughputOPS
			} else if row == rowLease && base > 0 {
				p.LeaseSpeedup = p.ReadThroughputOPS / base
			}
			res.Modes = append(res.Modes, *p)
		}
	}
	for _, row := range []readRow{rowReadIndex, rowFollower} {
		base := -1.0
		for _, nodes := range opts.FollowerNodes {
			p, err := runReadsPoint(row, nodes, opts.FollowerClients, opts.ServeCost, opts)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%d nodes: %w", row.name, nodes, err)
			}
			if base < 0 {
				base = p.ReadThroughputOPS
			}
			if base > 0 {
				p.Scaling = p.ReadThroughputOPS / base
			}
			res.Follower = append(res.Follower, *p)
		}
	}
	return res, nil
}

// readRow is one row of the mode grid: its name in the JSON, the replica
// that serves its reads, and whether its cluster runs with leases off.
type readRow struct {
	name    string
	mode    kvstore.ReadMode
	noLease bool
}

var (
	rowReadIndex = readRow{"leader-readindex", kvstore.ReadModeLeader, true}
	rowLease     = readRow{"leader-lease", kvstore.ReadModeLeader, false}
	rowFollower  = readRow{"follower", kvstore.ReadModeFollower, false}
	readRows     = []readRow{rowReadIndex, rowLease, rowFollower}
)

func runReadsPoint(row readRow, nodes, clients int, serveCost time.Duration, opts ReadsOptions) (*ReadsPoint, error) {
	clOpts := cluster.Options{
		N:             nodes,
		Latency:       opts.NetLatency,
		Jitter:        opts.NetJitter,
		Seed:          opts.Seed,
		NoApplyRecord: true,
		Ablation:      raft.Ablation{DisableLeaseRead: row.noLease},
	}
	if opts.WALLatency > 0 {
		clOpts.StorageFor = func(raft.GroupID, types.NodeID) raft.Storage {
			return &delayStorage{inner: raft.NewMemStorage(), delay: opts.WALLatency}
		}
	}
	r := kvstore.NewReplicated(clOpts)
	r.ReadServeCost = serveCost
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opts.Timeout); err != nil {
		return nil, err
	}
	for k := 0; k < opts.Keys; k++ {
		if err := r.Put(fmt.Sprintf("key-%d", k), "seed", opts.Timeout); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}

	// Every writeEvery-th operation is a Put; the rest are FastGets.
	writeEvery := 0
	if opts.ReadFraction < 1 {
		writeEvery = int(1/(1-opts.ReadFraction) + 0.5)
	}
	rec := NewLatencyRecorder(opts.Requests)
	var ctr, reads atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		cl := r.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(ctr.Add(1)) - 1
				if i >= opts.Requests {
					return
				}
				key := fmt.Sprintf("key-%d", i%opts.Keys)
				if writeEvery > 0 && i%writeEvery == 0 {
					if _, err := cl.Do(kvstore.OpPut, key, fmt.Sprintf("value-%d", i), "", opts.Timeout); err != nil {
						errCh <- fmt.Errorf("put %d: %w", i, err)
						return
					}
					continue
				}
				t0 := time.Now()
				if _, _, err := cl.FastGetMode(key, row.mode, opts.Timeout); err != nil {
					errCh <- fmt.Errorf("read %d (%s): %w", i, row.name, err)
					return
				}
				rec.Record(time.Since(t0))
				reads.Add(1)
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

	p := &ReadsPoint{
		Mode:     row.name,
		Nodes:    nodes,
		Clients:  clients,
		Requests: opts.Requests,
		Reads:    int(reads.Load()),
	}
	for _, n := range r.Cluster.Nodes() {
		c := n.Snapshot().Counters
		p.ReadBarriers += c.ReadBarriers
		p.ReadsCoalesced += c.ReadsCoalesced
		p.LeaseReads += c.LeaseReads
	}
	sum := rec.Summarize()
	p.ElapsedMS = float64(elapsed.Nanoseconds()) / 1e6
	p.ReadMeanUS = us(sum.Mean)
	p.ReadP50US = us(sum.P50)
	p.ReadP95US = us(sum.P95)
	p.ReadP99US = us(sum.P99)
	if elapsed > 0 {
		p.ThroughputOPS = float64(opts.Requests) / elapsed.Seconds()
		p.ReadThroughputOPS = float64(p.Reads) / elapsed.Seconds()
	}
	return p, nil
}

// Print renders both sweeps as tables.
func (r *ReadsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "read modes — %d replicas, %.0f%% reads, wal %s, net %s\n",
		r.Nodes, r.ReadFraction*100, time.Duration(r.WALLatencyUS*1e3), time.Duration(r.NetLatencyUS*1e3))
	t := &Table{Header: []string{
		"mode", "clients", "reads/s", "mean us", "p50 us", "p99 us", "barriers", "coalesced", "lease", "speedup",
	}}
	for _, p := range r.Modes {
		speedup := ""
		if p.LeaseSpeedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.LeaseSpeedup)
		}
		t.Add(
			p.Mode,
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%.0f", p.ReadThroughputOPS),
			fmt.Sprintf("%.1f", p.ReadMeanUS),
			fmt.Sprintf("%.1f", p.ReadP50US),
			fmt.Sprintf("%.1f", p.ReadP99US),
			fmt.Sprintf("%d", p.ReadBarriers),
			fmt.Sprintf("%d", p.ReadsCoalesced),
			fmt.Sprintf("%d", p.LeaseReads),
			speedup,
		)
	}
	t.Print(w)
	if len(r.Follower) == 0 {
		return
	}
	fmt.Fprintf(w, "\nfollower scaling — %d clients, serve cost %s per read per replica\n",
		r.Follower[0].Clients, time.Duration(r.ServeCostUS*1e3))
	t = &Table{Header: []string{
		"mode", "nodes", "reads/s", "mean us", "p99 us", "scaling",
	}}
	for _, p := range r.Follower {
		t.Add(
			p.Mode,
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.0f", p.ReadThroughputOPS),
			fmt.Sprintf("%.1f", p.ReadMeanUS),
			fmt.Sprintf("%.1f", p.ReadP99US),
			fmt.Sprintf("%.2fx", p.Scaling),
		)
	}
	t.Print(w)
}
