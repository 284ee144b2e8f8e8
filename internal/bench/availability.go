package bench

import (
	"fmt"
	"io"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft/cluster"
	"adore/internal/types"
)

// The paper's future work (§9) names liveness and availability — which "can
// also be compromised by an incorrect reconfiguration scheme" — as the
// natural next targets. This experiment probes them on the executable
// runtime: a client hammers the store while the harness injects a leader
// crash and a reconfiguration, and we measure the unavailability windows
// (the longest stretch with no successful request) around each fault.

// AvailabilityOptions parameterizes the probe.
type AvailabilityOptions struct {
	// Nodes is the cluster size.
	Nodes int
	// Requests per phase (steady, post-crash, post-reconfig).
	PhaseRequests int
	// NetLatency simulates the network.
	NetLatency time.Duration
	// Seed drives all randomness.
	Seed int64
	// Timeout bounds each client request.
	Timeout time.Duration
}

// AvailabilityDefaults returns laptop-scale defaults.
func AvailabilityDefaults() AvailabilityOptions {
	return AvailabilityOptions{
		Nodes:         5,
		PhaseRequests: 300,
		NetLatency:    200 * time.Microsecond,
		Seed:          1,
		Timeout:       30 * time.Second,
	}
}

// Outage describes one fault injection and the observed recovery.
type Outage struct {
	// Fault labels the injection ("leader crash", "reconfiguration").
	Fault string
	// Stall is the longest inter-success gap in the fault's phase.
	Stall time.Duration
	// FirstAfter is the latency of the first request issued after the
	// fault (it absorbs the election/propagation delay).
	FirstAfter time.Duration
}

// AvailabilityResult carries the probe's measurements.
type AvailabilityResult struct {
	Steady   Summary  // latency with no faults
	Outages  []Outage // one per injected fault
	Recorder *LatencyRecorder
}

// RunAvailability executes the probe: a steady phase, a leader-crash phase,
// and a reconfiguration phase, all on one cluster.
func RunAvailability(opts AvailabilityOptions) (*AvailabilityResult, error) {
	if opts.Nodes == 0 {
		opts = AvailabilityDefaults()
	}
	r := kvstore.NewReplicated(cluster.Options{
		N:       opts.Nodes,
		Latency: opts.NetLatency,
		Seed:    opts.Seed,
	})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(opts.Timeout); err != nil {
		return nil, err
	}

	rec := NewLatencyRecorder(3 * opts.PhaseRequests)
	res := &AvailabilityResult{Recorder: rec}

	runPhase := func() (Summary, time.Duration, time.Duration, error) {
		phase := NewLatencyRecorder(opts.PhaseRequests)
		var maxGap, first time.Duration
		last := time.Now()
		for i := 0; i < opts.PhaseRequests; i++ {
			t0 := time.Now()
			if err := r.Put(fmt.Sprintf("a%d", i%32), "v", opts.Timeout); err != nil {
				return Summary{}, 0, 0, err
			}
			d := time.Since(t0)
			phase.Record(d)
			rec.Record(d)
			if gap := time.Since(last); gap > maxGap {
				maxGap = gap
			}
			last = time.Now()
			if i == 0 {
				first = d
			}
		}
		return phase.Summarize(), maxGap, first, nil
	}

	// Phase 1: steady state.
	steady, _, _, err := runPhase()
	if err != nil {
		return nil, fmt.Errorf("bench: steady phase: %w", err)
	}
	res.Steady = steady

	// Phase 2: crash the leader (isolate it — equivalent from the
	// cluster's viewpoint), keep the client running.
	if l := r.Cluster.Leader(); l != nil {
		rec.Annotate("leader crash")
		r.Cluster.Net.Isolate(l.ID())
	}
	_, stall, first, err := runPhase()
	if err != nil {
		return nil, fmt.Errorf("bench: crash phase: %w", err)
	}
	res.Outages = append(res.Outages, Outage{Fault: "leader crash", Stall: stall, FirstAfter: first})
	r.Cluster.Net.Heal()

	// Phase 3: live reconfiguration (remove one follower).
	members := r.Cluster.Leader().Snapshot().Members
	var victim types.NodeID
	for _, id := range members.Slice() {
		if id != r.Cluster.Leader().ID() {
			victim = id
		}
	}
	rec.Annotate(fmt.Sprintf("reconfiguration: remove %s", victim))
	if _, err := r.Cluster.Reconfigure(members.Remove(victim), opts.Timeout); err != nil {
		return nil, fmt.Errorf("bench: reconfigure: %w", err)
	}
	_, stall, first, err = runPhase()
	if err != nil {
		return nil, fmt.Errorf("bench: reconfig phase: %w", err)
	}
	res.Outages = append(res.Outages, Outage{Fault: "reconfiguration", Stall: stall, FirstAfter: first})
	return res, nil
}

// Print writes the availability report.
func (a *AvailabilityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Availability probe (liveness extension, paper §9 future work)\n\n")
	fmt.Fprintf(w, "steady state: mean=%s p99=%s\n", fmtDur(a.Steady.Mean), fmtDur(a.Steady.P99))
	for _, o := range a.Outages {
		fmt.Fprintf(w, "%-16s stall=%s first-request-after=%s\n", o.Fault+":", fmtDur(o.Stall), fmtDur(o.FirstAfter))
	}
}
