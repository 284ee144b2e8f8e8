package main

import (
	"errors"
	"path/filepath"
	"runtime"
	"time"

	"adore/internal/raft/raftcore"
	"adore/internal/types"
)

// probeCore drives three raftcore.Cores by direct message passing on one
// goroutine — no IO, no clock, no scheduler — so its counts repeat exactly:
// ns, heap allocations and messages per committed 1-entry proposal.
func probeCore(entries int) (nsPerEntry, allocsPerEntry, msgsPerCommit float64, err error) {
	members := []types.NodeID{1, 2, 3}
	cores := make(map[types.NodeID]*raftcore.Core, len(members))
	for _, id := range members {
		jitter := int(id) * 3 // S1 times out first and wins
		cores[id] = raftcore.New(raftcore.Config{
			ID: id, Members: members, ElectionTicks: 10,
			Jitter: func() int { return jitter },
		}, raftcore.HardState{}, raftcore.Snapshot{}, nil)
	}
	msgs := 0
	// pump executes every core's Ready (delivering its messages) until the
	// cluster is quiet.
	pump := func() {
		for busy := true; busy; {
			busy = false
			for _, id := range members {
				rd := cores[id].TakeReady()
				for _, m := range rd.Messages {
					msgs++
					busy = true
					if to, ok := cores[m.To]; ok {
						to.Step(m)
					}
				}
			}
		}
	}
	leader := cores[1]
	for i := 0; i < 100 && leader.Role() != raftcore.Leader; i++ {
		for _, id := range members {
			cores[id].Tick()
		}
		pump()
	}
	if leader.Role() != raftcore.Leader {
		return 0, 0, 0, errors.New("core probe: S1 did not win the election")
	}
	cmd := encodePut("k00000", valueFor(0, 1, 0), 1, 1)
	step := func(n int) error {
		for i := 0; i < n; i++ {
			if _, _, err := leader.Propose(cmd); err != nil {
				return err
			}
			pump()
		}
		return nil
	}
	if err = step(entries / 10); err != nil { // grow the logs' backing arrays first
		return
	}
	var before, after runtime.MemStats
	commit0, msgs0 := leader.CommitIndex(), msgs
	runtime.ReadMemStats(&before)
	t := time.Now()
	if err = step(entries); err != nil {
		return
	}
	elapsed := time.Since(t)
	runtime.ReadMemStats(&after)
	committed := float64(leader.CommitIndex() - commit0)
	if committed == 0 {
		return 0, 0, 0, errors.New("core probe: nothing committed")
	}
	return float64(elapsed) / committed, float64(after.Mallocs-before.Mallocs) / committed,
		float64(msgs-msgs0) / committed, nil
}

// singleNodeSpec is the no-replication floor: a one-replica durable cluster
// and one client.
var singleNodeSpec = workloadSpec{name: "probe-single-node", replicas: 1, durable: true, clients: 1}

// probeSingleNode runs singleNodeSpec for d; the put median in µs.
func probeSingleNode(dir string, seed int64, d time.Duration) (float64, error) {
	obs, err := execute(singleNodeSpec,
		runOpts{seed: seed, window: d, warmup: 200 * time.Millisecond, dir: dir, keys: 256, setups: 1})
	if err != nil {
		return 0, err
	}
	if len(obs.violations) > 0 {
		return 0, errors.New("single-node probe: " + obs.violations[0])
	}
	puts, _, _ := latenciesMs(windowOps(obs.ops, obs.wStart, obs.wEnd))
	return summarize(puts).P50 * 1e3, nil
}

// runProbes runs every isolated probe. They run after the workload's stack
// is stopped, so nothing competes with them.
func runProbes(dir string, seed int64) (probeValues, error) {
	v := probeValues{}
	var err error
	if v["raftcore.probe_ns_per_entry"], v["raftcore.probe_allocs_per_entry"], v["raftcore.probe_msgs_per_commit"], err = probeCore(20000); err != nil {
		return nil, err
	}
	if v["storage.probe_fsync_us"], v["storage.probe_save1_us"], v["storage.probe_save16_us"], err = probeStorage(filepath.Join(dir, "probe-storage")); err != nil {
		return nil, err
	}
	if v["transport.probe_oneway_p50_us"], v["transport.probe_stream_msgs_per_s"], v["transport.probe_stream_mb_per_s"], err = probeTransport(time.Second); err != nil {
		return nil, err
	}
	v["kvstore.probe_apply_ns"], v["kvstore.probe_encode_ns"] = probeKV()
	if v["raft.probe_single_node_put_p50_us"], err = probeSingleNode(dir, seed, time.Second); err != nil {
		return nil, err
	}
	return v, nil
}
