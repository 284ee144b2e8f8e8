// Package adore_test holds the repository-level benchmark suite: one bench
// per model experiment in the paper's evaluation (see DESIGN.md §4 and
// EXPERIMENTS.md for the mapping), plus ablation benches for the design
// choices DESIGN.md calls out. Fig. 16 (E1) is the canonical benchmark's
// reconfig-fig16 workload (benchmark/).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package adore_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adore/internal/config"
	"adore/internal/core"
	"adore/internal/explore"
	"adore/internal/kvstore"
	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/raft/transport"
	"adore/internal/raftnet"
	"adore/internal/refine"
	"adore/internal/sraft"
	"adore/internal/types"
)

// --- E1b: group-commit throughput ------------------------------------------

// BenchmarkProposeThroughputBatched drives 64 concurrent proposers against
// a single-node raft on a real FileStorage WAL through ProposeAsync — the
// node's one write entry (group commit: whatever accumulated while a write
// was in flight shares the next frame and fsync). fsyncs/op is reported
// from a CountingStorage wrapper.
func BenchmarkProposeThroughputBatched(b *testing.B) {
	fs, err := raft.OpenFileStorage(filepath.Join(b.TempDir(), "wal"))
	if err != nil {
		b.Fatal(err)
	}
	cs := &raft.CountingStorage{Inner: fs}
	h, err := multiraft.Start(multiraft.Options{
		ID:         1,
		Members:    []types.NodeID{1},
		Transport:  transport.HostTransport{Net: transport.NewMemNetwork(0, 0, 1), ID: 1},
		StorageFor: func(raft.GroupID) raft.Storage { return cs },
		OnApply:    func(raft.GroupID, []raft.ApplyMsg) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Stop()
	n := h.Node(0)
	deadline := time.Now().Add(10 * time.Second)
	for n.Snapshot().Role != raft.Leader {
		if !time.Now().Before(deadline) {
			b.Fatal("single node did not elect itself")
		}
		time.Sleep(time.Millisecond)
	}

	const proposers = 64
	base := cs.Syncs()
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < proposers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := []byte("bench-command-payload")
			for {
				if next.Add(1) > int64(b.N) {
					return
				}
				if _, _, err := n.ProposeAsync(cmd).Wait(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(cs.Syncs()-base)/float64(b.N), "fsyncs/op")
}

// --- E2: CADO vs Adore model-checking effort ------------------------------

func benchExplore(b *testing.B, rules core.Rules, depth int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		st := core.NewState(config.RaftSingleNode, types.Range(1, 3), rules)
		res := explore.BFS(st, explore.Options{MaxDepth: depth, MaxStates: 2_000_000})
		if res.Violation != nil {
			b.Fatalf("violation: %v", res.Violation)
		}
		b.ReportMetric(float64(res.States), "states")
		b.ReportMetric(float64(res.Transitions), "transitions")
	}
}

// BenchmarkExploreCADO and BenchmarkExploreAdore reproduce the paper's
// effort comparison (1.3k vs 4.5k lines of proof; here: state spaces and
// checking time at equal bounds).
func BenchmarkExploreCADO(b *testing.B)  { benchExplore(b, core.StaticRules(), 4) }
func BenchmarkExploreAdore(b *testing.B) { benchExplore(b, core.DefaultRules(), 4) }

// BenchmarkExploreAdoreStopTheWorld is an ablation: the §8 stop-the-world
// variant prunes stale branches, shrinking the reachable space.
func BenchmarkExploreAdoreStopTheWorld(b *testing.B) {
	r := core.DefaultRules()
	r.StopTheWorld = true
	benchExplore(b, r, 4)
}

// --- E3: refinement checking ----------------------------------------------

// BenchmarkRefinementCheck measures lockstep SRaft↔Adore simulation with
// logMatch checked at every step (Lemma C.1's executable form).
func BenchmarkRefinementCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := refine.New(config.RaftSingleNode, types.Range(1, 3), core.DefaultRules())
		if _, err := c.Elect(1, types.NewNodeSet(1, 2)); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			if err := c.Invoke(1, types.MethodID(j+1)); err != nil {
				b.Fatal(err)
			}
			if err := c.Commit(1, types.NewNodeSet(1, 2)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(c.Checks), "logMatch-checks")
	}
}

// BenchmarkTraceTransforms measures the Appendix C trace normalization
// (filter → sort → group) on random asynchronous executions (E7).
func BenchmarkTraceTransforms(b *testing.B) {
	mk := func() *raftnet.State {
		return raftnet.New(config.RaftSingleNode, types.Range(1, 4), core.DefaultRules())
	}
	traces := make([][]raftnet.Action, 8)
	for i := range traces {
		traces[i], _ = raftnet.RandomExecution(mk, int64(i), 80)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sraft.Normalize(mk, traces[i%len(traces)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: scheme instantiations --------------------------------------------

// BenchmarkSchemesAssumptions measures the REFLEXIVE/OVERLAP discharge per
// scheme (the paper's per-scheme proof obligations).
func BenchmarkSchemesAssumptions(b *testing.B) {
	for _, s := range config.AllSchemes() {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			depth := 2
			for i := 0; i < b.N; i++ {
				cases, err := config.CheckAssumptions(s, types.Range(1, 3), types.Range(1, 5), depth)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cases), "cases")
			}
		})
	}
}

// BenchmarkSchemesModelOps measures raw model-operation throughput under
// each scheme (pull+invoke+push round).
func BenchmarkSchemesModelOps(b *testing.B) {
	for _, s := range config.AllSchemes() {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			st := core.NewState(s, types.Range(1, 3), core.DefaultRules())
			q := types.NewNodeSet(1, 2)
			if s.Name() == "unanimous" {
				q = types.Range(1, 3)
			}
			if _, err := st.Pull(1, core.PullChoice{Q: q, T: 1}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := st.Invoke(1, types.MethodID(i+1))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := st.Push(1, core.PushChoice{Q: q, CM: m.ID}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5 (Fig. 4): violation search ----------------------------------------

// BenchmarkFindFig4Violation measures how quickly the bounded search
// rediscovers the published reconfiguration bug once R3 is disabled.
func BenchmarkFindFig4Violation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := core.NewState(config.RaftSingleNode, types.Range(1, 4), core.WithoutR3())
		res := explore.BFS(st, explore.Options{
			MaxDepth:     6,
			MaxStates:    500000,
			MinimalTimes: true,
			Actors:       types.NewNodeSet(1, 2),
			Invariants:   explore.BugHuntCheckers(),
		})
		if res.Violation == nil {
			b.Fatal("violation not found")
		}
		b.ReportMetric(float64(res.States), "states-to-bug")
	}
}

// --- E6 (Figs. 3/5): scenario replay --------------------------------------

// BenchmarkScenarios measures the scripted figure replays.
func BenchmarkScenarios(b *testing.B) {
	for _, sc := range explore.Scenarios() {
		sc := sc
		b.Run(sc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: invariant checking and model primitives --------------------------

// BenchmarkInvariantCheckAll measures the full invariant sweep on a
// mid-size tree.
func BenchmarkInvariantCheckAll(b *testing.B) {
	st := core.NewState(config.RaftSingleNode, types.Range(1, 3), core.DefaultRules())
	o := core.NewOracle(5)
	for i := 0; i < 60; i++ {
		nid := types.NodeID(o.Intn(3) + 1)
		switch o.Intn(3) {
		case 0:
			if ch, ok := o.PullChoice(st, nid, 0); ok {
				_, _ = st.Pull(nid, ch)
			}
		case 1:
			_, _ = st.Invoke(nid, types.MethodID(i))
		case 2:
			if ch, ok := o.PushChoice(st, nid, 0); ok {
				_, _ = st.Push(nid, ch)
			}
		}
	}
	checkers := explore.SafetyOnly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range checkers {
			if v := c.Check(st); v != nil {
				b.Fatal(v)
			}
		}
	}
}

// BenchmarkStateKey measures the canonical Merkle key (the explorer's
// deduplication hot path).
func BenchmarkStateKey(b *testing.B) {
	st := core.NewState(config.RaftSingleNode, types.Range(1, 3), core.DefaultRules())
	if _, err := st.Pull(1, core.PullChoice{Q: types.NewNodeSet(1, 2), T: 1}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := st.Invoke(1, types.MethodID(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = st.Key()
	}
}

// BenchmarkNetworkStep measures the raftnet specification's step rate
// (random executions).
func BenchmarkNetworkStep(b *testing.B) {
	mk := func() *raftnet.State {
		return raftnet.New(config.RaftSingleNode, types.Range(1, 4), core.DefaultRules())
	}
	b.ResetTimer()
	steps := 0
	for steps < b.N {
		trace, _ := raftnet.RandomExecution(mk, int64(steps), 200)
		steps += len(trace)
	}
}

// BenchmarkKVPut measures end-to-end replicated put latency on the runtime
// (3 nodes, minimal simulated latency).
func BenchmarkKVPut(b *testing.B) {
	r := kvstore.NewReplicated(cluster.Options{N: 3, Latency: 50 * time.Microsecond, Seed: 9})
	defer r.Stop()
	if _, err := r.Cluster.WaitForLeader(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Put(fmt.Sprintf("k%d", i%128), "v", 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
