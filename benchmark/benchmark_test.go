package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuantileAndTail(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i) // descending: summarize must sort
	}
	d := summarize(v)
	if d.N != 1000 || d.P50 != 500.5 || math.Abs(d.P95-950.05) > 1e-9 || math.Abs(d.P99-990.01) > 1e-9 {
		t.Fatalf("summarize: %+v", d)
	}
	// 1000 samples leave 10 beyond p99 and only 1 beyond p99.9.
	if d.Tail != 0.99 || d.TailValue != d.P99 {
		t.Fatalf("tail of 1000 samples: p=%v value=%v", d.Tail, d.TailValue)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{199, 0}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != (c.want != 0) {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", c.n, got, ok, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.99) != 7 {
		t.Error("quantile edge cases")
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(ten); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("quartileSpread = %v", got)
	}
}

// syntheticTrace builds the records of two puts (log indices 5 and 6) that
// the leader S1 persisted in one frame, S2 and S3 persisted separately, and
// the leader applied in one batch. Times are in µs for readability.
func syntheticTrace() ([]opRec, []*replicaTrace) {
	us := func(x int64) int64 { return x * 1000 }
	leader, f2, f3 := &replicaTrace{}, &replicaTrace{}, &replicaTrace{}
	leader.addSave(saveCall{first: 5, n: 2, start: us(100), end: us(400)})
	leader.addSend(sendCall{class: sendAppend, to: 2, first: 5, n: 2, t: us(410)})
	leader.addSend(sendCall{class: sendAppend, to: 3, first: 5, n: 2, t: us(420)})
	// S3 persists first: it completes the quorum, S2 is the straggler.
	f3.addSave(saveCall{first: 5, n: 2, start: us(500), end: us(800)})
	f3.addSend(sendCall{class: sendAppendResp, to: 1, match: 6, t: us(810)})
	f2.addSave(saveCall{first: 5, n: 2, start: us(600), end: us(1500)})
	f2.addSend(sendCall{class: sendAppendResp, to: 1, match: 6, t: us(1510)})
	leader.addBatch(applyBatch{first: 5, last: 6, start: us(900), end: us(960), done: []int64{us(930), us(960)}})
	ops := []opRec{
		{client: 0, seq: 1, idx: 5, t0: us(40), t1: us(450), t2: us(1000), t3: us(1010)},
		{client: 1, seq: 1, idx: 6, t0: us(60), t1: us(450), t2: us(1120), t3: us(1130)},
	}
	return ops, []*replicaTrace{leader, f2, f3}
}

func TestIndexJoinStageMeansSumExactly(t *testing.T) {
	ops, rts := syntheticTrace()
	its := make([]*indexTimes, len(rts))
	for i, rt := range rts {
		its[i] = rt.index(6)
	}
	b, tls := budgetOf(ops, its, true, 3, nil)
	if b.Total != 2 || b.Joined != 2 || len(tls) != 2 {
		t.Fatalf("joined %d of %d", b.Joined, b.Total)
	}
	// queue, leader persist, leader->follower, follower persist, ack back,
	// apply, wake — per request, then averaged.
	want := [7]float64{(60 + 40) / 2.0, 300, 100, 300, 100, (30 + 60) / 2.0, (80 + 170) / 2.0}
	sum := 0.0
	for k := range want {
		if math.Abs(b.StageMeanUs[k]-want[k]) > 1e-9 {
			t.Errorf("stage %s = %v, want %v", putStages[k], b.StageMeanUs[k], want[k])
		}
		sum += b.StageMeanUs[k]
	}
	if sum != b.JoinedMeanUs || math.Abs(b.AllMeanUs-1020) > 1e-9 || math.Abs(b.JoinedMeanUs-b.AllMeanUs) > 1e-9 || b.Residual > 1e-12 {
		t.Errorf("stage means sum to %v, joined mean %v, all mean %v, residual %v", sum, b.JoinedMeanUs, b.AllMeanUs, b.Residual)
	}

	// Volatile: no storage records; the timeline anchors on the leader's
	// first send and the quorum follower's ack, and both storage stages
	// are exactly 0.
	bv, _ := budgetOf(ops, its, false, 3, nil)
	if bv.Joined != 2 || bv.StageMeanUs[1] != 0 || bv.StageMeanUs[3] != 0 || math.Abs(bv.JoinedMeanUs-1020) > 1e-9 {
		t.Errorf("volatile budget: %+v", bv)
	}

	// A request with a retry is left out of the stage means, and its whole
	// latency (1070 of 970+1070 us) is unaccounted put time: the residual is
	// that share, not the (small) difference between two means.
	ops[1].retries = 1
	br, _ := budgetOf(ops, its, true, 3, nil)
	if br.Joined != 1 || br.Total != 2 || br.Retried != 1 || br.Disordered != 0 || math.Abs(br.Residual-1070.0/2040) > 1e-12 {
		t.Errorf("retried request must not join: %+v", br)
	}
	ops[1].retries = 0

	// With five members the quorum needs two followers, so the straggler S2
	// would complete it — after the leader already applied. The records
	// contradict each other; the join must refuse, not report a negative
	// stage, and count the request as disordered, not as retried.
	if _, why := joinPut(ops[0], its, true, 5); why != joinDisordered {
		t.Error("out-of-order timeline joined")
	}
	bd, _ := budgetOf(ops, its, true, 3, []memberChange{{0, 5}})
	if bd.Joined != 0 || bd.Disordered != 2 || bd.Retried != 0 || bd.Residual != 1 {
		t.Errorf("disordered budget: %+v", bd)
	}
	if membersAt(5, []memberChange{{100, 4}, {200, 3}}, 150) != 4 {
		t.Error("membersAt")
	}
}

func passingGate() gateInput {
	store := func() map[string]string {
		return map[string]string{"k00000": valueFor(0, 3, 1), "k00001": valueFor(1, 1, 1)}
	}
	h := func(i int) uint64 { return cmdHash(encodePut("k00000", valueFor(0, uint64(i), 1), 1, uint64(i))) }
	wal := func(n int) []uint64 {
		w := make([]uint64, n)
		for i := range w {
			w[i] = h(i + 1)
		}
		return w
	}
	return gateInput{
		keys:   []string{"k00000", "k00001"},
		acked:  []uint64{3, 1},
		stores: []map[string]string{store(), store(), store()},
		errs:   []string{"", "", ""},
		puts:   []ackedPut{{1, h(1)}, {2, h(2)}, {3, h(3)}},
		wals:   [][]uint64{wal(3), wal(3), wal(2)}, // S3 lags by one: still a majority
	}
}

func TestGateTeeth(t *testing.T) {
	if v := checkGate(passingGate()); len(v) != 0 {
		t.Fatalf("clean input must pass: %v", v)
	}
	cases := map[string]func(*gateInput){
		"stale read": func(in *gateInput) {
			in.stale = append(in.stale, staleRead{"k00000", 3, 2})
		},
		"acked put lost": func(in *gateInput) {
			for _, s := range in.stores {
				s["k00000"] = valueFor(0, 2, 1) // every replica agrees, but version 3 was acked
			}
		},
		"diverges": func(in *gateInput) {
			in.stores[2]["k00001"] = valueFor(1, 2, 1)
		},
		"fail-stopped": func(in *gateInput) {
			in.errs[1] = "raft: storage write failed; node halted: wal append: invalid argument"
		},
		"durable on 1 of 3": func(in *gateInput) {
			in.wals[1] = in.wals[1][:2]
		},
		"durable on": func(in *gateInput) {
			in.wals[0][1], in.wals[1][1] = 7, 7 // index 2 holds someone else's command
		},
	}
	for want, doctor := range cases {
		in := passingGate()
		doctor(&in)
		v := checkGate(in)
		if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), want) {
			t.Errorf("doctored %q not caught: %v", want, v)
		}
	}
}

// TestFailedRequestsCount is the teeth for deadline misses: they must make
// the percentiles worse, not better, and -compare must flag them.
func TestFailedRequestsCount(t *testing.T) {
	ms := func(x int64) int64 { return x * 1e6 }
	var ops []opRec
	for i := 0; i < 100; i++ {
		ops = append(ops, opRec{t0: ms(10), t3: ms(11)})
	}
	obs := &observed{ops: ops, wStart: 1, wEnd: ms(1000), setups: []float64{1}}
	clean := endToEndValues(obs)
	for i := 0; i < 10; i++ { // one request in ten misses its deadline
		obs.ops[i].failed, obs.ops[i].t3 = true, ms(10)+int64(opDeadline)/10 // gave up early: still the full deadline
	}
	failing := endToEndValues(obs)
	if clean["op_p95_ms"] != 1 || failing["op_p95_ms"] != float64(opDeadline)/1e6 {
		t.Errorf("op_p95_ms clean %v, with failures %v", clean["op_p95_ms"], failing["op_p95_ms"])
	}
	if clean["ops_per_s"] <= failing["ops_per_s"] {
		t.Errorf("failed requests counted as completed: %v vs %v", clean["ops_per_s"], failing["ops_per_s"])
	}

	file := func(failed int) resultFile {
		return resultFile{Runs: []record{
			{Workload: "w", result: result{Correct: true, Attempted: 1000, Failed: failed}},
			{Workload: "w", result: result{Correct: true, Attempted: 1000, Failed: 0}},
			{Workload: "w", Trace: 1, result: result{Correct: true, Attempted: 10, Failed: 10}}, // traced: not counted
		}}
	}
	if a, b := failedShare(file(0), "w"), failedShare(file(2), "w"); judgeFailed(a, b) != "ok" || b != 0.001 {
		t.Errorf("0.001 more failures is within the bound: %v -> %v", a, b)
	}
	if a, b := failedShare(file(0), "w"), failedShare(file(3), "w"); judgeFailed(a, b) != "regressed" {
		t.Errorf("0.0015 more failures not flagged: %v -> %v", a, b)
	}
}

func TestMeasuredSpanWholeCycles(t *testing.T) {
	obs := &observed{wStart: 100, wEnd: 1000}
	if from, to := measuredSpan(obs); from != 100 || to != 1000 {
		t.Errorf("no changes: span %d..%d", from, to)
	}
	// A change every 100 from t=50: cycles start at 50 (before the window),
	// 450 and 850; the change at 1050 is the post-run restore.
	for i := 0; i < 10; i++ {
		obs.changes = append(obs.changes, change{op: i, t: int64(50 + 100*i)})
	}
	obs.changes = append(obs.changes, change{op: -1, t: 1050})
	if from, to := measuredSpan(obs); from != 450 || to != 850 {
		t.Errorf("span %d..%d, want the whole cycle 450..850", from, to)
	}
	// One cycle start inside the window is no whole cycle: the window stands.
	obs.wEnd = 800
	if from, to := measuredSpan(obs); from != 100 || to != 800 {
		t.Errorf("span %d..%d, want the window", from, to)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{101, 100, 99, 100, 100}, "lower", "ok"},
		{"slower latency", []float64{120, 121, 119, 120, 122}, "lower", "regressed"},
		{"faster latency", []float64{80, 81, 79, 80, 82}, "lower", "ok"},
		{"lower throughput", []float64{80, 81, 79, 80, 82}, "higher", "regressed"},
		{"too noisy to tell", []float64{80, 140, 100, 60, 120}, "lower", "unresolved"},
	} {
		if v := judge(steady, c.b, c.better, 0.10); v.status != c.want {
			t.Errorf("%s: %s (worse %.3f, spreads %.3f %.3f), want %s", c.name, v.status, v.worse, v.spreadA, v.spreadB, c.want)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step, and checks the manifest against the limits its
// readers enforce.
func TestManifestMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" || man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", man.Paths, man.RunSeconds)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the table", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		m := man.Workloads[i]
		if m.Name != w.name || m.Why != w.why || len(w.why) > 200 || strings.Contains(w.why, "\n") || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: manifest %q/%q, table %q/%q", i, m.Name, m.Why, w.name, w.why)
		}
		seen[w.name] = true
	}
	if len(man.EndToEnd) != len(endToEnd) || len(man.PerLayer) != len(perLayer) || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Fatalf("manifest lists %d+%d metrics, tables %d+%d", len(man.EndToEnd), len(man.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := man.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end_to_end %d: manifest %+v, table %+v", i, m, d)
		}
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s missing")
	}
	for i, d := range perLayer {
		m := man.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: manifest %+v, table %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] || (d.better != "lower" && d.better != "higher") {
			t.Errorf("bad or duplicate metric %+v", d)
		}
		seen[d.name] = true
	}
	for _, name := range putStages {
		if _, ok := stageMetric[name]; !ok {
			t.Errorf("stage %s has no metric", name)
		}
	}
}

// TestSmoke runs every workload for a moment on a small key space — the
// whole path: set-up, load, gate, metrics — and one traced pass.
func TestSmoke(t *testing.T) {
	// As procsFor: a P per replica that may sit in its disk call, for the
	// five stacks that run side by side here. Restored once the parallel
	// subtests are done.
	prev := runtime.GOMAXPROCS(16)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, spec := range workloads {
		spec := spec
		if spec.reconfigEvery > 0 {
			spec.reconfigEvery = 20 // several full cycles in a short window
		}
		t.Run(spec.name, func(t *testing.T) {
			t.Parallel()
			obs, err := execute(spec, runOpts{
				seed: 1, window: 700 * time.Millisecond, warmup: 100 * time.Millisecond,
				dir: t.TempDir(), keys: 256, setups: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(obs.violations) > 0 {
				t.Fatalf("gate: %v", obs.violations)
			}
			if _, failed := countOps(obs.ops); failed > 0 {
				t.Errorf("%d requests missed their deadline", failed)
			}
			for name, v := range endToEndValues(obs) {
				if v <= 0 || math.IsNaN(v) {
					t.Errorf("%s = %v", name, v)
				}
			}
			if spec.reconfigEvery > 0 && len(obs.changes) < 4 {
				t.Errorf("only %d membership changes", len(obs.changes))
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		spec, _ := workloadByName("mixed-follower-read")
		obs, err := execute(spec, runOpts{
			seed: 2, window: 700 * time.Millisecond, warmup: 100 * time.Millisecond, ref: 100 * time.Millisecond,
			trace: true, dir: t.TempDir(), keys: 256, setups: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(obs.violations) > 0 {
			t.Fatalf("gate: %v", obs.violations)
		}
		lr := perLayerValues(obs, nil)
		// The acceptance check: under 5% of put time unaccounted for, which
		// takes both nearly every put joining and none of the join's own
		// making (disordered) left out.
		if b := lr.budget; b.Joined == 0 || b.Residual > 0.05 || b.Disordered*20 > b.Total {
			t.Errorf("put budget: %+v", b)
		}
		for _, name := range []string{"storage.leader_persist_mean_us", "transport.msgs_per_op", "raft.read_barrier_p50_us", "transport.read_forward_mean_us", "kvstore.get_mean_us"} {
			if lr.values[name] <= 0 {
				t.Errorf("%s = %v", name, lr.values[name])
			}
		}
		got := report(perLayer, lr.values)
		if len(got) != len(perLayer) {
			t.Errorf("%d per-layer metrics reported, %d defined", len(got), len(perLayer))
		}
	})
}
