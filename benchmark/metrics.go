package main

import (
	"sort"
)

// metricDef names one metric. BENCHMARK.json repeats these lists; a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the store sees, measured with tracing
// off. The list is flat — every metric on every workload, none ever 0 — so
// latency is that of a request of whichever kind the workload issues: puts
// on the three put-only workloads, nine gets to one put on
// mixed-follower-read. The split by kind is per-layer (client.put_*,
// client.get_*). A request that missed its deadline counts as opDeadline in
// the percentiles and not at all in ops_per_s.
//
// A bound belongs to a metric, not to a workload, so each is sized for the
// workload that repeats worst: put-volatile, which is all CPU and follows
// what the guest gets from its host (5-6% between two ten-seed sets a quarter
// of an hour apart, 16% over two hours). The three durable workloads repeat
// within 3% (README, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p95_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics, from the traced pass and the
// isolated probes. A metric that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"client.wake_mean_us", "us", "lower", 0},
	{"client.retries_per_kop", "count", "lower", 0},
	{"client.think_mean_us", "us", "lower", 0},
	{"client.budget_residual_share", "share", "lower", 0},
	{"client.budget_joined_share", "share", "higher", 0},
	{"client.budget_disordered_share", "share", "lower", 0},
	{"client.trace_overhead_share", "share", "lower", 0},
	{"client.put_samples", "count", "higher", 0},
	{"client.put_p50_ms", "ms", "lower", 0},
	{"client.put_p95_ms", "ms", "lower", 0},
	{"client.put_p99_ms", "ms", "lower", 0},
	{"client.put_p999_ms", "ms", "lower", 0},
	{"client.put_tail_pct", "%", "higher", 0},
	{"client.put_tail_ms", "ms", "lower", 0},
	{"client.get_samples", "count", "higher", 0},
	{"client.get_p50_ms", "ms", "lower", 0},
	{"client.get_p95_ms", "ms", "lower", 0},
	{"client.get_p99_ms", "ms", "lower", 0},
	{"client.get_tail_pct", "%", "higher", 0},
	{"client.get_tail_ms", "ms", "lower", 0},

	{"raft.queue_mean_us", "us", "lower", 0},
	{"raft.batch_entries_mean", "count", "higher", 0},
	{"raft.propose_wait_p50_us", "us", "lower", 0},
	{"raft.propose_wait_p95_us", "us", "lower", 0},
	{"raft.commit_wait_p50_us", "us", "lower", 0},
	{"raft.commit_wait_p95_us", "us", "lower", 0},
	{"raft.read_barrier_p50_us", "us", "lower", 0},
	{"raft.read_barrier_p95_us", "us", "lower", 0},
	{"raft.read_apply_wait_p50_us", "us", "lower", 0},
	{"raft.read_apply_wait_p95_us", "us", "lower", 0},
	{"raft.follower_lag_p50_entries", "count", "lower", 0},
	{"raft.reconfig_commit_p50_ms", "ms", "lower", 0},
	{"raft.reconfig_spike_p50_ms", "ms", "lower", 0},
	{"raft.catchup_p50_ms", "ms", "lower", 0},
	{"raft.reconfig_rejected", "count", "lower", 0},
	{"raft.failstops", "count", "lower", 0},
	{"raft.probe_single_node_put_p50_us", "us", "lower", 0},

	{"raftcore.elections", "count", "lower", 0},
	{"raftcore.term_bumps", "count", "lower", 0},
	{"raftcore.read_barriers_per_kread", "count", "lower", 0},
	{"raftcore.reads_coalesced_share", "share", "higher", 0},
	{"raftcore.lease_read_share", "share", "higher", 0},
	{"raftcore.probe_ns_per_entry", "ns", "lower", 0},
	{"raftcore.probe_allocs_per_entry", "count", "lower", 0},
	{"raftcore.probe_msgs_per_commit", "count", "lower", 0},

	{"storage.leader_persist_mean_us", "us", "lower", 0},
	{"storage.follower_persist_mean_us", "us", "lower", 0},
	{"storage.leader_save_p50_us", "us", "lower", 0},
	{"storage.leader_save_p95_us", "us", "lower", 0},
	{"storage.fsyncs_per_op", "count", "lower", 0},
	{"storage.leader_busy_share", "share", "lower", 0},
	{"storage.wal_bytes_per_op", "B", "lower", 0},
	{"storage.save_state_calls", "count", "lower", 0},
	{"storage.device_call_mean_us", "us", "lower", 0},
	{"storage.over_floor_share", "share", "lower", 0},
	{"storage.probe_fsync_us", "us", "lower", 0},
	{"storage.probe_save1_us", "us", "lower", 0},
	{"storage.probe_save16_us", "us", "lower", 0},

	{"transport.leader_to_follower_mean_us", "us", "lower", 0},
	{"transport.ack_back_mean_us", "us", "lower", 0},
	{"transport.read_forward_mean_us", "us", "lower", 0},
	{"transport.read_reply_mean_us", "us", "lower", 0},
	{"transport.msgs_per_op", "count", "lower", 0},
	{"transport.append_msgs_per_op", "count", "lower", 0},
	{"transport.entries_per_append_mean", "count", "higher", 0},
	{"transport.heartbeats_per_s", "1/s", "lower", 0},
	{"transport.payload_bytes_per_op", "B", "lower", 0},
	{"transport.send_call_p95_us", "us", "lower", 0},
	{"transport.dropped", "count", "lower", 0},
	{"transport.shed", "count", "lower", 0},
	{"transport.reconnects", "count", "lower", 0},
	{"transport.probe_oneway_p50_us", "us", "lower", 0},
	{"transport.probe_stream_msgs_per_s", "1/s", "higher", 0},
	{"transport.probe_stream_mb_per_s", "MB/s", "higher", 0},

	{"kvstore.apply_mean_us", "us", "lower", 0},
	{"kvstore.apply_us_per_op", "us", "lower", 0},
	{"kvstore.apply_batch_mean", "count", "higher", 0},
	{"kvstore.get_mean_us", "us", "lower", 0},
	{"kvstore.probe_apply_ns", "ns", "lower", 0},
	{"kvstore.probe_encode_ns", "ns", "lower", 0},

	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_pause_total_ms", "ms", "lower", 0},
	{"proc.rss_peak_mb", "MB", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills a metric map from a value table with the names and units of
// defs; a name the table lacks reads 0.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{values[d.name], d.unit}
	}
	return out
}

// windowOps returns the requests that completed inside [from, to).
func windowOps(ops []opRec, from, to int64) []opRec {
	var out []opRec
	for _, op := range ops {
		if op.t3 >= from && op.t3 < to {
			out = append(out, op)
		}
	}
	return out
}

// latenciesMs splits request latencies by kind. A request that missed its
// deadline counts as the deadline: it missed every latency limit below it,
// so dropping it would make a change that fails requests look faster.
func latenciesMs(ops []opRec) (puts, gets, all []float64) {
	for _, op := range ops {
		ms := float64(op.t3-op.t0) / 1e6
		if op.failed {
			ms = float64(opDeadline) / 1e6
		}
		all = append(all, ms)
		if op.get {
			gets = append(gets, ms)
		} else {
			puts = append(puts, ms)
		}
	}
	return
}

// countOps returns how many requests were attempted and how many missed
// their deadline.
func countOps(ops []opRec) (attempted, failed int) {
	for _, op := range ops {
		if op.failed {
			failed++
		}
	}
	return len(ops), failed
}

// endToEndValues computes the end-to-end metrics of an untraced run.
// measuredSpan is the part of the window the end-to-end metrics cover: all
// of it, except on the reconfiguration workload, where it is cut to whole
// 5-4-3-4-5 cycles. The phases differ in latency (the quorum waits for the
// second fastest of four followers, of three, or the faster of two), so a
// window that stops mid-cycle would weigh them by where it happened to stop.
func measuredSpan(obs *observed) (from, to int64) {
	var starts []int64
	for i, c := range obs.changes {
		if i%len(reconfigCycle) == 0 && c.op >= 0 && c.t >= obs.wStart && c.t < obs.wEnd {
			starts = append(starts, c.t)
		}
	}
	if len(starts) < 2 {
		return obs.wStart, obs.wEnd
	}
	return starts[0], starts[len(starts)-1]
}

func endToEndValues(obs *observed) map[string]float64 {
	from, to := measuredSpan(obs)
	ops := windowOps(obs.ops, from, to)
	_, _, all := latenciesMs(ops)
	attempted, failed := countOps(ops)
	a := summarize(all)
	return map[string]float64{
		"setup_s":   median(obs.setups),
		"ops_per_s": float64(attempted-failed) / (float64(to-from) / 1e9),
		"op_p50_ms": a.P50,
		"op_p95_ms": a.P95,
	}
}

// probeValues are the isolated-probe results of a traced run.
type probeValues map[string]float64

// layerReport is a traced run's analysis: the metric values, the put stage
// budget, and the traced requests with their joined timelines (for the trace
// file).
type layerReport struct {
	values    map[string]float64
	budget    putBudget
	traced    []opRec
	timelines [][8]int64
}

// perLayerValues computes the per-layer metrics of a traced run.
func perLayerValues(obs *observed, probes probeValues) layerReport {
	v := map[string]float64{}
	for k, x := range probes {
		v[k] = x
	}
	ops := windowOps(obs.ops, obs.wStart, obs.wEnd)
	// Only requests that began after recording was switched on have
	// complete records.
	var traced []opRec
	for _, op := range ops {
		if op.t0 >= obs.wStart {
			traced = append(traced, op)
		}
	}
	secs := float64(obs.wEnd-obs.wStart) / 1e9
	nOps, nPuts, nGets, retries := 0, 0, 0, 0
	var proposeWait, commitWait, barrier, applyWait, getServe []float64
	for _, op := range traced {
		retries += op.retries
		if op.failed {
			continue
		}
		nOps++
		if op.get {
			nGets++
			if op.retries == 0 {
				barrier = append(barrier, float64(op.t1-op.t0)/1e3)
				applyWait = append(applyWait, float64(op.t2-op.t1)/1e3)
				getServe = append(getServe, float64(op.t3-op.t2)/1e3)
			}
			continue
		}
		nPuts++
		if op.retries == 0 {
			proposeWait = append(proposeWait, float64(op.t1-op.t0)/1e3)
			commitWait = append(commitWait, float64(op.t2-op.t1)/1e3)
		}
	}
	perOp := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}

	puts, gets, _ := latenciesMs(traced)
	pd, gd := summarize(puts), summarize(gets)
	v["client.put_samples"], v["client.put_p50_ms"], v["client.put_p95_ms"] = float64(pd.N), pd.P50, pd.P95
	v["client.put_p99_ms"], v["client.put_p999_ms"] = pd.P99, pd.P999
	v["client.get_samples"], v["client.get_p50_ms"], v["client.get_p95_ms"], v["client.get_p99_ms"] = float64(gd.N), gd.P50, gd.P95, gd.P99
	// The highest percentile each sample still supports (ten samples beyond
	// it), so a tail is never read off a handful of requests.
	v["client.put_tail_pct"], v["client.put_tail_ms"] = 100*pd.Tail, pd.TailValue
	v["client.get_tail_pct"], v["client.get_tail_ms"] = 100*gd.Tail, gd.TailValue
	v["client.retries_per_kop"] = perOp(float64(retries)*1000, len(traced))
	// What the clients' pauses came to: reply to next call, over consecutive
	// requests of one client (obs.ops holds each client's requests in order).
	var think float64
	pauses := 0
	for i := 1; i < len(traced); i++ {
		if traced[i].client == traced[i-1].client {
			think += float64(traced[i].t0 - traced[i-1].t3)
			pauses++
		}
	}
	v["client.think_mean_us"] = perOp(think/1e3, pauses)
	// Tracing overhead: the traced window's rate against the untraced
	// reference window that ran on the same cluster just before it.
	if ra, rf := countOps(windowOps(obs.ops, obs.refStart, obs.refEnd)); ra > rf {
		refRate := float64(ra-rf) / (float64(obs.refEnd-obs.refStart) / 1e9)
		wa, wf := countOps(ops)
		v["client.trace_overhead_share"] = 1 - float64(wa-wf)/secs/refRate
	}

	pw, cw, rb, aw := summarize(proposeWait), summarize(commitWait), summarize(barrier), summarize(applyWait)
	v["raft.propose_wait_p50_us"], v["raft.propose_wait_p95_us"] = pw.P50, pw.P95
	v["raft.commit_wait_p50_us"], v["raft.commit_wait_p95_us"] = cw.P50, cw.P95
	v["raft.read_barrier_p50_us"], v["raft.read_barrier_p95_us"] = rb.P50, rb.P95
	v["raft.read_apply_wait_p50_us"], v["raft.read_apply_wait_p95_us"] = aw.P50, aw.P95
	v["kvstore.get_mean_us"] = mean(getServe)
	v["raft.follower_lag_p50_entries"] = median(obs.lags)
	v["raft.failstops"] = float64(obs.failstops)
	v["raft.reconfig_rejected"] = float64(obs.rejected)
	v["raft.catchup_p50_ms"] = median(obs.catchups)

	// Window deltas of the cores' own counters, summed over replicas.
	if len(obs.viewsA) == len(obs.viewsB) {
		var el, tb, bar, co, le float64
		for i := range obs.viewsA {
			a, b := obs.viewsA[i], obs.viewsB[i]
			el += float64(b.elections - a.elections)
			tb += float64(b.termBumps - a.termBumps)
			bar += float64(b.readBarriers - a.readBarriers)
			co += float64(b.readsCoalesced - a.readsCoalesced)
			le += float64(b.leaseReads - a.leaseReads)
		}
		v["raftcore.elections"], v["raftcore.term_bumps"] = el, tb
		v["raftcore.read_barriers_per_kread"] = perOp(bar*1000, nGets)
		v["raftcore.reads_coalesced_share"] = perOp(co, nGets)
		v["raftcore.lease_read_share"] = perOp(le, nGets)
	}

	cpu := obs.procB.cpuUs - obs.procA.cpuUs
	v["proc.cpu_us_per_op"] = perOp(cpu, nOps)
	v["proc.allocs_per_op"] = perOp(float64(obs.procB.mallocs-obs.procA.mallocs), nOps)
	v["proc.alloc_bytes_per_op"] = perOp(float64(obs.procB.allocBytes-obs.procA.allocBytes), nOps)
	v["proc.gc_pause_total_ms"] = float64(obs.procB.gcPauseNs-obs.procA.gcPauseNs) / 1e6
	v["proc.rss_peak_mb"] = float64(obs.procB.maxRSSKB) / 1024
	v["transport.dropped"], v["transport.shed"], v["transport.reconnects"] = float64(obs.dropped), float64(obs.shed), float64(obs.reconnects)

	if obs.rec == nil || obs.leader < 0 {
		return layerReport{values: v, traced: traced}
	}
	in := func(t int64) bool { return t >= obs.wStart && t < obs.wEnd }
	lead := obs.rec.reps[obs.leader]

	// storage
	var saveUs []float64
	var busy float64
	saves, entries := 0, 0
	for _, s := range lead.saves.slice() {
		if !in(s.start) {
			continue
		}
		saveUs = append(saveUs, float64(s.end-s.start)/1e3)
		busy += float64(s.end - s.start)
		saves++
		entries += s.n
	}
	sd := summarize(saveUs)
	v["storage.leader_save_p50_us"], v["storage.leader_save_p95_us"] = sd.P50, sd.P95
	v["storage.leader_busy_share"] = busy / float64(obs.wEnd-obs.wStart)
	v["storage.fsyncs_per_op"] = perOp(float64(saves+lead.stateSaves), nPuts)
	v["storage.wal_bytes_per_op"] = perOp(float64(obs.walB-obs.walA), nPuts)
	stateSaves := 0
	for _, rt := range obs.rec.reps {
		stateSaves += rt.stateSaves
	}
	v["storage.save_state_calls"] = float64(stateSaves)
	// What the device itself took under the disk model's floor, all replicas.
	calls := obs.diskB.calls - obs.diskA.calls
	v["storage.device_call_mean_us"] = perOp(float64(obs.diskB.realNs-obs.diskA.realNs)/1e3, int(calls))
	v["storage.over_floor_share"] = perOp(float64(obs.diskB.over-obs.diskA.over), int(calls))

	// transport
	msgs, appends, appendEntries, heartbeats, payload := 0, 0, 0, 0, 0
	batches := map[int]int{} // first index -> entries, one per leader broadcast
	var sendUs []float64
	for r, rt := range obs.rec.reps {
		for _, s := range rt.sends.slice() {
			if !in(s.t) {
				continue
			}
			msgs++
			if r == obs.leader {
				sendUs = append(sendUs, float64(s.dur)/1e3)
			}
			if s.class != sendAppend {
				continue
			}
			if s.n == 0 {
				heartbeats++
				continue
			}
			appends++
			appendEntries += s.n
			payload += s.bytes
			if r == obs.leader && s.n > batches[s.first] {
				batches[s.first] = s.n
			}
		}
	}
	v["transport.msgs_per_op"] = perOp(float64(msgs), nOps)
	v["transport.append_msgs_per_op"] = perOp(float64(appends), nOps)
	v["transport.entries_per_append_mean"] = perOp(float64(appendEntries), appends)
	v["transport.heartbeats_per_s"] = float64(heartbeats) / secs
	v["transport.payload_bytes_per_op"] = perOp(float64(payload), nPuts)
	v["transport.send_call_p95_us"] = summarize(sendUs).P95
	if obs.spec.durable {
		v["raft.batch_entries_mean"] = perOp(float64(entries), saves)
	} else {
		n := 0
		for _, e := range batches {
			n += e
		}
		v["raft.batch_entries_mean"] = perOp(float64(n), len(batches))
	}
	fwd, reply := readHops(obs, traced)
	v["transport.read_forward_mean_us"], v["transport.read_reply_mean_us"] = fwd, reply

	// kvstore (leader's apply stream)
	var applyNs float64
	applied, nBatches := 0, 0
	for _, b := range lead.batches.slice() {
		if in(b.start) {
			applyNs += float64(b.end - b.start)
			applied += b.last - b.first + 1
			nBatches++
		}
	}
	v["kvstore.apply_us_per_op"] = perOp(applyNs/1e3, applied)
	v["kvstore.apply_batch_mean"] = perOp(float64(applied), nBatches)

	// The put stage budget, joined by log index.
	maxIdx := 0
	for _, op := range traced {
		if op.idx > maxIdx {
			maxIdx = op.idx
		}
	}
	its := make([]*indexTimes, len(obs.rec.reps))
	for i, rt := range obs.rec.reps {
		its[i] = rt.index(maxIdx)
	}
	var mc []memberChange
	for _, c := range obs.changes {
		mc = append(mc, memberChange{c.t, c.members})
	}
	b, tls := budgetOf(traced, its, obs.spec.durable, obs.spec.replicas, mc)
	for k, name := range putStages {
		v[stageMetric[name]] = b.StageMeanUs[k]
	}
	v["client.budget_residual_share"] = b.Residual
	v["client.budget_joined_share"] = perOp(float64(b.Joined), b.Total)
	v["client.budget_disordered_share"] = perOp(float64(b.Disordered), b.Total)

	// Reconfiguration: commit time of each change from the leader's apply
	// stream, and the latency spike in the 50 requests after it.
	var commitMs, spikeMs []float64
	byOp := map[uint64]float64{}
	for _, op := range obs.ops {
		if !op.failed {
			byOp[op.seq] = float64(op.t3-op.t0) / 1e6
		}
	}
	for _, c := range obs.changes {
		if !in(c.t) || c.op < 0 {
			continue
		}
		if c.idx < len(its[obs.leader].applyEnd) {
			if done := its[obs.leader].applyEnd[c.idx]; done > 0 {
				commitMs = append(commitMs, float64(done-c.t)/1e6)
			}
		}
		worst := 0.0
		for k := 1; k <= 50; k++ {
			if ms := byOp[uint64(c.op+k)]; ms > worst {
				worst = ms
			}
		}
		spikeMs = append(spikeMs, worst)
	}
	v["raft.reconfig_commit_p50_ms"] = median(commitMs)
	v["raft.reconfig_spike_p50_ms"] = median(spikeMs)
	return layerReport{v, b, traced, tls}
}

// stageMetric maps a put stage to the per-layer metric that reports its
// mean.
var stageMetric = map[string]string{
	"raft.queue":                   "raft.queue_mean_us",
	"storage.leader_persist":       "storage.leader_persist_mean_us",
	"transport.leader_to_follower": "transport.leader_to_follower_mean_us",
	"storage.follower_persist":     "storage.follower_persist_mean_us",
	"transport.ack_back":           "transport.ack_back_mean_us",
	"kvstore.apply":                "kvstore.apply_mean_us",
	"client.wake":                  "client.wake_mean_us",
}

// readHops splits a forwarded read barrier at the two messages visible from
// outside. forward: the follower's MsgReadIndexRequest leaving it until the
// leader's MsgReadIndexResponse leaves the leader (the hop there plus the
// leader's confirmation), paired exactly by (follower, ReadCtx). reply: that
// response leaving the leader until FollowerReadIndex returned to the client
// (the hop back plus the follower's step and wake-up). The client cannot
// learn its ReadCtx, so each request send is paired with a client call on
// the same replica whose call interval contains it; which of several
// overlapping calls is picked does not change the mean.
func readHops(obs *observed, traced []opRec) (forwardUs, replyUs float64) {
	if obs.spec.getShare == 0 {
		return 0, 0
	}
	type key struct {
		from int
		ctx  uint64
	}
	respAt := map[key]int64{}
	for _, s := range obs.rec.reps[obs.leader].sends.slice() {
		if s.class == sendReadResp {
			respAt[key{s.to - 1, s.ctx}] = s.t
		}
	}
	var fwd, reply []float64
	for r, rt := range obs.rec.reps {
		if r == obs.leader {
			continue
		}
		var calls []opRec
		for _, op := range traced {
			if op.get && op.forward && !op.failed && op.retries == 0 && op.replica == r {
				calls = append(calls, op)
			}
		}
		sort.Slice(calls, func(a, b int) bool { return calls[a].t0 < calls[b].t0 })
		next, open := 0, []opRec(nil)
		for _, s := range rt.sends.slice() {
			if s.class != sendReadReq {
				continue
			}
			b, ok := respAt[key{r, s.ctx}]
			if !ok {
				continue
			}
			fwd = append(fwd, float64(b-s.t)/1e3)
			for next < len(calls) && calls[next].t0 <= s.t {
				open = append(open, calls[next])
				next++
			}
			for len(open) > 0 && open[0].t1 < s.t {
				open = open[1:]
			}
			if len(open) > 0 && open[0].t1 >= b {
				reply = append(reply, float64(open[0].t1-b)/1e3)
				open = open[1:]
			}
		}
	}
	return mean(fwd), mean(reply)
}
