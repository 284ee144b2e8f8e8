package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing is done entirely from outside the program, at its public seams:
// the storage wrapper sees SaveEntries(firstIndex, entries), the transport
// wrapper sees Send(m) with the message's entry range / MatchIndex /
// ReadCtx, the OnApply callback sees ApplyMsg.Index, and the client sees its
// own calls. All four expose log indices, so the records of one request are
// joined by the index raft assigned it. Records stay in memory; the sampled
// span trees are written out after the run.

// Message classes the transport wrapper distinguishes.
const (
	sendAppend = iota
	sendAppendResp
	sendReadReq
	sendReadResp
	sendOther
)

// saveCall is one SaveEntries call on one replica.
type saveCall struct {
	first, n   int
	start, end int64
}

// sendCall is one Transport.Send call on one replica.
type sendCall struct {
	class int
	to    int
	first int    // append: index of the first entry carried
	n     int    // append: entries carried
	match int    // append response: MatchIndex (success only, else 0)
	ctx   uint64 // read forward / reply: ReadCtx
	bytes int    // append: command payload bytes
	t     int64  // call start
	dur   int64  // time inside Send (the caller holds the node mutex)
}

// applyBatch is one OnApply delivery on one replica; done[k] is when entry
// first+k finished applying.
type applyBatch struct {
	first, last int
	start, end  int64
	done        []int64
}

// chunked is an append-only record log that never copies what it holds. A
// plain slice that doubles would, at put-volatile's rate, stall its writer
// for tens of milliseconds per growth — and the transport wrapper's writer
// is the leader holding its node mutex.
type chunked[T any] struct {
	chunks [][]T
}

const chunkLen = 1 << 14

func (c *chunked[T]) add(v T) {
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == chunkLen {
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], v)
}

// slice returns the records in order as one slice (a copy; for analysis
// after the run).
func (c *chunked[T]) slice() []T {
	var out []T
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// replicaTrace holds one replica's records. The wrappers append under mu;
// the analysis reads only after the run has stopped.
type replicaTrace struct {
	mu         sync.Mutex
	saves      chunked[saveCall]
	stateSaves int
	sends      chunked[sendCall]
	batches    chunked[applyBatch]
}

// recorder is the shared trace sink. on gates recording so a run can hold an
// untraced reference slice on the very cluster it then traces.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	reps  []*replicaTrace
}

func newRecorder(replicas int, epoch time.Time) *recorder {
	r := &recorder{epoch: epoch, reps: make([]*replicaTrace, replicas)}
	for i := range r.reps {
		r.reps[i] = &replicaTrace{}
	}
	return r
}

// now is nanoseconds since the recorder's epoch, never 0 (0 means "missing"
// in the per-index tables).
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) + 1 }

func (rt *replicaTrace) addSave(c saveCall) {
	rt.mu.Lock()
	rt.saves.add(c)
	rt.mu.Unlock()
}

func (rt *replicaTrace) addStateSave() {
	rt.mu.Lock()
	rt.stateSaves++
	rt.mu.Unlock()
}

func (rt *replicaTrace) addSend(c sendCall) {
	rt.mu.Lock()
	rt.sends.add(c)
	rt.mu.Unlock()
}

func (rt *replicaTrace) addBatch(b applyBatch) {
	rt.mu.Lock()
	rt.batches.add(b)
	rt.mu.Unlock()
}

// opRec is the client's own record of one request.
type opRec struct {
	get     bool
	client  int
	seq     uint64
	replica int   // replica that served it (the leader for a put)
	idx     int   // put: assigned log index; get: confirmed read index
	t0      int64 // client call start
	t1      int64 // put: ProposeAsync.Wait returned; get: FollowerReadIndex returned
	t2      int64 // local apply cursor passed idx (as seen by the client)
	t3      int64 // request complete
	retries int
	failed  bool
	forward bool   // get: served by a non-leader, so the barrier was forwarded
	hash    uint64 // durable put: hash of the command, for the WAL check
}

// indexTimes are one replica's records re-keyed by log index. 0 = missing.
type indexTimes struct {
	saveStart, saveEnd   []int64 // first SaveEntries call covering the index
	sendFirst            []int64 // first append carrying the index left this replica
	ackSent              []int64 // first successful append response with MatchIndex >= index left this replica
	applyStart, applyEnd []int64 // OnApply batch start; entry applied
}

func (rt *replicaTrace) index(maxIdx int) *indexTimes {
	mk := func() []int64 { return make([]int64, maxIdx+2) }
	it := &indexTimes{mk(), mk(), mk(), mk(), mk(), mk()}
	for _, s := range rt.saves.slice() {
		for i := s.first; i < s.first+s.n && i <= maxIdx; i++ {
			if it.saveStart[i] == 0 {
				it.saveStart[i], it.saveEnd[i] = s.start, s.end
			}
		}
	}
	acked := 0
	for _, s := range rt.sends.slice() {
		switch s.class {
		case sendAppend:
			for i := s.first; i < s.first+s.n && i <= maxIdx; i++ {
				if it.sendFirst[i] == 0 {
					it.sendFirst[i] = s.t
				}
			}
		case sendAppendResp:
			for acked < s.match && acked < maxIdx {
				acked++
				it.ackSent[acked] = s.t
			}
		}
	}
	for _, b := range rt.batches.slice() {
		for i := b.first; i <= b.last && i <= maxIdx; i++ {
			it.applyStart[i], it.applyEnd[i] = b.start, b.done[i-b.first]
		}
	}
	return it
}

// The put stage tree. Stage k spans timeline point k to point k+1, so the
// stage durations of a joined request sum to its latency exactly.
//
//	t0 client call
//	t1 leader SaveEntries start   (volatile: leader's first append send)
//	t2 leader SaveEntries end     (volatile: same point, stage = 0)
//	t3 quorum follower SaveEntries start (volatile: its ack send)
//	t4 quorum follower SaveEntries end   (volatile: same point, stage = 0)
//	t5 leader OnApply batch start
//	t6 leader applied the entry
//	t7 client resumed
var putStages = [7]string{
	"raft.queue",
	"storage.leader_persist",
	"transport.leader_to_follower",
	"storage.follower_persist",
	"transport.ack_back",
	"kvstore.apply",
	"client.wake",
}

// memberChange is a point where the member count changed (reconfiguration).
type memberChange struct {
	t       int64
	members int
}

// membersAt returns the member count in force at t.
func membersAt(initial int, changes []memberChange, t int64) int {
	n := initial
	for _, c := range changes {
		if c.t > t {
			break
		}
		n = c.members
	}
	return n
}

// Why a put did or did not join.
const (
	joinOK         = iota
	joinRetried    // the request retried, so its records span several attempts
	joinDisordered // a point is missing or out of order: the join itself failed
)

// joinPut builds one successful put's timeline from the per-index tables.
// The quorum follower is the one whose persist (or ack) completed the
// majority: with q = members/2+1, the (q-1)-th earliest among the followers.
func joinPut(op opRec, its []*indexTimes, durable bool, members int) (tl [8]int64, why int) {
	if op.retries > 0 {
		return tl, joinRetried
	}
	if op.replica >= len(its) {
		return tl, joinDisordered
	}
	i, L := op.idx, its[op.replica]
	if i <= 0 || i >= len(L.applyStart) {
		return tl, joinDisordered
	}
	tl[0] = op.t0
	if durable {
		tl[1], tl[2] = L.saveStart[i], L.saveEnd[i]
	} else {
		tl[1], tl[2] = L.sendFirst[i], L.sendFirst[i]
	}
	need := members/2 + 1 - 1 // followers needed beside the leader
	if need == 0 {
		tl[3], tl[4] = tl[2], tl[2]
	} else {
		type fe struct{ start, end int64 }
		var fs []fe
		for r, it := range its {
			if r == op.replica {
				continue
			}
			if durable && it.saveEnd[i] != 0 {
				fs = append(fs, fe{it.saveStart[i], it.saveEnd[i]})
			} else if !durable && it.ackSent[i] != 0 {
				fs = append(fs, fe{it.ackSent[i], it.ackSent[i]})
			}
		}
		if len(fs) < need {
			return tl, joinDisordered
		}
		sort.Slice(fs, func(a, b int) bool { return fs[a].end < fs[b].end })
		tl[3], tl[4] = fs[need-1].start, fs[need-1].end
	}
	tl[5], tl[6], tl[7] = L.applyStart[i], L.applyEnd[i], op.t3
	for k := 0; k < 7; k++ {
		if tl[k] == 0 || tl[k+1] < tl[k] {
			return tl, joinDisordered
		}
	}
	return tl, joinOK
}

// putBudget is the stage budget of a set of successful puts.
type putBudget struct {
	Total, Joined, Retried, Disordered int
	StageMeanUs                        [7]float64 // over joined requests; they sum to JoinedMeanUs
	JoinedMeanUs                       float64    // mean latency of joined requests
	AllMeanUs                          float64    // mean latency of every put
	// Residual is the share of all puts' summed latency that the stage tree
	// does not account for: the latency of the puts that did not join. (The
	// stages of a joined put sum to its latency by construction, so the
	// joined set alone could never show a gap.)
	Residual float64
}

// budgetOf joins every successful put and averages the stages.
func budgetOf(ops []opRec, its []*indexTimes, durable bool, initial int, changes []memberChange) (putBudget, [][8]int64) {
	var b putBudget
	var sums [7]float64
	var allSum, joinedSum float64
	tls := make([][8]int64, 0, len(ops))
	for _, op := range ops {
		if op.get || op.failed {
			continue
		}
		b.Total++
		allSum += float64(op.t3 - op.t0)
		tl, why := joinPut(op, its, durable, membersAt(initial, changes, op.t0))
		switch why {
		case joinRetried:
			b.Retried++
		case joinDisordered:
			b.Disordered++
		}
		if why != joinOK {
			tls = append(tls, [8]int64{})
			continue
		}
		tls = append(tls, tl)
		b.Joined++
		joinedSum += float64(tl[7] - tl[0])
		for k := 0; k < 7; k++ {
			sums[k] += float64(tl[k+1] - tl[k])
		}
	}
	if b.Total > 0 {
		b.AllMeanUs = allSum / float64(b.Total) / 1e3
	}
	if b.Joined > 0 {
		for k := range sums {
			b.StageMeanUs[k] = sums[k] / float64(b.Joined) / 1e3
			b.JoinedMeanUs += b.StageMeanUs[k]
		}
	}
	if allSum > 0 {
		b.Residual = (allSum - joinedSum) / allSum
	}
	return b, tls
}

// span is one node of a request's stage tree as written to the trace file.
type span struct {
	ID      string  `json:"id"`     // "<client>/<seq>", shared by the request's spans
	Name    string  `json:"name"`   // stage name, or client.put / client.get for the root
	Parent  string  `json:"parent"` // "" for the root
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Index   int     `json:"index"`
}

// traceSampleEvery thins the span trees written to disk; the stage means use
// every request.
const traceSampleEvery = 32

// writeTrace writes the sampled span trees of one run.
func writeTrace(path string, ops []opRec, tls [][8]int64) error {
	var spans []span
	us := func(t int64) float64 { return float64(t) / 1e3 }
	pi := 0
	for _, op := range ops {
		if op.failed {
			continue
		}
		id := fmt.Sprintf("%d/%d", op.client, op.seq)
		if op.get {
			if op.seq%traceSampleEvery != 0 {
				continue
			}
			spans = append(spans,
				span{id, "client.get", "", us(op.t0), us(op.t3), op.idx},
				span{id, "raft.read_barrier", "client.get", us(op.t0), us(op.t1), op.idx},
				span{id, "raft.read_apply_wait", "client.get", us(op.t1), us(op.t2), op.idx},
				span{id, "kvstore.get", "client.get", us(op.t2), us(op.t3), op.idx})
			continue
		}
		tl := tls[pi]
		pi++
		if tl[0] == 0 || op.seq%traceSampleEvery != 0 {
			continue
		}
		spans = append(spans, span{id, "client.put", "", us(tl[0]), us(tl[7]), op.idx})
		for k, name := range putStages {
			spans = append(spans, span{id, name, "client.put", us(tl[k]), us(tl[k+1]), op.idx})
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
