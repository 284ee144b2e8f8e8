package kvstore

import (
	"reflect"
	"testing"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// TestSession drives the session core by hand, one input at a time, and pins
// every step it answers with. No goroutine, timer or clock: time is the
// input's now. Session 7 over S1..S3 starts its rotation at S2 (7 mod 3 = 1).
func TestSession(t *testing.T) {
	const ms = time.Millisecond
	replicas := []types.NodeID{1, 2, 3}
	put := Command{Op: OpPut, Key: "k", Value: "v"}
	app := Command{Op: OpAppend, Key: "k", Value: "+"}
	get := Command{Op: OpGet, Key: "k"}
	ok := Result{Value: "v", Found: true}

	// Inputs.
	type input func(s *Session, now time.Duration) Step
	write := func(c Command, timeout time.Duration) input {
		return func(s *Session, now time.Duration) Step { return s.Write(now, c, timeout, replicas) }
	}
	read := func(m ReadMode, timeout time.Duration) input {
		return func(s *Session, now time.Duration) Step { return s.Read(now, m, timeout, replicas) }
	}
	answered := func(idx int, err error) input {
		return func(s *Session, now time.Duration) Step { return s.Answered(now, idx, err) }
	}
	applied := func(res Result, mine bool) input {
		return func(s *Session, now time.Duration) Step { return s.Applied(now, res, mine) }
	}
	tick := (*Session).Tick

	// Steps. A sleep's Until is jittered: it is checked to lie in
	// (now, now+backoffMax] instead.
	seq := func(c Command, n uint64) Command { c.Client, c.Seq = 7, n; return c }
	propose := func(id types.NodeID, c Command, until time.Duration) Step {
		return Step{Kind: StepPropose, Node: id, Cmd: c, Until: until}
	}
	await := func(id types.NodeID, c Command, idx int, until time.Duration) Step {
		return Step{Kind: StepAwait, Node: id, Cmd: c, Index: idx, Until: until}
	}
	readAt := func(id types.NodeID, until time.Duration) Step { return Step{Kind: StepRead, Node: id, Until: until} }
	serve := func(id types.NodeID, idx int, until time.Duration) Step {
		return Step{Kind: StepAwait, Node: id, Index: idx, Until: until}
	}
	sleep := Step{Kind: StepSleep}
	done := func(res Result) Step { return Step{Kind: StepDone, Result: res} }
	timedOut := func(maybe bool) Step { return Step{Kind: StepDone, Err: ErrTimeout, Maybe: maybe} }

	type move struct {
		at   time.Duration
		in   input
		want Step
	}
	for _, tc := range []struct {
		name    string
		mutant  bool
		moves   []move
		retries uint64
	}{{
		name: "it follows a hint, and the next request starts at it",
		moves: []move{
			{0, write(put, time.Second), propose(2, seq(put, 1), 300*ms)},
			{ms, answered(0, raft.NotLeaderError{Leader: 3}), propose(3, seq(put, 1), 301*ms)},
			{2 * ms, answered(4, nil), await(3, seq(put, 1), 4, 301*ms)},
			{3 * ms, applied(ok, true), done(ok)},
			{10 * ms, write(put, time.Second), propose(3, seq(put, 2), 310*ms)},
		},
		retries: 1,
	}, {
		name: "a second redirect in a row backs off before following it",
		moves: []move{
			{0, write(put, time.Second), propose(2, seq(put, 1), 300*ms)},
			{ms, answered(0, raft.NotLeaderError{Leader: 3}), propose(3, seq(put, 1), 301*ms)},
			{2 * ms, answered(0, raft.NotLeaderError{Leader: 1}), sleep},
			{50 * ms, tick, propose(1, seq(put, 1), 350*ms)},
		},
		retries: 2,
	}, {
		name: "it rotates when there is no hint",
		moves: []move{
			{0, write(put, time.Second), propose(2, seq(put, 1), 300*ms)},
			{ms, answered(0, raft.NotLeaderError{Leader: types.NoNode}), sleep},
			{ms, tick, sleep},
			{50 * ms, tick, propose(3, seq(put, 1), 350*ms)},
			{51 * ms, answered(0, raft.ErrStopped), sleep},
			{100 * ms, tick, propose(1, seq(put, 1), 400*ms)},
		},
		retries: 2,
	}, {
		name: "it re-proposes with the same seq after ErrNotApplied",
		moves: []move{
			{0, write(app, time.Second), propose(2, seq(app, 1), 300*ms)},
			{ms, answered(4, nil), await(2, seq(app, 1), 4, 300*ms)},
			{2 * ms, applied(Result{}, false), propose(3, seq(app, 1), 302*ms)},
			{3 * ms, answered(6, nil), await(3, seq(app, 1), 6, 302*ms)},
			{4 * ms, applied(ok, true), done(ok)},
		},
	}, {
		name: "it re-proposes with the same seq after an attempt slice",
		moves: []move{
			{0, write(app, time.Second), propose(2, seq(app, 1), 300*ms)},
			{ms, answered(4, nil), await(2, seq(app, 1), 4, 300*ms)},
			{150 * ms, tick, await(2, seq(app, 1), 4, 300*ms)},
			{300 * ms, tick, propose(3, seq(app, 1), 600*ms)},
		},
	}, {
		name:   "the FreshSeqOnRetry mutant re-proposes an Append under a fresh seq",
		mutant: true,
		moves: []move{
			{0, write(app, time.Second), propose(2, seq(app, 1), 300*ms)},
			{ms, answered(4, nil), await(2, seq(app, 1), 4, 300*ms)},
			{300 * ms, tick, propose(3, seq(app, 2), 600*ms)},
			{301 * ms, answered(5, nil), await(3, seq(app, 2), 5, 600*ms)},
			{302 * ms, applied(ok, true), done(ok)},
			{310 * ms, write(put, time.Second), propose(3, seq(put, 3), 610*ms)},
		},
	}, {
		name: "at the deadline a write is Maybe",
		moves: []move{
			{0, write(put, 450*ms), propose(2, seq(put, 1), 300*ms)},
			{ms, answered(4, nil), await(2, seq(put, 1), 4, 300*ms)},
			{300 * ms, tick, propose(3, seq(put, 1), 450*ms)},
			{301 * ms, answered(5, nil), await(3, seq(put, 1), 5, 450*ms)},
			{450 * ms, tick, timedOut(true)},
			{500 * ms, tick, timedOut(true)},
		},
	}, {
		name: "at the deadline a read through the log is dropped",
		moves: []move{
			{0, write(get, 50*ms), propose(2, seq(get, 1), 50*ms)},
			{ms, answered(4, nil), await(2, seq(get, 1), 4, 50*ms)},
			{50 * ms, tick, timedOut(false)},
		},
	}, {
		name: "at the deadline a served read is dropped",
		moves: []move{
			{0, read(ReadModeLeader, 450*ms), readAt(2, 300*ms)},
			{300 * ms, tick, readAt(3, 450*ms)},
			{301 * ms, answered(0, raft.NotLeaderError{Leader: types.NoNode}), sleep},
			{450 * ms, tick, timedOut(false)},
		},
		retries: 1,
	}, {
		name: "it restarts a follower read on abort, away from the leader",
		moves: []move{
			{0, read(ReadModeFollower, time.Second), readAt(2, 300*ms)},
			{ms, answered(0, raft.NotLeaderError{Leader: 1}), readAt(3, 301*ms)},
			{2 * ms, answered(0, raft.NotLeaderError{Leader: 1}), sleep},
			{50 * ms, tick, readAt(2, 350*ms)},
			{51 * ms, answered(7, nil), serve(2, 7, 350*ms)},
			{52 * ms, applied(ok, true), done(ok)},
			{60 * ms, read(ReadModeLeader, time.Second), readAt(1, 360*ms)},
		},
		retries: 2,
	}, {
		name: "ErrLeaderStepdown re-probes with no backoff",
		moves: []move{
			{0, write(put, time.Second), propose(2, seq(put, 1), 300*ms)},
			{ms, answered(0, raft.ErrLeaderStepdown), propose(3, seq(put, 1), 301*ms)},
			{2 * ms, answered(0, raft.ErrLeaderStepdown), propose(1, seq(put, 1), 302*ms)},
			{3 * ms, answered(8, nil), await(1, seq(put, 1), 8, 302*ms)},
			{4 * ms, applied(ok, true), done(ok)},
			{10 * ms, read(ReadModeLeader, time.Second), readAt(1, 310*ms)},
			{11 * ms, answered(0, raft.ErrLeaderStepdown), readAt(2, 311*ms)},
		},
		retries: 3,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(7, 1)
			s.FreshSeqOnRetry = tc.mutant
			for i, m := range tc.moves {
				got := m.in(s, m.at)
				if m.want.Kind == StepSleep && got.Kind == StepSleep {
					if got.Until <= m.at || got.Until > m.at+backoffMax {
						t.Fatalf("move %d: sleep until %v, want in (%v, %v]", i, got.Until, m.at, m.at+backoffMax)
					}
					got.Until = 0
				}
				if !reflect.DeepEqual(got, m.want) {
					t.Fatalf("move %d:\n got %+v\nwant %+v", i, got, m.want)
				}
			}
			if s.Retries() != tc.retries {
				t.Fatalf("retries = %d, want %d", s.Retries(), tc.retries)
			}
		})
	}
}
