package kvstore

import (
	"errors"
	"time"

	"adore/internal/backoff"
	"adore/internal/raft"
	"adore/internal/types"
)

// Session is one client session's request logic against one shard, with no
// goroutines, timers or clock: the shell starts an operation, carries out each
// Step it is handed, and reports what the addressed replica answered or that
// the step's Until came. Client is the live shell; the chaos simulator's
// clients are the shell on logical ticks. The session owns the sequence number
// (a retry re-proposes the same (client, seq), so the dedup table answers a
// request that committed but lost its reply), the leader hint a redirect
// names, the rotation over the replicas when there is none (a follower read
// skips the hint), and the pacing. One operation at a time: the dedup table
// assumes one outstanding request per client.
type Session struct {
	// FreshSeqOnRetry is a client MUTANT for teeth tests: after an attempt
	// slice an Append or CAS is re-proposed under a fresh sequence number,
	// which the dedup table cannot tell from a new request.
	FreshSeqOnRetry bool

	client  uint64
	seq     uint64
	hint    types.NodeID // the leader as last learned (NoNode: unknown)
	rot     uint64
	bo      *backoff.Backoff
	retries uint64

	write      bool // the operation in flight goes through the log (cmd)
	cmd        Command
	mode       ReadMode
	replicas   []types.NodeID
	deadline   time.Duration
	redirected bool // this attempt followed a redirect without backing off
	step       Step // the last step handed out
}

// Pacing. A refused attempt backs off exponentially from backoffInitial to
// backoffMax with ±50% jitter, capped by the deadline: a fixed 1 ms spin is
// harmless for a brief leader change but burns a core per client through a
// real outage. Progress — an accepted attempt, or a leader's explicit
// ErrLeaderStepdown — resets the backoff. Each session draws from its own
// seeded jitter stream, so clients do not re-probe in lockstep after a
// step-down. attemptSlice bounds one wait on a replica: a deposed leader
// never commits our index (or confirms our read), so wait briefly and
// re-probe.
const (
	backoffInitial = time.Millisecond
	backoffMax     = 40 * time.Millisecond
	attemptSlice   = 300 * time.Millisecond
)

// StepKind says what a Step asks of its shell.
type StepKind uint8

// The shell reports a step's outcome through Answered or Applied, or, once
// Until comes first, through Tick.
const (
	StepSleep   StepKind = iota // nothing to do
	StepPropose                 // propose Cmd at Node: Answered
	StepRead                    // ask Node for a read index: Answered
	// StepAwait: once Node has applied through Index, Applied with whether
	// Cmd applied (Store.Outcome), or for a read with the key's value there.
	StepAwait
	StepDone // over: Result, or Err with Maybe set if a write may yet apply
)

// Step is one thing a Session asks of its shell.
type Step struct {
	Kind   StepKind
	Node   types.NodeID
	Cmd    Command
	Index  int
	Until  time.Duration
	Result Result
	Err    error
	Maybe  bool
}

// NewSession starts client's session with its own jitter stream.
func NewSession(client uint64, seed int64) *Session {
	return &Session{client: client, rot: client, bo: backoff.New(backoffInitial, backoffMax, seed)}
}

// Retries counts the attempts a replica refused, over the session's life.
func (s *Session) Retries() uint64 { return s.retries }

// Write starts cmd through the log under the session's next sequence number,
// against replicas, for at most timeout.
func (s *Session) Write(now time.Duration, cmd Command, timeout time.Duration, replicas []types.NodeID) Step {
	s.seq++
	cmd.Client, cmd.Seq = s.client, s.seq
	s.write, s.cmd = true, cmd
	return s.start(now, timeout, replicas)
}

// Read starts a linearizable read served where mode says.
func (s *Session) Read(now time.Duration, mode ReadMode, timeout time.Duration, replicas []types.NodeID) Step {
	s.write, s.mode, s.cmd = false, mode, Command{}
	return s.start(now, timeout, replicas)
}

func (s *Session) start(now, timeout time.Duration, replicas []types.NodeID) Step {
	s.replicas, s.deadline, s.redirected = replicas, now+timeout, false
	s.bo.Reset()
	return s.attempt(now)
}

// Answered reports the propose or read step's answer: the index the entry
// went in at or the read is served at, or the replica's refusal.
func (s *Session) Answered(now time.Duration, idx int, err error) Step {
	if err != nil {
		return s.refused(now, err)
	}
	s.redirected = false
	s.bo.Reset()
	if s.write {
		s.hint = s.step.Node // it took the entry: it leads
	}
	return s.emit(Step{Kind: StepAwait, Node: s.step.Node, Cmd: s.cmd, Index: idx, Until: s.step.Until})
}

// Applied reports what the awaited replica applied: whether the entry at the
// index was this request (mine) with its Result, or the value a read served.
func (s *Session) Applied(now time.Duration, res Result, mine bool) Step {
	if mine {
		return s.done(res, nil)
	}
	// Another entry took the index (leadership changed): re-probe at once
	// under the same sequence number.
	s.hint = types.NoNode
	s.bo.Reset()
	return s.attempt(now)
}

// Tick reports the time. Once the last step's Until has come, a backoff is
// over, or a wait on a replica ran out its attempt slice and the session
// re-probes at once; before that Tick returns the last step again.
func (s *Session) Tick(now time.Duration) Step {
	if s.step.Kind == StepDone || now < s.step.Until {
		return s.step
	}
	if s.step.Kind != StepSleep {
		s.hint = types.NoNode
		s.bo.Reset()
		if s.FreshSeqOnRetry && s.write && (s.cmd.Op == OpAppend || s.cmd.Op == OpCAS) {
			s.seq++
			s.cmd.Seq = s.seq
		}
	}
	return s.attempt(now)
}

// attempt addresses the hinted leader, or else the next replica in the
// rotation; a follower read takes the next one that is not the hint.
func (s *Session) attempt(now time.Duration) Step {
	if now >= s.deadline {
		return s.done(Result{}, ErrTimeout)
	}
	id := s.hint
	if id == types.NoNode || (!s.write && s.mode == ReadModeFollower) {
		id = s.rotate()
	}
	if id == types.NoNode {
		return s.sleep(now)
	}
	st := Step{Kind: StepRead, Node: id, Until: min(now+attemptSlice, s.deadline)}
	if s.write {
		st.Kind, st.Cmd = StepPropose, s.cmd
	}
	return s.emit(st)
}

// rotate returns the next replica other than the hint, or the hint itself
// (NoNode when unknown) when no other replica exists.
func (s *Session) rotate() types.NodeID {
	for range s.replicas {
		s.rot++
		if id := s.replicas[(s.rot-1)%uint64(len(s.replicas))]; id != s.hint {
			return id
		}
	}
	return s.hint
}

// refused handles a refused attempt. A step-down means the leader gave up
// leadership and a successor is likely up: re-probe at once. A redirect to
// another replica is followed at once, but not twice in a row, so stale
// hints pointing at each other cannot spin. Anything else backs off.
func (s *Session) refused(now time.Duration, err error) Step {
	s.retries++
	if errors.Is(err, raft.ErrLeaderStepdown) {
		s.hint = types.NoNode
		s.bo.Reset()
		return s.attempt(now)
	}
	if s.hint = raft.LeaderHint(err); s.hint == s.step.Node {
		s.hint = types.NoNode
	}
	if s.hint != types.NoNode && !s.redirected {
		s.redirected = true
		return s.attempt(now)
	}
	return s.sleep(now)
}

func (s *Session) sleep(now time.Duration) Step {
	s.redirected = false
	return s.emit(Step{Kind: StepSleep, Until: min(now+s.bo.Delay(), s.deadline)})
}

func (s *Session) done(res Result, err error) Step {
	return s.emit(Step{Kind: StepDone, Result: res, Err: err, Maybe: err != nil && s.write && s.cmd.Op != OpGet})
}

func (s *Session) emit(st Step) Step {
	s.step = st
	return st
}
