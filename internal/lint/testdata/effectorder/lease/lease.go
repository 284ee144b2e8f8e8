// Package lease is the observation-order fixture for the lease read
// path: on every control-flow path, extending the lease clock for a peer
// must be preceded by observing that peer's quorum ack — an extension
// that skips the observation fabricates the freshness a lease must
// prove, and a leader could serve stale reads past a successor's
// commits. The good paths establish the witness before the gate; the
// mutants knock the check out on at least one path and must each be
// caught by lint-teeth.
package lease

// Msg is one append response from a peer.
type Msg struct {
	From    int
	Seq     uint64
	Success bool
}

// AckWindow validates a response as a current-term quorum ack; Observe
// is the witness event.
type AckWindow interface {
	Observe(m Msg) bool
}

// LeaseClock banks per-peer ack freshness; Extend is the gated event.
type LeaseClock interface {
	Extend(peer int, tick int64)
}

// Leader is the fixture driver.
type Leader struct {
	acks  AckWindow
	lease LeaseClock
	ticks int64
}

// Good observes the ack before extending — clean.
func (l *Leader) Good(m Msg) {
	if !l.acks.Observe(m) {
		return
	}
	l.lease.Extend(m.From, l.ticks)
}

// GoodBothArms extends in both branches of a decision made after the
// observation — clean (the witness dominates both arms).
func (l *Leader) GoodBothArms(m Msg) {
	if !l.acks.Observe(m) {
		return
	}
	if m.Success {
		l.lease.Extend(m.From, l.ticks)
	} else {
		l.lease.Extend(m.From, l.ticks-1)
	}
}

// note delegates the observation; callers inherit its witness.
func (l *Leader) note(m Msg) { l.acks.Observe(m) }

// GoodViaHelper observes through a helper before extending — the
// summary-propagation case. Clean.
func (l *Leader) GoodViaHelper(m Msg) {
	l.note(m)
	l.lease.Extend(m.From, l.ticks)
}

// Unconditional extends before validating the response at all — the
// knocked-out-check mutant.
func (l *Leader) Unconditional(m Msg) {
	l.lease.Extend(m.From, l.ticks) // want "LeaseClock.Extend without a preceding successful AckWindow call"
	l.acks.Observe(m)
}

// OneArm observes on only one branch: the other path reaches the
// extension with nothing observed.
func (l *Leader) OneArm(m Msg, fast bool) {
	if fast {
		l.acks.Observe(m)
	}
	l.lease.Extend(m.From, l.ticks) // want "LeaseClock.Extend without a preceding successful AckWindow call"
}

// AfterLoop observes inside a loop that may run zero times; the
// extension after it is unwitnessed on the skip path.
func (l *Leader) AfterLoop(ms []Msg) {
	for _, m := range ms {
		l.acks.Observe(m)
	}
	l.lease.Extend(0, l.ticks) // want "LeaseClock.Extend without a preceding successful AckWindow call"
}

// Assumes extends on its caller's behalf without observing anything
// itself: the obligation is per-function — a helper cannot assume its
// caller observed.
func (l *Leader) Assumes(peer int) {
	l.lease.Extend(peer, l.ticks) // want "LeaseClock.Extend without a preceding successful AckWindow call"
}

// Deferred defers the observation: it runs at function exit, after the
// extension, not at its syntactic position.
func (l *Leader) Deferred(m Msg) {
	defer l.acks.Observe(m)
	l.lease.Extend(m.From, l.ticks) // want "LeaseClock.Extend without a preceding successful AckWindow call"
}
