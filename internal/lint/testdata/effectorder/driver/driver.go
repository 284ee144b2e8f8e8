// Package driver is the effect-order fixture: a miniature staged Ready
// driver — a core that hands out Unstable batches and releases effects on
// Stable, a write lane, a volatile inline path — with the contract-abiding
// paths plus the mutants the pass must catch: Stable before the Save,
// Stable on the write's error path, a persist error merely logged on the
// lane, dropped storage errors, and checked-but-never-halting error
// handling.
package driver

// HardState is the durable term/vote/commit triple.
type HardState struct{ Term, Vote, Commit int }

// Entry is one log entry.
type Entry struct {
	Term int
	Data []byte
}

// Snapshot is a durable state-machine image replacing a log prefix.
type Snapshot struct {
	Index int
	Data  []byte
}

// Unstable is one batch the core wants persisted.
type Unstable struct {
	HardState *HardState
	Snapshot  *Snapshot
	Entries   []Entry
}

// Core is the sans-IO state machine; Stable is the gated event: it releases
// every vote, ack and commit the outstanding batch was backing.
type Core struct{ stable int }

// TakeUnstable hands out the next batch.
func (c *Core) TakeUnstable() (Unstable, bool) { return Unstable{}, false }

// Stable reports the outstanding batch durable.
func (c *Core) Stable() { c.stable++ }

// Storage persists raft state; its methods are the witness events.
type Storage interface {
	SaveState(hs HardState) error
	SaveSnapshot(s Snapshot) error
	SaveEntries(first int, es []Entry) error
}

// Node is the fixture driver.
type Node struct {
	core    *Core
	storage Storage
	stopped bool
	err     error
}

// failStop is the configured fail-stop halt.
func (n *Node) failStop(err error) {
	n.stopped = true
	n.err = err
}

// crash reaches the halt through one more hop.
func (n *Node) crash(err error) { n.failStop(err) }

// persist writes one batch in durability order and passes the first error
// up — clean; callers inherit its witness.
func (n *Node) persist(u Unstable) error {
	if u.HardState != nil {
		if err := n.storage.SaveState(*u.HardState); err != nil {
			return err
		}
	}
	if u.Snapshot != nil {
		if err := n.storage.SaveSnapshot(*u.Snapshot); err != nil {
			return err
		}
	}
	if len(u.Entries) > 0 {
		if err := n.storage.SaveEntries(1, u.Entries); err != nil {
			return err
		}
	}
	return nil
}

// Lane is the write lane: batch after batch, Stable only after that batch's
// write returned nil — clean. (Each iteration is a fresh batch, which is why
// the analysis cuts loop back edges.)
func (n *Node) Lane() {
	for !n.stopped {
		u, ok := n.core.TakeUnstable()
		if !ok {
			return
		}
		err := n.persist(u)
		if err != nil {
			n.failStop(err)
			break
		}
		n.core.Stable()
	}
}

// Inline is the volatile path: with no storage there is nothing to write,
// so the batch is reported stable in the same critical section — clean by
// the obligation's absent-witness exemption.
func (n *Node) Inline() {
	if n.storage == nil {
		if _, ok := n.core.TakeUnstable(); ok {
			n.core.Stable()
		}
	}
}

// InlineElse spells the same test the other way round — clean.
func (n *Node) InlineElse(u Unstable) {
	if n.storage != nil {
		if err := n.persist(u); err != nil {
			n.failStop(err)
			return
		}
	} else {
		n.core.Stable()
		return
	}
	n.core.Stable()
}

// VolatileAssumed takes the exemption on the wrong arm: the storage is
// there and nothing was written to it.
func (n *Node) VolatileAssumed() {
	if n.storage != nil {
		n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	}
}

// VolatileLeaks lets the exemption outlive its branch: past the join the
// durable path arrives with nothing written.
func (n *Node) VolatileLeaks() {
	if n.storage == nil {
		n.stopped = false
	}
	n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// Direct calls the storage itself, success tested with == nil — clean.
func (n *Node) Direct(es []Entry) {
	err := n.storage.SaveEntries(1, es)
	if err == nil {
		n.core.Stable()
	} else {
		n.failStop(err)
	}
}

// StableFirst reports the batch stable and only then writes it: every vote
// and ack it was holding back leaves with no disk behind it — the
// acked⇒durable mutant.
func (n *Node) StableFirst(u Unstable) {
	n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	if err := n.persist(u); err != nil {
		n.failStop(err)
	}
}

// StableOnErrorPath reports Stable from the failed write's own branch.
func (n *Node) StableOnErrorPath(u Unstable) {
	if err := n.persist(u); err != nil {
		n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
		n.failStop(err)
		return
	}
	n.core.Stable()
}

// LoggedOnLane records the write's error and carries on: the failure branch
// falls through to Stable. (persist returned the error, so the discipline
// rule is met there; this is the lane's own obligation.)
func (n *Node) LoggedOnLane(u Unstable) {
	err := n.persist(u)
	if err != nil {
		n.err = err
	}
	n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// StableElse reports Stable from the else of a success test — the failure
// branch spelled the other way round.
func (n *Node) StableElse(es []Entry) {
	err := n.storage.SaveEntries(1, es)
	if err == nil {
		return
	} else {
		n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	}
	n.failStop(err)
}

// OneArm writes on only one branch: the other path reaches Stable with
// nothing written.
func (n *Node) OneArm(u Unstable, dirty bool) {
	if dirty {
		if err := n.persist(u); err != nil {
			n.failStop(err)
			return
		}
	}
	n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// Assumes reports Stable on its caller's behalf: the obligation is
// per-function — a helper cannot assume its caller wrote.
func (n *Node) Assumes() {
	n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// DeferredStable defers the report ahead of the write: a deferred call runs
// at exit on every path, the failed write's included.
func (n *Node) DeferredStable(u Unstable) {
	defer n.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	if err := n.persist(u); err != nil {
		n.failStop(err)
		return
	}
}

// Start launches the lane goroutine before persisting: `go` operands run
// concurrently and are not in-line events. Clean.
func (n *Node) Start(hs HardState) {
	go n.Lane()
	if err := n.storage.SaveState(hs); err != nil {
		n.failStop(err)
		return
	}
}

// TruncateOnFailedImage drops the snapshot persist error: the caller goes
// on to truncate a WAL whose replacement image never landed.
func (n *Node) TruncateOnFailedImage(u Unstable) {
	n.storage.SaveSnapshot(*u.Snapshot) // want "error from Storage.SaveSnapshot is dropped"
}

// Fire never looks at the persist error — dropped.
func (n *Node) Fire(hs HardState) {
	n.storage.SaveState(hs) // want "error from Storage.SaveState is dropped"
}

// Blank discards the persist error explicitly — still dropped.
func (n *Node) Blank(hs HardState) {
	_ = n.storage.SaveState(hs) // want "error from Storage.SaveState is dropped"
}

// Logged checks the error but only records it — the node keeps running on
// unpersisted state.
func (n *Node) Logged(hs HardState) {
	if err := n.storage.SaveState(hs); err != nil { // want "never reaches the fail-stop halt"
		n.err = err
	}
}

// Passthrough propagates the error to its caller — clean.
func (n *Node) Passthrough(hs HardState) error {
	return n.storage.SaveState(hs)
}

// Deep halts through a helper that reaches failStop — clean.
func (n *Node) Deep(hs HardState) {
	if err := n.storage.SaveState(hs); err != nil {
		n.crash(err)
	}
}
