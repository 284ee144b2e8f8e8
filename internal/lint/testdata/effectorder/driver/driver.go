// Package driver is the effect-order fixture: a miniature staged Ready
// driver — a core that hands out Unstable batches and releases effects on
// Stable, a Driver that lands them, a volatile inline arm, and a shell
// around it — with the contract-abiding paths plus the mutants the pass must
// catch: Stable before the Save, Stable on the write's error path, a persist
// error merely logged, Stable past a success-only test, a second executor
// outside the Driver, dropped storage errors, and checked-but-never-halting
// error handling.
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

// Driver is the fixture's one executor: the only type whose methods may say
// Stable.
type Driver struct {
	core    *Core
	storage Storage
	stopped bool
	err     error
}

// failStop is the configured fail-stop halt.
func (d *Driver) failStop(err error) {
	d.stopped = true
	d.err = err
}

// crash reaches the halt through one more hop.
func (d *Driver) crash(err error) { d.failStop(err) }

// persist writes one batch in durability order and passes the first error
// up — clean; callers inherit its witness.
func (d *Driver) persist(u Unstable) error {
	if u.HardState != nil {
		if err := d.storage.SaveState(*u.HardState); err != nil {
			return err
		}
	}
	if u.Snapshot != nil {
		if err := d.storage.SaveSnapshot(*u.Snapshot); err != nil {
			return err
		}
	}
	if len(u.Entries) > 0 {
		if err := d.storage.SaveEntries(1, u.Entries); err != nil {
			return err
		}
	}
	return nil
}

// Land lands batch after batch, Stable only after that batch's write
// returned nil — clean. (Each iteration is a fresh batch, which is why the
// analysis cuts loop back edges.)
func (d *Driver) Land() {
	for !d.stopped {
		u, ok := d.core.TakeUnstable()
		if !ok {
			return
		}
		err := d.persist(u)
		if err != nil {
			d.failStop(err)
			break
		}
		d.core.Stable()
	}
}

// Inline is the volatile arm: with no storage there is nothing to write,
// so the batch is reported stable at once — clean by the obligation's
// absent-witness exemption.
func (d *Driver) Inline() {
	if d.storage == nil {
		if _, ok := d.core.TakeUnstable(); ok {
			d.core.Stable()
		}
	}
}

// InlineElse spells the same test the other way round — clean.
func (d *Driver) InlineElse(u Unstable) {
	if d.storage != nil {
		if err := d.persist(u); err != nil {
			d.failStop(err)
			return
		}
	} else {
		d.core.Stable()
		return
	}
	d.core.Stable()
}

// OneStable is the volatile arm and the durable landing sharing one Stable:
// the path that skips the write is the one without a storage — clean.
func (d *Driver) OneStable(u Unstable) {
	var err error
	if d.storage != nil {
		err = d.persist(u)
	}
	if err != nil {
		d.failStop(err)
		return
	}
	d.core.Stable()
}

// VolatileAssumed takes the exemption on the wrong arm: the storage is
// there and nothing was written to it.
func (d *Driver) VolatileAssumed() {
	if d.storage != nil {
		d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	}
}

// VolatileLeaks lets the exemption outlive its branch: past the join the
// durable path arrives with nothing written.
func (d *Driver) VolatileLeaks() {
	if d.storage == nil {
		d.stopped = false
	}
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// Direct calls the storage itself, success tested with == nil — clean.
func (d *Driver) Direct(es []Entry) {
	err := d.storage.SaveEntries(1, es)
	if err == nil {
		d.core.Stable()
	} else {
		d.failStop(err)
	}
}

// StableFirst reports the batch stable and only then writes it: every vote
// and ack it was holding back leaves with no disk behind it — the
// acked⇒durable mutant.
func (d *Driver) StableFirst(u Unstable) {
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	if err := d.persist(u); err != nil {
		d.failStop(err)
	}
}

// StableOnErrorPath reports Stable from the failed write's own branch.
func (d *Driver) StableOnErrorPath(u Unstable) {
	if err := d.persist(u); err != nil {
		d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
		d.failStop(err)
		return
	}
	d.core.Stable()
}

// LoggedOnLane records the write's error and carries on: the failure branch
// falls through to Stable. (persist returned the error, so the discipline
// rule is met there; this is the landing's own obligation.)
func (d *Driver) LoggedOnLane(u Unstable) {
	err := d.persist(u)
	if err != nil {
		d.err = err
	}
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// SuccessOnly tests for success and falls out of the test either way: the
// path that skips its body is the failed write's.
func (d *Driver) SuccessOnly(u Unstable) {
	err := d.persist(u)
	if err == nil {
		d.stopped = false
	}
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// StableElse reports Stable from the else of a success test — the failure
// branch spelled the other way round.
func (d *Driver) StableElse(es []Entry) {
	err := d.storage.SaveEntries(1, es)
	if err == nil {
		return
	} else {
		d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	}
	d.failStop(err)
}

// OneArm writes on only one branch: the other path reaches Stable with
// nothing written.
func (d *Driver) OneArm(u Unstable, dirty bool) {
	if dirty {
		if err := d.persist(u); err != nil {
			d.failStop(err)
			return
		}
	}
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// Assumes reports Stable on its caller's behalf: the obligation is
// per-function — a helper cannot assume its caller wrote.
func (d *Driver) Assumes() {
	d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
}

// DeferredStable defers the report ahead of the write: a deferred call runs
// at exit on every path, the failed write's included.
func (d *Driver) DeferredStable(u Unstable) {
	defer d.core.Stable() // want "Core.Stable without a preceding successful Storage call"
	if err := d.persist(u); err != nil {
		d.failStop(err)
		return
	}
}

// Start launches the landing goroutine before persisting: `go` operands run
// concurrently and are not in-line events. Clean.
func (d *Driver) Start(hs HardState) {
	go d.Land()
	if err := d.storage.SaveState(hs); err != nil {
		d.failStop(err)
		return
	}
}

// TruncateOnFailedImage drops the snapshot persist error: the caller goes
// on to truncate a WAL whose replacement image never landed.
func (d *Driver) TruncateOnFailedImage(u Unstable) {
	d.storage.SaveSnapshot(*u.Snapshot) // want "error from Storage.SaveSnapshot is dropped"
}

// Fire never looks at the persist error — dropped.
func (d *Driver) Fire(hs HardState) {
	d.storage.SaveState(hs) // want "error from Storage.SaveState is dropped"
}

// Blank discards the persist error explicitly — still dropped.
func (d *Driver) Blank(hs HardState) {
	_ = d.storage.SaveState(hs) // want "error from Storage.SaveState is dropped"
}

// Logged checks the error but only records it — the node keeps running on
// unpersisted state.
func (d *Driver) Logged(hs HardState) {
	if err := d.storage.SaveState(hs); err != nil { // want "never reaches the fail-stop halt"
		d.err = err
	}
}

// Passthrough propagates the error to its caller — clean.
func (d *Driver) Passthrough(hs HardState) error {
	return d.storage.SaveState(hs)
}

// Deep halts through a helper that reaches failStop — clean.
func (d *Driver) Deep(hs HardState) {
	if err := d.storage.SaveState(hs); err != nil {
		d.crash(err)
	}
}

// Shell is a runtime around the Driver: it feeds the core and calls the
// driver, and says nothing to the core's Ready contract itself.
type Shell struct {
	d *Driver
}

// Step hands the work to the driver — clean.
func (s *Shell) Step() { s.d.Land() }

// SecondExecutor lands a batch itself, in the right order and with the
// error routed to the halt: still a second executor, whose ordering is
// nobody's obligation.
func (s *Shell) SecondExecutor(u Unstable) {
	if err := s.d.persist(u); err != nil {
		s.d.failStop(err)
		return
	}
	s.d.core.Stable() // want "Core.Stable outside Driver"
}
