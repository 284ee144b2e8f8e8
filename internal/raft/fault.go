package raft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTornWrite is returned by a FaultStorage whose next write was scripted
// to tear: the process "crashed" mid-frame, so the frame never became
// durable. The node fail-stops on it, which is exactly the real-world
// behavior a torn final WAL frame models — the write was in flight when the
// machine died, nothing after it was externalized, and recovery replays the
// longest durable prefix.
var ErrTornWrite = errors.New("faultstorage: torn write (simulated crash during fsync)")

// FaultStorage wraps a Storage with deterministic, scripted fault
// injection for the chaos harness:
//
//   - FailNextSaveState / FailNextSaveEntries make the next matching write
//     return an error without reaching the inner store (a failed fsync);
//   - TearNextWrite makes the next write of either kind return ErrTornWrite
//     without reaching the inner store (a crash mid-frame: the final WAL
//     frame is torn and recovery sees only the durable prefix);
//   - SetStall delays every write (a stalling disk).
//
// Faults never corrupt the inner store: an injected failure means the
// bytes never hit the disk, matching FileStorage's recovery contract
// (replaySegment ignores a torn tail). The node layer turns any storage error
// into an explicit fail-stop, so a wounded node halts loudly instead of
// running on unpersisted state; the harness distinguishes "crashed as
// designed" (Done closed, StorageErr non-nil) from silent corruption.
//
// The zero fault set is transparent: every call passes straight through.
// ClearFaults re-arms nothing and resets the stall, which is what a
// "repair + restart" chaos event wants before reopening the node.
type FaultStorage struct {
	inner Storage

	mu          sync.Mutex
	failState   error         // next SaveState returns this, one-shot; guarded by mu
	failEntries error         // next SaveEntries returns this, one-shot; guarded by mu
	failSnap    error         // next SaveSnapshot returns this, one-shot; guarded by mu
	tearNext    bool          // next write of any kind tears; guarded by mu
	stall       time.Duration // every write sleeps this long first; guarded by mu

	injected atomic.Uint64 // faults actually delivered
}

// NewFaultStorage wraps inner (e.g. a FileStorage for file-backed WALs, or
// a MemStorage for fast in-process runs).
func NewFaultStorage(inner Storage) *FaultStorage {
	return &FaultStorage{inner: inner}
}

// FailNextSaveState arms a one-shot error for the next SaveState call.
func (f *FaultStorage) FailNextSaveState(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failState = err
}

// FailNextSaveEntries arms a one-shot error for the next SaveEntries call.
func (f *FaultStorage) FailNextSaveEntries(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failEntries = err
}

// FailNextSaveSnapshot arms a one-shot error for the next SaveSnapshot
// call (a failed snapshot fsync: the image never became durable, so the
// log prefix must not be dropped — the node fail-stops).
func (f *FaultStorage) FailNextSaveSnapshot(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSnap = err
}

// TearNextWrite arms a one-shot torn write: the next save of any kind
// fails with ErrTornWrite and persists nothing.
func (f *FaultStorage) TearNextWrite() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearNext = true
}

// SetStall makes every subsequent write sleep d before touching the inner
// store (0 clears it).
func (f *FaultStorage) SetStall(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
}

// ClearFaults disarms every pending fault and stall (repair before restart).
func (f *FaultStorage) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failState = nil
	f.failEntries = nil
	f.failSnap = nil
	f.tearNext = false
	f.stall = 0
}

// Injected returns how many faults have actually fired.
func (f *FaultStorage) Injected() uint64 { return f.injected.Load() }

// writeKind selects which one-shot fault a gate call can consume.
type writeKind uint8

const (
	writeState writeKind = iota
	writeEntries
	writeSnapshot
)

// gate applies the stall and consumes at most one armed fault, returning
// the error to inject (nil = pass through).
func (f *FaultStorage) gate(kind writeKind) error {
	f.mu.Lock()
	stall := f.stall
	var err error
	switch {
	case f.tearNext:
		f.tearNext = false
		err = ErrTornWrite
	case kind == writeState && f.failState != nil:
		err = f.failState
		f.failState = nil
	case kind == writeEntries && f.failEntries != nil:
		err = f.failEntries
		f.failEntries = nil
	case kind == writeSnapshot && f.failSnap != nil:
		err = f.failSnap
		f.failSnap = nil
	}
	f.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if err != nil {
		f.injected.Add(1)
	}
	return err
}

// SaveState implements Storage.
func (f *FaultStorage) SaveState(hs HardState) error {
	if err := f.gate(writeState); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	return f.inner.SaveState(hs)
}

// SaveEntries implements Storage.
func (f *FaultStorage) SaveEntries(firstIndex int, entries []LogEntry) error {
	if err := f.gate(writeEntries); err != nil {
		return fmt.Errorf("save entries: %w", err)
	}
	return f.inner.SaveEntries(firstIndex, entries)
}

// SaveSnapshot implements Storage.
func (f *FaultStorage) SaveSnapshot(snap LogSnapshot) error {
	if err := f.gate(writeSnapshot); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	return f.inner.SaveSnapshot(snap)
}

// Load implements Storage: recovery sees exactly what the inner store made
// durable (injected failures never reached it).
func (f *FaultStorage) Load() (HardState, LogSnapshot, []LogEntry, error) {
	return f.inner.Load()
}

// Close implements Storage.
func (f *FaultStorage) Close() error { return f.inner.Close() }
