package raft

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTornWrite fails the write a FaultFS power cut tears, which keeps a prefix
// of its bytes, and every write after it until Clear.
var ErrTornWrite = errors.New("faultfs: torn write (power cut mid-write)")

// FaultFS wraps an FS with the scripted disk faults of the chaos harness and
// the simulator, all on file writes. FileStorage latches a failed write and
// the node fail-stops on it, so a wounded node halts loudly instead of running
// on unpersisted state.
type FaultFS struct {
	FS

	mu       sync.Mutex
	failNext error         // the next write fails whole with this; guarded by mu
	left     int           // bytes still written before an armed power cut (-1: none); guarded by mu
	cut      bool          // the power is off; guarded by mu
	stall    time.Duration // every write sleeps this long first; guarded by mu

	injected atomic.Uint64 // faults that fired
}

// NewFaultFS wraps inner with no fault armed.
func NewFaultFS(inner FS) *FaultFS { return &FaultFS{FS: inner, left: -1} }

// FailNextWrite makes the next write fail with err, writing nothing.
func (f *FaultFS) FailNextWrite(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext = err
}

// CutAfter cuts the power after n more bytes: the write that crosses n keeps
// its bytes up to n, and it and every later write fail with ErrTornWrite.
func (f *FaultFS) CutAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.left = n
}

// SetStall makes every later write sleep d first (0 lifts it).
func (f *FaultFS) SetStall(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stall = d
}

// Clear disarms every fault and the stall and brings the power back.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failNext, f.left, f.cut, f.stall = nil, -1, false, 0
}

// Injected returns how many faults have fired.
func (f *FaultFS) Injected() uint64 { return f.injected.Load() }

// Create implements FS: the file's writes pass through the faults.
func (f *FaultFS) Create(path string) (File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return faultFile{file, f}, nil
}

type faultFile struct {
	File
	fs *FaultFS
}

// Write writes what the armed faults let through, after the stall.
func (w faultFile) Write(b []byte) (int, error) {
	f := w.fs
	f.mu.Lock()
	stall, n := f.stall, len(b)
	var err error
	switch {
	case f.cut:
		n, err = 0, ErrTornWrite
	case f.failNext != nil:
		n, err, f.failNext = 0, f.failNext, nil
		f.injected.Add(1)
	case f.left >= 0 && n > f.left:
		n, err, f.left, f.cut = f.left, ErrTornWrite, -1, true
		f.injected.Add(1)
	case f.left >= 0:
		f.left -= n
	}
	f.mu.Unlock()
	time.Sleep(stall)
	n, werr := w.File.Write(b[:n])
	if err == nil {
		err = werr
	}
	return n, err
}
