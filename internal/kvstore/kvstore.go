// Package kvstore is the distributed key-value store the paper uses as its
// running application example (§2): a replicated map driven through the
// consensus log. Every operation — including reads — goes through the log,
// giving linearizable semantics, and client request IDs make retried
// proposals idempotent.
package kvstore

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"adore/internal/raft"
)

// Op enumerates store operations.
type Op string

const (
	// OpPut sets a key; OpGet reads it; OpDelete removes it; OpCAS
	// performs compare-and-swap; OpAppend appends to the value.
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpDelete Op = "delete"
	OpCAS    Op = "cas"
	OpAppend Op = "append"
)

// Command is the log entry payload (JSON-encoded).
type Command struct {
	Op    Op     `json:"op"`
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
	Old   string `json:"old,omitempty"` // CAS expected value

	// Client and Seq identify the request for idempotency.
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
}

// Encode serializes the command for raft.Propose.
func (c Command) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("kvstore: marshal: %v", err)) // all fields are marshalable
	}
	return b
}

// DecodeCommand parses a log payload.
func DecodeCommand(b []byte) (Command, error) {
	var c Command
	err := json.Unmarshal(b, &c)
	return c, err
}

// Result is the outcome of one applied command.
type Result struct {
	Value   string // Get/CAS: the (previous) value
	Found   bool   // Get/Delete: key existed
	Swapped bool   // CAS: swap performed
}

// Store is one replica's state machine. Feed it every committed entry (in
// order) via Apply; it maintains the map, deduplicates retried requests,
// and resolves local waiters.
type Store struct {
	mu      sync.Mutex
	data    map[string]string // guarded by mu
	lastSeq map[uint64]uint64 // client → highest applied Seq; guarded by mu
	lastRes map[uint64]Result // client → result of that Seq; guarded by mu
	waiters map[int][]waiter  // log index → waiters; guarded by mu
	applied int               // highest applied index; guarded by mu
}

type waiter struct {
	client uint64
	seq    uint64
	ch     chan waitResult
}

type waitResult struct {
	res  Result
	mine bool // the entry at the index was this waiter's command
}

// NewStore creates an empty state machine.
func NewStore() *Store {
	return &Store{
		data:    make(map[string]string),
		lastSeq: make(map[uint64]uint64),
		lastRes: make(map[uint64]Result),
		waiters: make(map[int][]waiter),
	}
}

// Apply consumes one committed raft entry. Non-command entries (no-ops,
// config changes) still resolve waiters at their index as "not mine".
// An EntrySnapshot message replaces the whole state with the image in
// Command — the restore path for crash recovery and leader-installed
// snapshots; the dedup tables ride inside the image, so exactly-once
// semantics survive a snapshot-based rejoin.
func (s *Store) Apply(msg raft.ApplyMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if msg.Kind == raft.EntrySnapshot {
		if msg.Index <= s.applied {
			// Stale restore: a store that outlived its node's restart is
			// already at or past the base, and the image is a prefix of
			// its current state. Rewinding would transiently expose old
			// values to local readers.
			return
		}
		if err := s.restoreLocked(msg.Command); err != nil {
			// The image was committed by consensus; failing to decode it
			// is unrecoverable divergence, not a retryable error.
			panic(fmt.Sprintf("kvstore: snapshot restore at index %d: %v", msg.Index, err))
		}
		s.applied = msg.Index
		// Waiters at indices the snapshot folded away resolve through the
		// restored dedup tables: if the client's request is recorded
		// there, it committed (with that result); otherwise its fate is
		// unknown and the waiter re-proposes.
		for idx, ws := range s.waiters {
			if idx > msg.Index {
				continue
			}
			for _, w := range ws {
				if w.seq != 0 && s.lastSeq[w.client] >= w.seq {
					w.ch <- waitResult{res: s.lastRes[w.client], mine: true}
				} else {
					w.ch <- waitResult{mine: false}
				}
			}
			delete(s.waiters, idx)
		}
		return
	}
	s.applied = msg.Index
	var cmd Command
	isCmd := false
	if msg.Kind == raft.EntryCommand {
		if c, err := DecodeCommand(msg.Command); err == nil {
			cmd = c
			isCmd = true
		}
	}
	var res Result
	if isCmd {
		if s.lastSeq[cmd.Client] >= cmd.Seq && cmd.Seq != 0 {
			res = s.lastRes[cmd.Client] // duplicate: return cached result
		} else {
			res = s.applyCommandLocked(cmd)
			if cmd.Seq != 0 {
				s.lastSeq[cmd.Client] = cmd.Seq
				s.lastRes[cmd.Client] = res
			}
		}
	}
	for _, w := range s.waiters[msg.Index] {
		w.ch <- waitResult{res: res, mine: isCmd && cmd.Client == w.client && cmd.Seq == w.seq}
	}
	delete(s.waiters, msg.Index)
}

func (s *Store) applyCommandLocked(c Command) Result {
	switch c.Op {
	case OpPut:
		s.data[c.Key] = c.Value
		return Result{Value: c.Value, Found: true}
	case OpGet:
		v, ok := s.data[c.Key]
		return Result{Value: v, Found: ok}
	case OpDelete:
		_, ok := s.data[c.Key]
		delete(s.data, c.Key)
		return Result{Found: ok}
	case OpCAS:
		v, ok := s.data[c.Key]
		if ok && v == c.Old {
			s.data[c.Key] = c.Value
			return Result{Value: v, Found: true, Swapped: true}
		}
		return Result{Value: v, Found: ok}
	case OpAppend:
		s.data[c.Key] += c.Value
		return Result{Value: s.data[c.Key], Found: true}
	default:
		return Result{}
	}
}

// wait registers interest in the command applied at index.
func (s *Store) wait(index int, client, seq uint64) chan waitResult {
	ch := make(chan waitResult, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.applied >= index {
		// Already applied: resolve via the dedup table.
		if s.lastSeq[client] >= seq {
			ch <- waitResult{res: s.lastRes[client], mine: true}
		} else {
			ch <- waitResult{mine: false}
		}
		return ch
	}
	s.waiters[index] = append(s.waiters[index], waiter{client: client, seq: seq, ch: ch})
	return ch
}

// LocalGet reads the key from the local replica without going through the
// log (fast but possibly stale).
func (s *Store) LocalGet(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Snapshot returns a copy of the map (diagnostics/tests).
func (s *Store) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// snapshotState is the gob-encoded durable image of a Store.
type snapshotState struct {
	Data    map[string]string
	LastSeq map[uint64]uint64
	LastRes map[uint64]Result
	Applied int
}

// SaveSnapshot serializes the state machine (data, dedup tables, applied
// index) for log compaction or node bootstrap, and reports the applied
// index the image captures. The capture is atomic with respect to Apply,
// so the index and the data always agree. Implements raft.StateMachine.
func (s *Store) SaveSnapshot() ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(snapshotState{
		Data:    s.data,
		LastSeq: s.lastSeq,
		LastRes: s.lastRes,
		Applied: s.applied,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("kvstore: snapshot: %w", err)
	}
	return buf.Bytes(), s.applied, nil
}

// LoadSnapshot replaces the state machine with a serialized image.
func (s *Store) LoadSnapshot(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restoreLocked(b)
}

func (s *Store) restoreLocked(b []byte) error {
	var st snapshotState
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&st); err != nil {
		return fmt.Errorf("kvstore: restore: %w", err)
	}
	s.data = st.Data
	s.lastSeq = st.LastSeq
	s.lastRes = st.LastRes
	s.applied = st.Applied
	if s.data == nil {
		s.data = make(map[string]string)
	}
	if s.lastSeq == nil {
		s.lastSeq = make(map[uint64]uint64)
	}
	if s.lastRes == nil {
		s.lastRes = make(map[uint64]Result)
	}
	return nil
}

// LastApplied returns the highest sequence number this replica has applied
// for the client, with its cached result. Pollers (the deterministic
// simulation's clients) use it to detect that a retried request landed:
// with one outstanding request per client, seq reaching the request's
// number means exactly that request committed, and res is its outcome.
func (s *Store) LastApplied(client uint64) (seq uint64, res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq[client], s.lastRes[client]
}

// AppliedIndex returns the highest log index applied so far.
func (s *Store) AppliedIndex() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// WaitApplied blocks until the apply cursor reaches idx — the
// serve-after-apply half of every read barrier — or the deadline passes,
// and reports whether the cursor got there. It parks on the same per-index
// waiters the write path uses, so it is woken by the Apply that lands idx
// (or the snapshot that folds it), not by polling, and Apply pays nothing
// for readers that are not waiting.
func (s *Store) WaitApplied(idx int, deadline time.Time) bool {
	ch := s.wait(idx, 0, 0)
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return s.AppliedIndex() >= idx
	}
}

// ErrTimeout reports that a request did not commit within its deadline.
// (Leadership loss mid-request is not surfaced: the client retries
// transparently, relying on the dedup table for idempotency.)
var ErrTimeout = errors.New("kvstore: request timed out")
