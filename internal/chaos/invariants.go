package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"adore/internal/linear"
	"adore/internal/raft"
	"adore/internal/types"
)

// maxViolationDetail caps how many instances of one violation family a
// report carries (a genuinely broken run can produce hundreds).
const maxViolationDetail = 8

// monitor samples every node's status throughout the run and checks the
// paper's leader-election oracles online:
//
//   - election safety: at most one leader per term, globally — across
//     crashes and restarts (a restarted node must win a fresh election at a
//     higher term before leading again, so one term never has two leaders
//     unless quorum intersection was broken);
//   - term monotonicity: one node incarnation's term never decreases;
//   - commit monotonicity: one incarnation's commit index never decreases.
//
// Each sample is one Env.Observe call, one consistent view of the node. The
// simulator samples once a tick from its run loop; a live run samples from a
// goroutine of its own (startSampling), so a nemesis action that blocks the
// run loop never opens a gap in the oracles. The sim-only oracles file their
// violations here too (flag).
type monitor struct {
	env Env

	mu         sync.Mutex
	leaders    map[types.Time]types.NodeID // term → leader seen; guarded by mu
	last       map[incKey]Sample           // last sample per incarnation; guarded by mu
	violations map[string]bool             // deduplicated; guarded by mu
}

// incKey identifies one incarnation of one node (see Sample.Incarnation).
type incKey struct {
	id  types.NodeID
	inc any
}

func newMonitor(env Env) *monitor {
	return &monitor{
		env:        env,
		leaders:    make(map[types.Time]types.NodeID),
		last:       make(map[incKey]Sample),
		violations: make(map[string]bool),
	}
}

// startSampling samples every 2ms until stop is called; stop returns once
// the goroutine has exited.
func (m *monitor) startSampling() (stop func()) {
	stopCh, doneCh := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(doneCh)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

func (m *monitor) sample() {
	for _, id := range m.env.IDs() {
		s := m.env.Observe(id)
		if !s.Alive {
			continue
		}
		m.mu.Lock()
		key := incKey{id, s.Incarnation}
		if last, ok := m.last[key]; ok {
			if s.Term < last.Term {
				m.flagLocked("term went backwards on S%d: %d after %d", id, s.Term, last.Term)
			}
			if s.Commit < last.Commit {
				m.flagLocked("commit index went backwards on S%d: %d after %d", id, s.Commit, last.Commit)
			}
		}
		m.last[key] = s
		if s.Role == raft.Leader {
			if prev, ok := m.leaders[s.Term]; ok && prev != id {
				m.flagLocked("two leaders in term %d: S%d and S%d", s.Term, prev, id)
			} else {
				m.leaders[s.Term] = id
			}
		}
		m.mu.Unlock()
	}
}

func (m *monitor) flag(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flagLocked(format, args...)
}

func (m *monitor) flagLocked(format string, args ...any) {
	m.violations[fmt.Sprintf(format, args...)] = true
}

// stats sums the last-sampled counters across every node incarnation the
// monitor observed.
func (m *monitor) stats() raft.Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum raft.Counters
	for _, s := range m.last {
		sum.Add(s.Counters)
	}
	return sum
}

// report returns the deduplicated violations in a stable order.
func (m *monitor) report() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.violations))
	for v := range m.violations {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// entryFP fingerprints one applied entry for agreement checking.
type entryFP struct {
	term    types.Time
	kind    raft.EntryKind
	command string
	members string
}

func fingerprint(msg raft.ApplyMsg) entryFP {
	return entryFP{term: msg.Term, kind: msg.Kind, command: string(msg.Command), members: fmt.Sprint(msg.Members)}
}

func (f entryFP) String() string {
	switch f.kind {
	case raft.EntryNoOp:
		return fmt.Sprintf("noop@t%d", f.term)
	case raft.EntryConfig:
		return fmt.Sprintf("config%s@t%d", f.members, f.term)
	case raft.EntryCommand:
		return fmt.Sprintf("cmd(%s)@t%d", f.command, f.term)
	default:
		return fmt.Sprintf("kind%d@t%d", f.kind, f.term)
	}
}

// checkAppliedStreams validates the committed-prefix oracles over the
// recorded apply streams (the live cluster's record, or the simulator's):
// every replica must have applied the same entry at every index (the paper's
// "all CCaches lie on one branch" invariant), one replica must never re-apply
// a different entry at an index it already applied (restarted nodes replay
// their log from the start, so the streams legitimately contain duplicates —
// but only identical ones), and log terms must be nondecreasing in the index.
//
// Snapshot restores (EntrySnapshot) are not regular entries: the image is
// a gob encoding whose map ordering is not canonical, so byte-comparing
// two images of the same state would be a false oracle. Restores are
// instead checked by their base fingerprint — every restore at index i
// must carry the same term, across replicas and against any regular entry
// applied at i (a snapshot summarizes a committed prefix, so its base
// must name the committed entry there).
func checkAppliedStreams(streams map[types.NodeID][]raft.ApplyMsg, nodes int) []string {
	var out []string
	perNode := make(map[types.NodeID]map[int]entryFP, nodes)
	snapTerms := make(map[int]types.Time)   // snapshot base index → term
	snapOwner := make(map[int]types.NodeID) // who reported it first
	snapConflicts := 0
	for i := 1; i <= nodes; i++ {
		id := types.NodeID(i)
		byIndex := make(map[int]entryFP)
		selfConflicts := 0
		for _, msg := range streams[id] {
			if msg.Kind == raft.EntrySnapshot {
				if prev, ok := snapTerms[msg.Index]; ok && prev != msg.Term {
					if snapConflicts < maxViolationDetail {
						out = append(out, fmt.Sprintf("snapshot bases diverge at index %d: S%d restored term %d, S%d restored term %d",
							msg.Index, snapOwner[msg.Index], prev, id, msg.Term))
					}
					snapConflicts++
				} else if !ok {
					snapTerms[msg.Index] = msg.Term
					snapOwner[msg.Index] = id
				}
				continue
			}
			f := fingerprint(msg)
			if prev, ok := byIndex[msg.Index]; ok && prev != f {
				if selfConflicts < maxViolationDetail {
					out = append(out, fmt.Sprintf("S%d re-applied index %d as %s after %s", id, msg.Index, f, prev))
				}
				selfConflicts++
			}
			byIndex[msg.Index] = f
		}
		if selfConflicts > maxViolationDetail {
			out = append(out, fmt.Sprintf("S%d: … and %d more re-apply conflicts", id, selfConflicts-maxViolationDetail))
		}
		// Terms nondecreasing along the index order.
		idxs := make([]int, 0, len(byIndex))
		for idx := range byIndex {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		lastTerm := types.Time(0)
		for _, idx := range idxs {
			if t := byIndex[idx].term; t < lastTerm {
				out = append(out, fmt.Sprintf("S%d applied non-monotone terms: index %d has term %d after term %d", id, idx, t, lastTerm))
				break
			} else {
				lastTerm = t
			}
		}
		perNode[id] = byIndex
	}
	// Cross-replica agreement per index.
	crossConflicts := 0
	maxIdx := 0
	for _, byIndex := range perNode {
		for idx := range byIndex {
			if idx > maxIdx {
				maxIdx = idx
			}
		}
	}
	for idx := 1; idx <= maxIdx; idx++ {
		var refID types.NodeID
		var ref entryFP
		haveRef := false
		for i := 1; i <= nodes; i++ {
			id := types.NodeID(i)
			f, ok := perNode[id][idx]
			if !ok {
				continue
			}
			if !haveRef {
				refID, ref, haveRef = id, f, true
				continue
			}
			if f != ref {
				if crossConflicts < maxViolationDetail {
					out = append(out, fmt.Sprintf("committed prefix divergence at index %d: S%d applied %s, S%d applied %s", idx, refID, ref, id, f))
				}
				crossConflicts++
			}
		}
	}
	if crossConflicts > maxViolationDetail {
		out = append(out, fmt.Sprintf("… and %d more divergent indexes", crossConflicts-maxViolationDetail))
	}
	// Snapshot bases against regular entries: a restore at index i and a
	// replica that applied the entry at i must agree on its term.
	snapIdxs := make([]int, 0, len(snapTerms))
	for idx := range snapTerms {
		snapIdxs = append(snapIdxs, idx)
	}
	sort.Ints(snapIdxs)
	for _, idx := range snapIdxs {
		for i := 1; i <= nodes; i++ {
			id := types.NodeID(i)
			if f, ok := perNode[id][idx]; ok && f.term != snapTerms[idx] {
				out = append(out, fmt.Sprintf("snapshot base at index %d has term %d but S%d applied %s there",
					idx, snapTerms[idx], id, f))
				break
			}
		}
	}
	return out
}

// checkLinearizable splits the history per key (linearizability is
// compositional: a history over many keys is linearizable iff each key's
// subhistory is) and runs the Wing & Gong checker on each.
func checkLinearizable(h linear.History) []string {
	byKey := make(map[string]linear.History)
	for _, e := range h {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		sub := byKey[k]
		if res := linear.Check(sub); !res.Ok {
			msg := fmt.Sprintf("history for key %q is not linearizable (%d events, %d states searched):", k, len(sub), res.Visited)
			for _, e := range sub {
				msg += "\n    " + e.String()
			}
			out = append(out, msg)
		}
	}
	return out
}
