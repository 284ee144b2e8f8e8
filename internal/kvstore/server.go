package kvstore

import (
	"errors"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
)

// ErrNotApplied reports that another entry committed at a write's index:
// leadership changed, and the write was not applied and never will be. It is
// the proposal's own verdict (raft.ErrNotApplied).
var ErrNotApplied = raft.ErrNotApplied

// Replica is one shard's raft node on one host, plus the Store its apply
// stream feeds: the two halves of every KV request.
type Replica struct {
	Node  *raft.Node
	Store *Store
}

// Write proposes cmd and waits up to timeout for its proposal to resolve,
// which it does once the Store has applied the proposal's index. It returns
// cmd's Result from the dedup table, ErrNotApplied when another entry took
// the index, ErrTimeout when the verdict does not arrive in time, or the
// proposal's own error (a raft.NotLeaderError on a follower). When a
// snapshot restore covered the index first, the restored dedup table tells
// whether cmd applied.
func (r Replica) Write(cmd Command, timeout time.Duration) (Result, error) {
	p := r.Node.ProposeAsync(cmd.Encode())
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.Done():
	case <-t.C:
		return Result{}, ErrTimeout
	}
	_, _, err := p.Wait()
	if err != nil && !errors.Is(err, raft.ErrCompacted) {
		return Result{}, err
	}
	// With one outstanding request per client, the row reaching cmd.Seq
	// means exactly cmd applied.
	seq, res := r.Store.LastApplied(cmd.Client)
	if seq < cmd.Seq {
		return Result{}, ErrNotApplied
	}
	return res, nil
}

// Read serves key linearizably from this replica's Store once it has applied
// through a read index (a follower forwards the read to its leader, which
// answers from its lease or a quorum barrier). It returns the read index's
// error, or ErrTimeout when the apply does not arrive within timeout.
func (r Replica) Read(key string, timeout time.Duration) (string, bool, error) {
	deadline := time.Now().Add(timeout)
	idx, err := r.Node.FollowerReadIndex(timeout)
	if err != nil {
		return "", false, err
	}
	if !r.Store.waitApplied(idx, deadline) {
		return "", false, ErrTimeout
	}
	v, ok := r.Store.LocalGet(key)
	return v, ok, nil
}

// Server is one KV replica process: a multiraft.Host running one raft group
// per shard, and one Store per group fed by that group's apply stream.
type Server struct {
	*multiraft.Host
	stores []*Store // group g at index g
}

// StartServer starts a host on opts with a fresh Store per group: the
// group's state machine, which applies each committed batch before
// opts.OnApply, if set, sees it. A restart replays storage into new Stores.
func StartServer(opts multiraft.Options) (*Server, error) {
	s := &Server{stores: make([]*Store, max(opts.Groups, 1))}
	for g := range s.stores {
		s.stores[g] = NewStore()
	}
	opts.StateMachineFor = func(g raft.GroupID) raft.StateMachine { return s.stores[g] }
	then := opts.OnApply
	opts.OnApply = func(g raft.GroupID, batch []raft.ApplyMsg) {
		for _, msg := range batch {
			s.stores[g].Apply(msg)
		}
		if then != nil {
			then(g, batch)
		}
	}
	h, err := multiraft.Start(opts)
	if err != nil {
		return nil, err
	}
	s.Host = h
	return s, nil
}

// Replica returns the replica of key's shard on this host.
func (s *Server) Replica(key string) Replica {
	g := ShardOf(key, len(s.stores))
	return Replica{Node: s.Node(g), Store: s.stores[g]}
}
