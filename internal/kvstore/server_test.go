package kvstore

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/transport"
	"adore/internal/types"
)

// TestServerOverTCP runs three Servers of two shards each on loopback TCP and
// drives one shard's replicas directly: a follower refuses a write and applies
// nothing, the leader answers a CAS miss with its applied result, every
// replica reads a put back, and a deposed leader's write, durable on its own
// disk only, whose index a successor fills is reported as not applied.
func TestServerOverTCP(t *testing.T) {
	members := []types.NodeID{1, 2, 3}
	trs := make([]*mutableTransport, len(members))
	for i, id := range members {
		tr, err := transport.NewTCPTransport(id, "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = &mutableTransport{TCPTransport: tr}
	}
	for i, a := range trs {
		for j, b := range trs {
			if i != j {
				a.SetPeer(members[j], b.Addr())
			}
		}
	}
	srvs := make([]*Server, len(members))
	for i, id := range members {
		s, err := StartServer(multiraft.Options{
			ID:                 id,
			Members:            members,
			Groups:             2,
			Transport:          trs[i],
			ElectionTimeoutMin: 150 * time.Millisecond,
			Seed:               int64(id),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		srvs[i] = s
	}

	const key = "k"
	var leader, follower Replica
	for deadline := time.Now().Add(opTimeout); leader.Node == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the key's shard never elected a leader")
		}
		for _, s := range srvs {
			if r := s.Replica(key); r.Node.Snapshot().Role == raft.Leader {
				leader = r
			} else {
				follower = r
			}
		}
	}

	const client = 7
	if _, err := follower.Write(Command{Op: OpPut, Key: "from-follower", Value: "x", Client: client, Seq: 1}, opTimeout); !errors.Is(err, raft.ErrNotLeader) {
		t.Fatalf("follower Write: err = %v, want ErrNotLeader", err)
	}
	res, err := leader.Write(Command{Op: OpCAS, Key: key, Old: "nope", Value: "x", Client: client, Seq: 1}, opTimeout)
	if err != nil || res.Swapped {
		t.Fatalf("CAS on a missing key = %+v, %v; want not swapped", res, err)
	}
	if _, err := leader.Write(Command{Op: OpPut, Key: key, Value: "v", Client: client, Seq: 2}, opTimeout); err != nil {
		t.Fatal(err)
	}
	for _, s := range srvs {
		r := s.Replica(key)
		if v, ok, err := r.Read(key, opTimeout); err != nil || !ok || v != "v" {
			t.Fatalf("S%d Read = %q %v %v after the put", r.Node.ID(), v, ok, err)
		}
		if _, ok := r.Store.LocalGet("from-follower"); ok {
			t.Fatalf("S%d applied the write its follower refused", r.Node.ID())
		}
	}

	// The leader goes mute and takes a write: the entry is on its own disk
	// (the proposal outlives the leadership it was made under), but no peer
	// hears of it. A successor's entries take its index, and the deposed
	// leader, which still hears the successor, applies one of them there.
	var lt *mutableTransport
	for i, s := range srvs {
		if s.Replica(key).Node == leader.Node {
			lt = trs[i]
		}
	}
	next := leader.Node.Snapshot().LastIndex + 1
	lt.muted.Store(true)
	_, err = leader.Write(Command{Op: OpPut, Key: key, Value: "w", Client: client, Seq: 3}, opTimeout)
	lt.muted.Store(false)
	if !errors.Is(err, ErrNotApplied) {
		t.Fatalf("a deposed leader's write at index %d: err = %v, want ErrNotApplied", next, err)
	}
	if v, _ := leader.Store.LocalGet(key); v == "w" {
		t.Fatal("the deposed leader applied the write a successor overwrote")
	}
}

// mutableTransport is a host's transport that drops everything the host
// sends while muted; what it receives still arrives.
type mutableTransport struct {
	*transport.TCPTransport
	muted atomic.Bool
}

func (m *mutableTransport) Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport {
	return mutedEndpoint{m.TCPTransport.Endpoint(g, inbox), &m.muted}
}

type mutedEndpoint struct {
	raft.Transport
	muted *atomic.Bool
}

func (e mutedEndpoint) Send(m raft.Message) {
	if !e.muted.Load() {
		e.Transport.Send(m)
	}
}
