package raft_test

import (
	"reflect"
	"testing"

	"adore/internal/raft"
)

// TestNodeSurface pins *Node's exported method set. The paper's ADO has four
// operations; the node offers each once (invoke = ProposeAsync, reconfig =
// ProposeConfig, node state = Snapshot). A new method has to be added here,
// in review, rather than regrow the surface silently.
func TestNodeSurface(t *testing.T) {
	want := []string{ // sorted, as reflect lists them
		"ApplyCh", "Done", "FollowerReadIndex", "ID", "Inbox", "LeaseRead",
		"PickTransferTarget", "ProposeAsync", "ProposeConfig", "ReadIndex",
		"Snapshot", "Stop", "Tick", "TransferLeader",
	}
	typ := reflect.TypeOf((*raft.Node)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported methods of *raft.Node:\n got %v\nwant %v", got, want)
	}
}
