package raft_test

import (
	"reflect"
	"testing"

	"adore/internal/multiraft"
	"adore/internal/raft"
	"adore/internal/raft/cluster"
	"adore/internal/raft/sim"
)

// TestNodeSurface pins *Node's exported method set. The paper's ADO has four
// operations; the node offers each once (invoke = ProposeAsync, reconfig =
// ProposeConfig, node state = Snapshot), and a linearizable read once
// (FollowerReadIndex, at any replica). A new method has to be added here,
// in review, rather than regrow the surface silently.
func TestNodeSurface(t *testing.T) {
	want := []string{ // sorted, as reflect lists them
		"ApplyCh", "Done", "FollowerReadIndex", "ID", "PickTransferTarget",
		"ProposeAsync", "ProposeConfig", "Snapshot", "Stop", "Tick", "TransferLeader",
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

// TestOptionsSurface pins the settable values of a node, of the host that
// runs it, of the in-process cluster of hosts and of the simulator, the same
// way: a new knob has to be added here, in review. Wall
// time is the host's (ElectionTimeoutMin alone sets the tick period); the
// node's timers are constants counted in ticks.
func TestOptionsSurface(t *testing.T) {
	for _, c := range []struct {
		opts any
		want []string // declaration order
	}{{
		raft.Options{},
		[]string{"ID", "Members", "Transport", "Inbox", "Storage", "StateMachine",
			"SnapshotThreshold", "Ablation", "Seed"},
	}, {
		multiraft.Options{},
		[]string{"ID", "Members", "Groups", "Transport", "ElectionTimeoutMin",
			"StorageRoot", "StorageFor", "StateMachineFor", "OnApply",
			"SnapshotThreshold", "Ablation", "Seed", "InboxSize"},
	}, {
		cluster.Options{},
		[]string{"N", "Groups", "Latency", "Jitter", "ElectionTimeoutMin", "Ablation",
			"Seed", "StorageFor", "Start", "SnapshotThreshold", "InboxSize"},
	}, {
		sim.Options{},
		[]string{"Nodes", "Seed", "ElectionTicks", "LatencyJitterTicks",
			"SnapshotThreshold", "Ablation", "DiskDelayTicks", "EarlyStable"},
	}} {
		typ := reflect.TypeOf(c.opts)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("fields of %s:\n got %v\nwant %v", typ, got, c.want)
		}
	}
}
