// Package multiraft hosts many independent raft groups inside one process
// over shared infrastructure — the deployment shape of a sharded store
// (one replica set per shard, all multiplexed over the same sockets and
// the same disk), as studied for MongoDB's per-replica-set logless
// reconfiguration.
//
// A Host owns one raft.Node per group. What is shared:
//
//   - Transport: one multiplexing transport (one connection/reconnector
//     per peer) carries every group's envelopes; each group registers a
//     per-group endpoint that stamps its GroupID on send; the group's node
//     reads the endpoint's inbox directly.
//   - Wall time: one ticker drives every group's logical clock (a node has
//     no clock of its own), one tick per ElectionTimeoutMin/ElectionTicks.
//   - Storage: one root directory. A one-group host keeps its WAL in the
//     root itself; with more groups each is confined to its own
//     subdirectory (GroupStorageDir). Segment names (a WAL directory
//     holds nothing else) are namespaced by it, so compaction in one group can
//     never unlink another group's files — the isolation is physical
//     (distinct directories), not a naming convention inside one.
//
// What is NOT shared: the consensus state. Each group elects its own
// leader, reconfigures on its own schedule, and fail-stops independently —
// a storage fault in one group halts that group's node while the rest of
// the host keeps serving.
package multiraft

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"adore/internal/raft"
	"adore/internal/types"
)

// Transport is the host's view of a multiplexing transport: it can mint
// one stamping endpoint per group. transport.TCPTransport satisfies it, on
// the operating system's network or on an in-memory one.
type Transport interface {
	// Endpoint registers inbox as group g's demux target and returns the
	// raft.Transport that group's node sends through. The endpoint's
	// Close must detach only that group, never the shared transport.
	Endpoint(g raft.GroupID, inbox chan<- raft.Message) raft.Transport
}

// Options configures a Host.
type Options struct {
	// ID is this node's identity; Members the initial membership of every
	// group (each group can diverge later via its own reconfigurations).
	ID      types.NodeID
	Members []types.NodeID

	// Groups is how many raft groups the host runs (0 = 1).
	Groups int

	// Transport is the shared multiplexer all groups send through.
	Transport Transport

	// ElectionTimeoutMin is every group's minimum election timeout in wall
	// time (0 = 50 ms); the host's tick period is derived from it alone.
	ElectionTimeoutMin time.Duration

	// StorageRoot, when non-empty, backs each group with a FileStorage: a
	// one-group host uses the root itself, more groups each use their own
	// subdirectory (GroupStorageDir(root, g)). StorageFor, when set,
	// overrides it per group (nil return = volatile group). Stop closes
	// every group's storage either way.
	StorageRoot string
	StorageFor  func(raft.GroupID) raft.Storage

	// StateMachineFor supplies each group's state machine for snapshot
	// capture (required for SnapshotThreshold > 0).
	StateMachineFor func(raft.GroupID) raft.StateMachine

	// OnApply, when set, receives every group's committed batches on that
	// group's apply goroutine (raft.Options.OnApply: calls for the same
	// group are ordered, calls across groups are concurrent).
	OnApply func(raft.GroupID, []raft.ApplyMsg)

	// SnapshotThreshold is passed to every group.
	SnapshotThreshold int

	// Ablation switches protocol guards off in every group (experiments
	// only).
	raft.Ablation

	// Seed derives each group's election-jitter seed (0 = from ID). Groups
	// get distinct offsets so their election timers never align by
	// construction.
	Seed int64

	// InboxSize is each group's transport inbox capacity (0 = 4096).
	InboxSize int
}

// GroupStorageDir is the per-group WAL directory under the storage root of a
// host with more than one group. Keeping each group in its own subdirectory
// — rather than prefixing file names in a shared one — makes cross-group
// unlinks impossible by construction: FileStorage compaction enumerates and
// removes files only inside its own dir.
func GroupStorageDir(root string, g raft.GroupID) string {
	return filepath.Join(root, fmt.Sprintf("group-%04d", g))
}

// Host is a set of raft groups sharing one process, one transport, one
// tick loop, and one storage root.
type Host struct {
	opts  Options
	nodes []*raft.Node // group g at index g; fixed after Start

	owned []raft.Storage // the groups' storages, which Stop closes

	stopCh   chan struct{}
	stopOnce sync.Once
	loops    sync.WaitGroup // the tick loop
}

// Start launches every group's node. On error (a group's storage failed to
// open) nothing is left running.
func Start(opts Options) (*Host, error) {
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Seed == 0 {
		opts.Seed = int64(opts.ID) * 7919
	}
	h := &Host{opts: opts, stopCh: make(chan struct{})}
	inboxSize := opts.InboxSize
	if inboxSize <= 0 {
		inboxSize = 4096
	}
	for g := raft.GroupID(0); int(g) < opts.Groups; g++ {
		storage, err := h.storageFor(g)
		if err != nil {
			h.Stop()
			return nil, err
		}
		if storage != nil {
			h.owned = append(h.owned, storage)
		}
		var sm raft.StateMachine
		if opts.StateMachineFor != nil {
			sm = opts.StateMachineFor(g)
		}
		var onApply func([]raft.ApplyMsg)
		if opts.OnApply != nil {
			onApply = func(b []raft.ApplyMsg) { opts.OnApply(g, b) }
		}
		inbox := make(chan raft.Message, inboxSize)
		n := raft.StartNode(raft.Options{
			ID:                opts.ID,
			Members:           opts.Members,
			Transport:         opts.Transport.Endpoint(g, inbox),
			Inbox:             inbox,
			Storage:           storage,
			OnApply:           onApply,
			StateMachine:      sm,
			SnapshotThreshold: opts.SnapshotThreshold,
			Ablation:          opts.Ablation,
			// Distinct per-group offsets keep group clocks de-phased.
			Seed: opts.Seed + 1000003*int64(g),
		})
		h.nodes = append(h.nodes, n)
	}
	h.loops.Add(1)
	go h.tickLoop()
	return h, nil
}

// storageFor opens (or fetches) group g's storage per the options.
func (h *Host) storageFor(g raft.GroupID) (raft.Storage, error) {
	if h.opts.StorageFor != nil {
		return h.opts.StorageFor(g), nil
	}
	if h.opts.StorageRoot == "" {
		return nil, nil
	}
	dir := h.opts.StorageRoot
	if h.opts.Groups > 1 {
		dir = GroupStorageDir(dir, g)
	}
	fs, err := raft.OpenFileStorage(dir)
	if err != nil {
		return nil, fmt.Errorf("multiraft: group %d storage: %w", g, err)
	}
	return fs, nil
}

// tickPeriod is the wall time of one logical tick: a node campaigns after
// raft.ElectionTicks ticks of leader silence (plus jitter), so that many
// ticks span ElectionTimeoutMin.
func tickPeriod(electionTimeoutMin time.Duration) time.Duration {
	if electionTimeoutMin <= 0 {
		electionTimeoutMin = 50 * time.Millisecond
	}
	return electionTimeoutMin / raft.ElectionTicks
}

// tickLoop is the shared clock: one wall-clock ticker advancing every
// group's logical time.
func (h *Host) tickLoop() {
	defer h.loops.Done()
	ticker := time.NewTicker(tickPeriod(h.opts.ElectionTimeoutMin))
	defer ticker.Stop()
	for {
		select {
		case <-h.stopCh:
			return
		case <-ticker.C:
			for _, n := range h.nodes {
				n.Tick()
			}
		}
	}
}

// ID returns the host's node identity.
func (h *Host) ID() types.NodeID { return h.opts.ID }

// Node returns group g's raft node (nil if g is out of range).
func (h *Host) Node(g raft.GroupID) *raft.Node {
	if int(g) >= len(h.nodes) {
		return nil
	}
	return h.nodes[g]
}

// Stop shuts every group down, each node draining its apply stream into
// OnApply before its Stop returns, and closes the groups' storages.
// The shared transport is NOT closed: the host does not own it (per-group
// endpoints detach themselves as their nodes stop).
func (h *Host) Stop() {
	h.stopOnce.Do(func() { close(h.stopCh) })
	for _, n := range h.nodes {
		n.Stop()
	}
	h.loops.Wait()
	for _, s := range h.owned {
		_ = s.Close()
	}
	h.owned = nil
}
