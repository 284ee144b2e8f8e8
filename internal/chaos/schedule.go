// Package chaos is a deterministic fault-injection harness for the
// executable raft runtime: a seeded PRNG generates a nemesis timeline
// (network partitions, drop-rate storms, node crashes with disk faults,
// mid-run reconfigurations) and per-client operation scripts; a runner
// executes the schedule against a live cluster while concurrent clients
// record a history; and a set of checkers validates the run against the
// paper's safety claims — linearizability of the client history,
// committed-prefix agreement across replicas ("all CCaches on one
// branch"), monotonic terms, and at-most-one-leader-per-term.
//
// Everything injected derives from (seed, options) alone: generating a
// schedule twice yields byte-identical event logs, so a failing seed
// printed by CI replays the same fault sequence locally. (The cluster's
// own interleavings stay nondeterministic — the schedule pins down what
// the nemesis does, not what the scheduler does.)
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"adore/internal/kvstore"
	"adore/internal/raft"
	"adore/internal/types"
)

// EventKind enumerates nemesis events.
type EventKind uint8

const (
	// EvPartition splits the cluster into two PRNG-chosen halves.
	EvPartition EventKind = iota
	// EvPartitionLeader cuts the current leader plus Keep followers off
	// from the rest (the classic "stale leader in a minority" scenario;
	// sides are resolved at execution time, the plan just records Keep).
	EvPartitionLeader
	// EvHeal removes all partitions.
	EvHeal
	// EvIsolate cuts one node off from everyone.
	EvIsolate
	// EvDropRate sets the network's message-loss probability.
	EvDropRate
	// EvCrash stops a node: cleanly, with a torn final WAL frame, or by
	// wounding its disk (an injected write error the node must fail-stop
	// on).
	EvCrash
	// EvRestart repairs a node's storage faults and restarts it.
	EvRestart
	// EvReconfigRemove / EvReconfigAdd propose single-node membership
	// changes through the current leader.
	EvReconfigRemove
	EvReconfigAdd
	// EvReconfigShed proposes, directly at a partitioned stale leader,
	// the removal of one node outside its partition side. With the
	// paper's guards on this is harmless (R2/R3 reject the dangerous
	// repeat); with DisableR2 it manufactures the disjoint-quorum
	// scenario the guards exist to prevent.
	EvReconfigShed
	// EvPartialPartition blocks the single one-way link A[0]→B[0]: the
	// blocked node can still hear the cluster but cannot be heard. This
	// is the asymmetric fault Pre-Vote and CheckQuorum exist for.
	EvPartialPartition
	// EvIsolateLeader cuts whoever currently leads off from everyone
	// (resolved at execution time); a later EvHeal lets it rejoin — the
	// classic rejoin-disruption scenario Pre-Vote neutralizes.
	EvIsolateLeader
	// EvIsolateFollower isolates a current non-leader. While isolated it
	// times out over and over; with Pre-Vote those rounds are term-neutral
	// and the heal is silent, without it the rejoiner's inflated term
	// deposes a perfectly healthy leader.
	EvIsolateFollower
	// EvTransferLeader asks the current leader to hand off gracefully to
	// its most caught-up voter (a TimeoutNow transfer, not a timeout).
	EvTransferLeader
	// EvReconfigDropLeader proposes a membership change that removes the
	// current leader itself, exercising the transfer-then-propose hand-off
	// (nemesis.driveReconfig; cluster.Reconfigure does the same for callers).
	EvReconfigDropLeader
	// EvWALWipe destroys one group's durable raft state on one node (the
	// node must be down). Deterministic-sim only: a live cluster has no
	// per-group storage hook, and liveEnv.WipeStorage is a documented no-op.
	// It is never generated — only crafted schedules
	// use it — and it models a bug, not a fault: a flat shared storage
	// layout where one group's compaction unlinks another group's WAL
	// segments. Multi-group runs apply it to Event.Group only; the other
	// groups double as the control arm that must stay violation-free.
	EvWALWipe
	// EvDeafenLeader blocks every inbound link to the current leader
	// (resolved at execution time) while its outbound links stay open: the
	// leader keeps talking but hears no acks, so its lease clock freezes at
	// the cut. Never generated — only the lease-violation teeth schedule
	// uses it, paired with a transfer, to manufacture a window where a
	// deafened old leader would serve a stale lease read if the transfer
	// lease-invalidation guard were missing. Both runtimes execute it; the
	// stale-lease oracle that judges the window reads lease state only the
	// simulator exposes.
	EvDeafenLeader
	// EvStallDisk freezes one node's disk for Event.For: no write lands
	// until the stall clears, while messages, ticks and reads go on. Node
	// NoNode means whoever leads at execution time — the stalled-leader
	// scenario: heartbeats no longer wait for the disk, so only the core's
	// own stalled-disk step-down hands the cluster to a replica that can
	// write.
	EvStallDisk
)

var kindNames = [...]string{
	EvPartition:          "partition",
	EvPartitionLeader:    "partition-leader",
	EvHeal:               "heal",
	EvIsolate:            "isolate",
	EvDropRate:           "drop-rate",
	EvCrash:              "crash",
	EvRestart:            "restart",
	EvReconfigRemove:     "reconfig-remove",
	EvReconfigAdd:        "reconfig-add",
	EvReconfigShed:       "reconfig-shed",
	EvPartialPartition:   "partial-partition",
	EvIsolateLeader:      "isolate-leader",
	EvIsolateFollower:    "isolate-follower",
	EvTransferLeader:     "transfer-leader",
	EvReconfigDropLeader: "reconfig-drop-leader",
	EvWALWipe:            "wal-wipe",
	EvDeafenLeader:       "deafen-leader",
	EvStallDisk:          "stall-disk",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// CrashMode distinguishes how a crash interacts with the node's WAL.
type CrashMode uint8

const (
	// CrashClean stops the node abruptly; the WAL keeps every synced frame.
	CrashClean CrashMode = iota
	// CrashTorn tears the frame being written at crash time: the node
	// fail-stops on the torn write and recovery replays the longest
	// durable prefix.
	CrashTorn
	// CrashWound injects a plain write error first: the node must surface
	// it as an explicit fail-stop (not silent corruption) before the
	// harness takes it down.
	CrashWound
)

// String implements fmt.Stringer.
func (m CrashMode) String() string {
	switch m {
	case CrashClean:
		return "clean"
	case CrashTorn:
		return "torn"
	case CrashWound:
		return "wound"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Event is one planned nemesis action. Fields beyond At/Kind are only
// meaningful for the kinds that use them. String renders the plan — never
// runtime-resolved state — so rendering is deterministic per seed.
type Event struct {
	At    time.Duration // offset from run start
	Kind  EventKind
	Node  types.NodeID // crash/restart/isolate/reconfig/wipe target
	Mode  CrashMode    // EvCrash
	A, B  []types.NodeID
	Keep  int           // EvPartitionLeader: followers kept on the leader's side
	Rate  float64       // EvDropRate
	Group raft.GroupID  // EvWALWipe: the group whose storage is destroyed
	For   time.Duration // EvStallDisk: how long the disk stays frozen
}

// String implements fmt.Stringer: the offset, the kind's name, and the
// fields that kind uses.
func (e Event) String() string {
	head := fmt.Sprintf("[%6s] %s", e.At, e.Kind)
	switch e.Kind {
	case EvPartition:
		return head + fmt.Sprintf(" %v | %v", e.A, e.B)
	case EvPartitionLeader:
		return head + fmt.Sprintf(" keep=%d", e.Keep)
	case EvIsolate, EvRestart, EvReconfigRemove, EvReconfigAdd:
		return head + fmt.Sprintf(" S%d", e.Node)
	case EvDropRate:
		return head + fmt.Sprintf(" %.2f", e.Rate)
	case EvCrash:
		return head + fmt.Sprintf(" S%d (%s)", e.Node, e.Mode)
	case EvPartialPartition:
		return head + fmt.Sprintf(" S%d->S%d", e.A[0], e.B[0])
	case EvWALWipe:
		return head + fmt.Sprintf(" S%d g%d", e.Node, e.Group)
	case EvStallDisk:
		if e.Node == types.NoNode {
			return head + fmt.Sprintf(" leader for %s", e.For)
		}
		return head + fmt.Sprintf(" S%d for %s", e.Node, e.For)
	default: // every other kind is described by its name alone
		return head
	}
}

// ClientOp is one scripted workload operation.
type ClientOp struct {
	Op       kvstore.Op
	Key      string
	Value    string
	Old      string           // CAS expected value
	FastRead bool             // serve this Get without a log write
	Via      kvstore.ReadMode // FastRead only: which replica serves it
}

// String implements fmt.Stringer.
func (o ClientOp) String() string {
	if o.FastRead {
		if o.Via == kvstore.ReadModeFollower {
			return fmt.Sprintf("followerget(%s)", o.Key)
		}
		return fmt.Sprintf("fastget(%s)", o.Key)
	}
	switch o.Op {
	case kvstore.OpGet:
		return fmt.Sprintf("get(%s)", o.Key)
	case kvstore.OpPut:
		return fmt.Sprintf("put(%s,%s)", o.Key, o.Value)
	case kvstore.OpAppend:
		return fmt.Sprintf("append(%s,%s)", o.Key, o.Value)
	case kvstore.OpDelete:
		return fmt.Sprintf("delete(%s)", o.Key)
	case kvstore.OpCAS:
		return fmt.Sprintf("cas(%s,%s→%s)", o.Key, o.Old, o.Value)
	default:
		return fmt.Sprintf("%s(%s)", o.Op, o.Key)
	}
}

// Schedule is a fully generated chaos run plan: the nemesis timeline plus
// every client's operation script. It is a pure function of (seed,
// options); Hash() fingerprints it for the determinism test and for replay
// verification.
type Schedule struct {
	Seed    int64
	Nodes   int
	Events  []Event
	Scripts [][]ClientOp
}

// String renders the whole plan (the replayable "event log" of a run).
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d, %d nodes, %d clients\n", s.Seed, s.Nodes, len(s.Scripts))
	for _, e := range s.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	for c, script := range s.Scripts {
		fmt.Fprintf(&b, "client %d:", c)
		for _, op := range script {
			b.WriteByte(' ')
			b.WriteString(op.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash returns a hex SHA-256 of the rendered plan.
func (s *Schedule) Hash() string {
	sum := sha256.Sum256([]byte(s.String()))
	return hex.EncodeToString(sum[:])
}

// Options configures schedule generation and the runner. The zero value
// gets chaos-smoke-friendly defaults.
type Options struct {
	// Nodes, Clients, OpsPerClient, Keys size the cluster and workload.
	// Keys bounds the per-key history (ops are dealt round-robin across
	// keys), which keeps the linearizability checker's per-key windows
	// inside its 62-event limit.
	Nodes        int
	Clients      int
	OpsPerClient int
	Keys         int
	// Groups replays the schedule per raft group (deterministic sim only):
	// the keyspace is hash-partitioned across groups exactly as
	// kvstore.ShardOf routes it, node-level nemesis events hit every group
	// (a crashed node takes all its groups down), group-targeted events
	// (EvWALWipe) hit only theirs, and every oracle runs per group with
	// violations prefixed "gN:". 0 or 1 = the classic single-group run.
	Groups int
	// Duration is the nemesis horizon: events are scheduled inside it and
	// clients stop issuing at it.
	Duration time.Duration
	// EventBudget is the number of nemesis events (0 = scaled from
	// Duration).
	EventBudget int
	// OpTimeout bounds one client operation; a timed-out write is
	// recorded as an outcome-unknown (Maybe) event.
	OpTimeout time.Duration
	// SettleTimeout bounds the post-horizon convergence wait.
	SettleTimeout time.Duration
	// ElectionTimeoutMin scales the protocol timers (0 = 15ms — fast
	// enough that a 2s run sees many elections).
	ElectionTimeoutMin time.Duration
	// Latency/Jitter delay each write on the live cluster's in-memory
	// network.
	Latency, Jitter time.Duration
	// MemWAL backs nodes with in-memory storage instead of file WALs
	// (faster; file WALs are the honest default).
	MemWAL bool
	// Dir is where file WALs live ("" = a fresh temp dir, removed after
	// the run).
	Dir string
	// Ablation removes protocol guards, to prove the oracles catch what each
	// one prevents (the teeth table, teeth.go).
	raft.Ablation
	// SnapshotThreshold is the log-compaction trigger: after this many
	// applied entries above the snapshot base a node captures its state
	// machine and truncates its log. 0 picks a chaos-friendly default
	// (64, low enough that every sweep crosses the snapshot path);
	// negative disables compaction entirely.
	SnapshotThreshold int
	// DiskDelay is the deterministic simulator's slow-disk model: every
	// write lands a seeded 0..DiskDelay after it started (0 = 2ms, so every
	// sweep runs with writes in flight across ticks; negative = every write
	// lands at once). Live runs use their real disks.
	DiskDelay time.Duration
	// EarlyStable swaps in the simulator's disk mutant that acks a write
	// before it lands, so the driver reports Stable early — used to prove
	// the acked⇒durable oracles catch effects that outrun the disk.
	EarlyStable bool
	// FreshSeqRetry swaps in the client mutant (deterministic sim only) that
	// re-proposes an Append or CAS under a fresh sequence number once an
	// attempt slice runs out (kvstore.Session.FreshSeqOnRetry) — used
	// to prove the linearizability oracle catches a request applied twice.
	FreshSeqRetry bool
}

// diskDelayTicks resolves the DiskDelay convention (negative = off) into
// simulator ticks.
func (o *Options) diskDelayTicks() int {
	if o.DiskDelay < 0 {
		return 0
	}
	return int(ticksOf(o.DiskDelay))
}

// snapThreshold resolves the SnapshotThreshold convention (negative =
// off) into the value the runtimes take (0 = off).
func (o *Options) snapThreshold() int {
	if o.SnapshotThreshold < 0 {
		return 0
	}
	return o.SnapshotThreshold
}

func (o *Options) defaults() {
	if o.Nodes <= 0 {
		o.Nodes = 5
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.OpsPerClient <= 0 {
		o.OpsPerClient = 32
	}
	if o.Keys <= 0 {
		o.Keys = 8
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.EventBudget <= 0 {
		// Roughly one nemesis event per 150ms, at least 4.
		o.EventBudget = int(o.Duration / (150 * time.Millisecond))
		if o.EventBudget < 4 {
			o.EventBudget = 4
		}
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 400 * time.Millisecond
	}
	if o.SettleTimeout <= 0 {
		o.SettleTimeout = 10 * time.Second
	}
	if o.ElectionTimeoutMin <= 0 {
		o.ElectionTimeoutMin = 15 * time.Millisecond
	}
	if o.Latency <= 0 {
		o.Latency = 200 * time.Microsecond
	}
	if o.Jitter <= 0 {
		o.Jitter = 300 * time.Microsecond
	}
	if o.SnapshotThreshold == 0 {
		o.SnapshotThreshold = 64
	}
	if o.DiskDelay == 0 {
		o.DiskDelay = 2 * time.Millisecond
	}
}

// maxCrashed is how many nodes may be down at once: strictly less than
// half, so a quorum of the initial membership stays available.
func maxCrashed(n int) int { return (n - 1) / 2 }

// Generate builds the deterministic plan for one seed. The generator
// tracks which nodes it has crashed and which partition state is active,
// so every emitted event is executable: restarts target crashed nodes,
// partitions never stack, and at most a minority is down at any time.
func Generate(seed int64, opt Options) *Schedule {
	opt.defaults()
	rng := rand.New(rand.NewSource(seed))
	s := &Schedule{Seed: seed, Nodes: opt.Nodes}

	all := make([]types.NodeID, opt.Nodes)
	for i := range all {
		all[i] = types.NodeID(i + 1)
	}

	crashed := map[types.NodeID]bool{}
	removed := map[types.NodeID]bool{} // scheduled membership removals
	memberCount := opt.Nodes
	partitioned := false // one partition active at a time
	dropActive := false
	shedsPending := 0 // reconfig-sheds still owed to an open leader partition

	// Event instants: sorted draws inside [10%, 80%] of the horizon, so
	// the cluster first elects undisturbed and the tail lets clients
	// finish against a faulty-but-unpartitioned cluster before settle.
	span := opt.Duration * 7 / 10
	base := opt.Duration / 10
	step := span / time.Duration(opt.EventBudget)
	at := base

	aliveList := func() []types.NodeID {
		var out []types.NodeID
		for _, id := range all {
			if !crashed[id] {
				out = append(out, id)
			}
		}
		return out
	}
	pick := func(ids []types.NodeID) types.NodeID {
		return ids[rng.Intn(len(ids))]
	}

	for i := 0; i < opt.EventBudget; i++ {
		// Jittered but deterministic spacing.
		at += step/2 + time.Duration(rng.Int63n(int64(step)))
		if at >= base+span {
			break
		}

		// Owed shed events follow their leader-partition immediately.
		if shedsPending > 0 {
			shedsPending--
			s.Events = append(s.Events, Event{At: at, Kind: EvReconfigShed})
			continue
		}

		// Weighted choice among currently-legal kinds.
		type choice struct {
			kind   EventKind
			weight int
		}
		var choices []choice
		if partitioned {
			choices = append(choices, choice{EvHeal, 50})
		} else {
			choices = append(choices, choice{EvPartition, 14}, choice{EvPartitionLeader, 10}, choice{EvIsolate, 8})
			choices = append(choices, choice{EvPartialPartition, 6}, choice{EvIsolateLeader, 5}, choice{EvIsolateFollower, 6})
		}
		choices = append(choices, choice{EvTransferLeader, 6}, choice{EvStallDisk, 6})
		if memberCount > 3 {
			choices = append(choices, choice{EvReconfigDropLeader, 5})
		}
		if dropActive {
			choices = append(choices, choice{EvDropRate, 20}) // lower or clear it
		} else {
			choices = append(choices, choice{EvDropRate, 8})
		}
		if len(crashed) < maxCrashed(opt.Nodes) {
			choices = append(choices, choice{EvCrash, 14})
		}
		if len(crashed) > 0 {
			choices = append(choices, choice{EvRestart, 18})
		}
		if memberCount > 3 {
			choices = append(choices, choice{EvReconfigRemove, 8})
		}
		if len(removed) > 0 {
			choices = append(choices, choice{EvReconfigAdd, 10})
		}
		total := 0
		for _, c := range choices {
			total += c.weight
		}
		roll := rng.Intn(total)
		var kind EventKind
		for _, c := range choices {
			if roll < c.weight {
				kind = c.kind
				break
			}
			roll -= c.weight
		}

		switch kind {
		case EvPartition:
			// Split the full node set (crashed nodes included, so a later
			// restart comes back inside the same partition regime).
			perm := rng.Perm(opt.Nodes)
			cut := 1 + rng.Intn(opt.Nodes-1)
			a := make([]types.NodeID, 0, cut)
			b := make([]types.NodeID, 0, opt.Nodes-cut)
			for i, p := range perm {
				if i < cut {
					a = append(a, all[p])
				} else {
					b = append(b, all[p])
				}
			}
			slices.Sort(a)
			slices.Sort(b)
			s.Events = append(s.Events, Event{At: at, Kind: EvPartition, A: a, B: b})
			partitioned = true
		case EvPartitionLeader:
			keep := 1
			if opt.Nodes >= 7 && rng.Intn(2) == 0 {
				keep = 2
			}
			s.Events = append(s.Events, Event{At: at, Kind: EvPartitionLeader, Keep: keep})
			partitioned = true
			// Half the leader partitions are followed by a shed pair: the
			// stale minority leader is asked to shrink the cluster toward
			// its own side — exactly the R2/R3 danger zone.
			if rng.Intn(2) == 0 {
				shedsPending = 2
			}
		case EvHeal:
			s.Events = append(s.Events, Event{At: at, Kind: EvHeal})
			partitioned = false
			shedsPending = 0
		case EvIsolate:
			s.Events = append(s.Events, Event{At: at, Kind: EvIsolate, Node: pick(aliveList())})
			partitioned = true
		case EvPartialPartition:
			// One asymmetric link between two distinct alive nodes; cleared
			// by the next heal like every other cut.
			alive := aliveList()
			if len(alive) < 2 {
				continue
			}
			a := pick(alive)
			b := a
			for b == a {
				b = pick(alive)
			}
			s.Events = append(s.Events, Event{At: at, Kind: EvPartialPartition, A: []types.NodeID{a}, B: []types.NodeID{b}})
			partitioned = true
		case EvIsolateLeader:
			s.Events = append(s.Events, Event{At: at, Kind: EvIsolateLeader})
			partitioned = true
		case EvIsolateFollower:
			s.Events = append(s.Events, Event{At: at, Kind: EvIsolateFollower})
			partitioned = true
		case EvTransferLeader:
			s.Events = append(s.Events, Event{At: at, Kind: EvTransferLeader})
		case EvReconfigDropLeader:
			s.Events = append(s.Events, Event{At: at, Kind: EvReconfigDropLeader})
		case EvStallDisk:
			// Half the stalls hit whoever leads (resolved at execution
			// time), half a PRNG-chosen alive node; one to four election
			// intervals, so both sides of the step-down threshold occur.
			victim := types.NoNode
			if rng.Intn(2) == 0 {
				victim = pick(aliveList())
			}
			s.Events = append(s.Events, Event{At: at, Kind: EvStallDisk, Node: victim,
				For: time.Duration(1+rng.Intn(4)) * opt.ElectionTimeoutMin})
		case EvDropRate:
			rate := 0.0
			if !dropActive || rng.Intn(2) == 0 {
				rate = 0.05 + 0.25*rng.Float64()
			}
			s.Events = append(s.Events, Event{At: at, Kind: EvDropRate, Rate: rate})
			dropActive = rate > 0
		case EvCrash:
			victim := pick(aliveList())
			mode := CrashMode(rng.Intn(3))
			s.Events = append(s.Events, Event{At: at, Kind: EvCrash, Node: victim, Mode: mode})
			crashed[victim] = true
		case EvRestart:
			var down []types.NodeID
			for _, id := range all {
				if crashed[id] {
					down = append(down, id)
				}
			}
			victim := pick(down)
			s.Events = append(s.Events, Event{At: at, Kind: EvRestart, Node: victim})
			delete(crashed, victim)
		case EvReconfigRemove:
			var members []types.NodeID
			for _, id := range all {
				if !removed[id] {
					members = append(members, id)
				}
			}
			victim := pick(members)
			s.Events = append(s.Events, Event{At: at, Kind: EvReconfigRemove, Node: victim})
			removed[victim] = true
			memberCount--
		case EvReconfigAdd:
			var out []types.NodeID
			for _, id := range all {
				if removed[id] {
					out = append(out, id)
				}
			}
			victim := pick(out)
			s.Events = append(s.Events, Event{At: at, Kind: EvReconfigAdd, Node: victim})
			delete(removed, victim)
			memberCount++
		case EvReconfigShed:
			// Only reachable through shedsPending, handled above.
		default:
			panic(fmt.Sprintf("chaos: generator produced unknown event kind %v", kind))
		}
	}

	// The run always ends healed, repaired, and restarted; the runner
	// appends those actions unconditionally at the horizon (they are part
	// of the fixed epilogue, not the plan).

	// Client scripts: keys are dealt round-robin so each key's history is
	// exactly Clients*OpsPerClient/Keys events at most, values are unique
	// per (client, op).
	s.Scripts = make([][]ClientOp, opt.Clients)
	for c := 0; c < opt.Clients; c++ {
		script := make([]ClientOp, opt.OpsPerClient)
		for i := 0; i < opt.OpsPerClient; i++ {
			key := fmt.Sprintf("k%d", (c*opt.OpsPerClient+i)%opt.Keys)
			op := ClientOp{Key: key, Value: fmt.Sprintf("c%d-%d", c, i)}
			// Fast reads are dealt across both serving replicas, two to one
			// for the leader (which answers from its lease or a barrier), so
			// every sweep's linearizability check covers leader- and
			// follower-served reads (one PRNG draw either way, keeping
			// older seeds' event streams aligned).
			switch roll := rng.Intn(100); {
			case roll < 30:
				op.Op = kvstore.OpPut
			case roll < 55:
				op.Op = kvstore.OpGet
			case roll < 65:
				op.Op = kvstore.OpGet
				op.FastRead = true
				op.Via = kvstore.ReadModeLeader
			case roll < 70:
				op.Op = kvstore.OpGet
				op.FastRead = true
				op.Via = kvstore.ReadModeFollower
			case roll < 85:
				op.Op = kvstore.OpAppend
			case roll < 95:
				op.Op = kvstore.OpCAS
				op.Old = fmt.Sprintf("c%d-%d", rng.Intn(opt.Clients), rng.Intn(opt.OpsPerClient))
			default:
				op.Op = kvstore.OpDelete
			}
			script[i] = op
		}
		s.Scripts[c] = script
	}
	return s
}

// crafted is a hand-written schedule of events on opt.Nodes nodes, under the
// client scripts of generated seed 1.
func crafted(seed int64, opt Options, events []Event) *Schedule {
	return &Schedule{Seed: seed, Nodes: opt.Nodes, Events: events, Scripts: Generate(1, opt).Scripts}
}

// r2ViolationSchedule is the handcrafted plan the teeth test uses: cut the
// leader plus one follower off, shed the far side twice through the stale
// leader, heal. With the guards on the second shed is rejected (R2) and
// nothing the stale leader appended can commit; with DisableR2 the stale
// minority forms a quorum of its shrunken config and commits on a branch
// the majority never saw — a committed-prefix divergence the checker must
// flag.
//
// The sheds land right after the cut — inside CheckQuorum's one-interval
// grace window. Any later and the stale leader (correctly) steps down
// before the second shed can shrink its config to where the minority is a
// quorum again, and the scenario evaporates.
func r2ViolationSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return crafted(-1, opt, []Event{
		{At: d * 25 / 100, Kind: EvPartitionLeader, Keep: 1},
		{At: d*25/100 + 3*time.Millisecond, Kind: EvReconfigShed},
		{At: d*25/100 + 6*time.Millisecond, Kind: EvReconfigShed},
		{At: d * 60 / 100, Kind: EvHeal},
	})
}

// r3ViolationSchedule is Fig. 4 (explore.Fig4Bug) on four nodes. S4 leads,
// is cut off alone and proposes {S2,S3,S4}, which only it holds. S3 votes S2
// into term 2 and crashes before S2's first append, and S2 at once proposes
// removing S3. With R3 the removal is refused: S2 has committed nothing in
// its term, and its no-op cannot commit without S3. With DisableR3,
// {S1,S2,S4} commits on S1 and S2; the partition flips to {S3,S4} | {S1,S2},
// and S4 wins term 3 with S3's vote under {S2,S3,S4}: the prefix forks.
func r3ViolationSchedule(opt Options) *Schedule {
	opt.Nodes = 4
	opt.defaults()
	d := opt.Duration
	cut, flip := d*25/100, d*40/100
	return crafted(-37, opt, []Event{
		{At: cut, Kind: EvPartitionLeader, Keep: 0},
		{At: cut + 3*time.Millisecond, Kind: EvReconfigShed},
		{At: cut + 29*time.Millisecond, Kind: EvCrash, Node: 3, Mode: CrashClean},
		{At: cut + 30*time.Millisecond, Kind: EvReconfigRemove, Node: 3},
		{At: flip, Kind: EvHeal},
		{At: flip, Kind: EvPartition, A: []types.NodeID{3, 4}, B: []types.NodeID{1, 2}},
		{At: flip + 10*time.Millisecond, Kind: EvRestart, Node: 3},
		{At: d * 90 / 100, Kind: EvHeal},
	})
}

// disruptionSchedule is the rejoin-disruption plan the Pre-Vote teeth test
// uses: isolate one follower long enough for ten election intervals of
// futile campaigning, then heal. With Pre-Vote the rounds are term-neutral
// and the heal is a non-event; with DisablePreVote the rejoiner comes back
// with an inflated term, deposes the healthy leader, and the disruption
// oracle flags it.
func disruptionSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	iso := d * 25 / 100
	return crafted(-2, opt, []Event{
		{At: iso, Kind: EvIsolateFollower},
		{At: iso + 10*opt.ElectionTimeoutMin, Kind: EvHeal},
	})
}

// staleLeaderSchedule cuts the leader (plus one follower) into a minority
// and leaves it there for most of the run. With CheckQuorum the stale
// leader steps down within an election interval of losing quorum contact;
// with DisableCheckQuorum it reigns over its minority indefinitely and the
// stale-leader oracle flags it.
func staleLeaderSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return crafted(-3, opt, []Event{
		{At: d * 25 / 100, Kind: EvPartitionLeader, Keep: 1},
		{At: d * 80 / 100, Kind: EvHeal},
	})
}

// crossGroupWipeSchedule is the multi-group teeth plan (run with
// Options.Groups >= 2): it manufactures the exact history a cross-group
// WAL-unlink bug would leave behind — the bug the multiraft per-group
// storage subdirectories make impossible by construction — and demands the
// per-group oracles localize it.
//
// Timeline: partition {S1,S2,S3} | {S4,S5} early so the majority side
// commits entries S4/S5 never see; crash S3 cleanly mid-run and destroy
// group 1's (and only group 1's) durable state on it; flip the partition to
// {S3,S4,S5} | {S1,S2} in the same instant it heals (no catch-up window);
// restart S3. In group 1, S3 comes back blank — vote and log gone — so the
// flipped side elects a leader whose log predates the committed entries and
// overwrites a committed prefix: committed-prefix divergence, a refinement
// fork, and commit-index regression, all flagged "g1:". Group 0 runs the
// identical nemesis WITHOUT the wipe, and S3's intact log lets it protect
// the committed prefix through the same partitions: the control arm must
// stay clean. Always 5 nodes.
func crossGroupWipeSchedule(opt Options) *Schedule {
	opt.Nodes = 5
	opt.defaults()
	d := opt.Duration
	flip := d * 50 / 100
	return crafted(-5, opt, []Event{
		{At: d * 15 / 100, Kind: EvPartition, A: []types.NodeID{1, 2, 3}, B: []types.NodeID{4, 5}},
		{At: d * 45 / 100, Kind: EvCrash, Node: 3, Mode: CrashClean},
		{At: d * 47 / 100, Kind: EvWALWipe, Node: 3, Group: 1},
		// Heal and re-partition at the same instant: zero ticks elapse
		// between them, so {1,2} never get a window to catch {4,5} up.
		{At: flip, Kind: EvHeal},
		{At: flip, Kind: EvPartition, A: []types.NodeID{3, 4, 5}, B: []types.NodeID{1, 2}},
		{At: d * 52 / 100, Kind: EvRestart, Node: 3},
		{At: d * 80 / 100, Kind: EvHeal},
	})
}

// leaseViolationSchedule is the lease teeth plan (its oracle is the
// simulator's): deafen the sitting leader — every inbound link cut, outbound intact, so
// its lease clock freezes on acks already banked — and in the same instant
// start a graceful transfer. The TimeoutNow still goes out, the successor
// campaigns and commits its term-opening no-op within a few ticks, and the
// deafened old leader never hears the new term. With the guard on, the
// lease dies the moment the transfer starts (and cannot revive: no acks
// arrive while deafened), so the stale-lease oracle stays silent; with
// DisableLeaseGuard the old leader's lease remains "valid" for the rest of
// its ack window while the successor commits past it — exactly the
// stale-read window the oracle must flag.
//
// Whether the successor's commit lands inside that window depends on where
// the deafening falls in the heartbeat cycle (the last banked ack can be up
// to a heartbeat old), so the plan deafens and transfers twice, at two
// unrelated phases, each followed by a heal.
func leaseViolationSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return crafted(-6, opt, []Event{
		{At: d * 40 / 100, Kind: EvDeafenLeader},
		{At: d * 40 / 100, Kind: EvTransferLeader},
		{At: d * 55 / 100, Kind: EvHeal},
		{At: d * 67 / 100, Kind: EvDeafenLeader},
		{At: d * 67 / 100, Kind: EvTransferLeader},
		{At: d * 82 / 100, Kind: EvHeal},
	})
}

// transferDuringReconfigSchedule exercises graceful handoff under churn:
// two membership changes that each shed the sitting leader, with an
// explicit transfer between them. A correct run completes every handoff by
// TimeoutNow — the journal shows transfer campaigns and zero timeout
// campaigns.
func transferDuringReconfigSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return crafted(-4, opt, []Event{
		{At: d * 30 / 100, Kind: EvReconfigDropLeader},
		{At: d * 50 / 100, Kind: EvTransferLeader},
		{At: d * 70 / 100, Kind: EvReconfigDropLeader},
	})
}

// stalledLeaderDiskSchedule freezes the sitting leader's disk for most of
// the run and leaves the network alone. The stalled leader keeps
// heartbeating — nothing in the message path waits for its disk — so the
// followers stay sticky and only the core's stalled-disk step-down (part of
// CheckQuorum) ends its reign: within an election interval it steps down, a
// healthy replica is elected, commits resume, and the stalled node rejoins
// as a follower when its disk answers. With DisableCheckQuorum it leads
// forever while committing nothing, and the liveness oracle flags it.
func stalledLeaderDiskSchedule(opt Options) *Schedule {
	opt.defaults()
	d := opt.Duration
	return crafted(-7, opt, []Event{
		{At: d * 25 / 100, Kind: EvStallDisk, For: d * 50 / 100},
	})
}

// crashBeforeStableSchedule power-cycles a whole 3-node cluster while every
// disk is frozen mid-write: each replica dies between handing a batch to its
// disk and hearing Stable, and the in-flight writes are lost. A correct
// driver released nothing those writes were backing — no ack, no commit, no
// client reply — so no acked put is lost and the restarted cluster is
// consistent with everything it ever told a client. Under the EarlyStable
// mutant the driver acks and commits the batch ahead of the disk: the applied ⊆
// quorum-durable oracle catches the first such commit while every node is
// still up, the applied-stream and linearizability oracles the loss after the
// power cycle.
func crashBeforeStableSchedule(opt Options) *Schedule {
	opt.Nodes = 3
	opt.defaults()
	d := opt.Duration
	stall := d * 30 / 100
	var events []Event
	for id := types.NodeID(1); id <= 3; id++ {
		events = append(events, Event{At: stall, Kind: EvStallDisk, Node: id, For: d * 20 / 100})
	}
	for id := types.NodeID(1); id <= 3; id++ {
		events = append(events, Event{At: stall + d*8/100, Kind: EvCrash, Node: id, Mode: CrashClean})
	}
	for id := types.NodeID(1); id <= 3; id++ {
		events = append(events, Event{At: stall + d*12/100, Kind: EvRestart, Node: id})
	}
	return crafted(-8, opt, events)
}

// applyAheadOfDiskSchedule is the apply ⊆ committed plan: a follower whose
// disk is frozen keeps learning what the quorum committed and applies it —
// entries, and a compaction image over them, that its own WAL never holds.
// Twice: the first stall ends in a power cycle that loses every write the
// frozen disk was sitting on, so S3 restarts from its shorter WAL with a fresh
// state machine and is handed the same entries again; the second stall clears,
// so the image that outran the WAL lands with the log continuing on top of it,
// and a later power cycle recovers from that. S1 and S2 are the quorum
// throughout. Should S3 be leading when its disk freezes, the stalled-disk
// step-down makes it the follower the plan wants within an election interval.
func applyAheadOfDiskSchedule(opt Options) *Schedule {
	opt.Nodes = 3
	opt.defaults()
	d := opt.Duration
	return crafted(-10, opt, []Event{
		{At: d * 25 / 100, Kind: EvStallDisk, Node: 3, For: d * 35 / 100},
		{At: d * 45 / 100, Kind: EvCrash, Node: 3, Mode: CrashClean},
		{At: d * 50 / 100, Kind: EvRestart, Node: 3},
		{At: d * 60 / 100, Kind: EvStallDisk, Node: 3, For: d * 12 / 100},
		{At: d * 85 / 100, Kind: EvCrash, Node: 3, Mode: CrashClean},
		{At: d * 90 / 100, Kind: EvRestart, Node: 3},
	})
}

// pipelineCutSchedule is the pipelined-write plan: a follower's disk freezes
// under a write of an entry only the stale side holds, and the log is cut under
// that write. S2 leads and is cut off with S1; S1's disk freezes at once, and
// S2 sheds S3, so S1's write of the config entry hangs on the frozen disk. The
// majority elects a successor, and after the heal its first append conflicts
// with that entry: S1 adopts the new term and cuts its log under the hung
// write. With the guard the rewrite waits until the hung write lands; with
// DisablePipelineGuard it goes out beside it, the stall's end releases both in
// a seeded order, and when the rewrite lands first the hung write lands after
// it and puts the cut entry back over the one S1 already acked. The power
// cycle at 60% restarts every node from its disk, and the replay oracle finds
// S1's WAL without the entry its last incarnation had durable.
func pipelineCutSchedule(opt Options) *Schedule {
	opt.Nodes = 5
	opt.defaults()
	d := opt.Duration
	cut, heal := d*25/100, 60*time.Millisecond
	events := []Event{
		{At: cut, Kind: EvPartitionLeader, Keep: 1},
		{At: cut + time.Millisecond, Kind: EvStallDisk, Node: 1, For: heal + 40*time.Millisecond},
		{At: cut + 3*time.Millisecond, Kind: EvReconfigShed},
		{At: cut + heal, Kind: EvHeal},
	}
	for id := types.NodeID(1); id <= 5; id++ {
		events = append(events, Event{At: d * 60 / 100, Kind: EvCrash, Node: id, Mode: CrashClean})
	}
	for id := types.NodeID(1); id <= 5; id++ {
		events = append(events, Event{At: d * 65 / 100, Kind: EvRestart, Node: id})
	}
	return crafted(-12, opt, events)
}

// staleSuffixReadSchedule is the commit-propagation plan (deterministic sim
// only; its scripts are crafted, not generated): a deposed leader that still
// holds an uncommitted suffix serves forwarded reads before its log is
// repaired. A read reply names the new leader's commit index, and the stale
// entries sit at indexes at or below it.
//
// Timeline, in client slots (every client starts its next op at the same
// tick): just before slot 10 the leader is isolated. Slot 10 is a put on
// clients 0 and 1, so the isolated leader appends and persists entries no
// quorum will ever hold (those two clients wait on it until its log is
// repaired), and a leader read on clients 2 and 3, which its still-valid
// lease answers at once. Its disk then freezes until after slot 14. The
// majority elects a successor and commits past the stale indexes; clients 2
// and 3 learn the successor from the redirects their slot-11 gets meet.
// Shortly before slot 12 the network heals: the ex-leader adopts the new term
// in memory, but the term cannot reach its frozen disk, so its rejections of
// the successor's probes stay held and nobody repairs its log. Slots 12..14
// are follower reads, which clients 2 and 3 rotate over the replicas other
// than the successor, so some land on the ex-leader: request and reply wait
// for no disk. The replica must not believe the commit index on them beyond
// what it has matched against the successor (nothing), and the reads
// complete, correct, once the disk answers and the log is repaired.
func staleSuffixReadSchedule(opt Options) *Schedule {
	opt.Clients, opt.OpsPerClient, opt.Keys = 4, 39, 8
	opt.defaults()
	slot := opt.Duration / time.Duration(opt.OpsPerClient+1) // newScriptClient's pacing
	iso := 10*slot - 2*simTick
	freeze := iso + 5*simTick // the isolated leader has not stepped down yet
	scripts := make([][]ClientOp, opt.Clients)
	for c := range scripts {
		for i := 0; i < opt.OpsPerClient; i++ {
			op := ClientOp{
				Op:    kvstore.OpGet,
				Key:   fmt.Sprintf("k%d", (c*opt.OpsPerClient+i)%opt.Keys),
				Value: fmt.Sprintf("c%d-%d", c, i),
			}
			switch {
			case i >= 12 && i <= 14: // the window
				op.FastRead, op.Via = true, kvstore.ReadModeFollower
			case i == 10 && c >= 2: // free again before the window
				op.FastRead, op.Via = true, kvstore.ReadModeLeader
			case i%2 == 0: // slot 10 of clients 0 and 1 among them
				op.Op = kvstore.OpPut
			case i%4 == 1:
				op.FastRead, op.Via = true, kvstore.ReadModeFollower
			}
			scripts[c] = append(scripts[c], op)
		}
	}
	return &Schedule{
		Seed:  -9,
		Nodes: opt.Nodes,
		Events: []Event{
			{At: iso, Kind: EvIsolateLeader},
			{At: freeze, Kind: EvStallDisk, For: 14*slot + 10*simTick - freeze},
			{At: 12*slot - 8*simTick, Kind: EvHeal},
		},
		Scripts: scripts,
	}
}
