package kvstore

// ReadMode says where FastGet serves a linearizable read. Either way the
// serving replica asks for a read index (raft.Node.FollowerReadIndex) and
// serves once its own state machine has applied through it; the leader alone
// picks how it proves that index — lease or quorum barrier (see DESIGN.md
// "Linearizable reads").
type ReadMode int

const (
	// ReadModeLeader serves at the shard's leader, which answers the read
	// index itself: from its lease while one holds, otherwise through a
	// quorum barrier coalesced with concurrent reads.
	ReadModeLeader ReadMode = iota
	// ReadModeFollower serves at a follower: it forwards the read to the
	// leader, waits for its own apply to reach the confirmed index, and
	// answers from its local state machine — spreading read load across
	// replicas.
	ReadModeFollower
)
