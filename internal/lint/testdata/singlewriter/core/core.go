// Package core is the single-writer fixture: a miniature follower whose
// commit index has two sanctioned writers and whose applied index has one,
// and handlers that bypass them.
package core

// Message is what arrives from the leader.
type Message struct {
	LeaderCommit int
	Match        int
}

// Core holds the follower's commit knowledge.
type Core struct {
	commitIndex int
	leaderMatch int
	lastApplied int
	applied     int
}

// New builds a core: construction is not a write.
func New(base int) *Core {
	return &Core{commitIndex: base, applied: base}
}

// learnCommit is the follower's writer: the clamp lives here.
func (c *Core) learnCommit(leaderCommit int) {
	n := leaderCommit
	if c.leaderMatch < n {
		n = c.leaderMatch
	}
	if n > c.commitIndex {
		c.commitIndex = n
	}
}

// advanceCommit is the leader's writer.
func (c *Core) advanceCommit(quorum int) {
	c.commitIndex = quorum
}

// OnAppend goes through the rule.
func (c *Core) OnAppend(m Message) {
	if m.Match > c.leaderMatch {
		c.leaderMatch = m.Match
	}
	c.learnCommit(m.LeaderCommit)
}

// OnReadReply believes the reply as far as the log reaches, matched or not:
// the stale-suffix bug.
func (c *Core) OnReadReply(m Message) {
	c.commitIndex = m.LeaderCommit // want "write to Core.commitIndex outside learnCommit, advanceCommit"
}

// Bump creeps the index forward without asking anyone.
func (c *Core) Bump() {
	c.commitIndex++ // want "write to Core.commitIndex"
}

// Alias hands out a pointer any caller can write through.
func (c *Core) Alias() *int {
	return &c.commitIndex // want "write to Core.commitIndex"
}

// TakeEffects is the applied index's writer: one entry at a time, never past
// the commit index.
func (c *Core) TakeEffects() (delivered []int) {
	for c.lastApplied < c.commitIndex {
		c.lastApplied++
		delivered = append(delivered, c.lastApplied)
	}
	return delivered
}

// OnHeartbeat fast-forwards the applied index to whatever the leader named:
// entries in between are never delivered, and the ones above leaderMatch were
// never this log's to apply.
func (c *Core) OnHeartbeat(m Message) {
	c.lastApplied = m.LeaderCommit // want "write to Core.lastApplied outside TakeEffects"
}

// Applied reads freely and writes its own fields.
func (c *Core) Applied() int {
	if c.applied < c.commitIndex {
		c.applied = c.commitIndex
	}
	return c.applied
}
