package raft

import (
	"runtime"

	"adore/internal/types"
)

// This file is the group-commit front end. ProposeAsync enqueues the
// command and returns a future; the node's flush loop drains every pending
// proposal into the core's log with one ProposeBatch. The driver then hands
// the write lane whatever the core has accumulated — this batch and any that
// arrived since the previous write was handed out — as one SaveEntries call
// (one WAL frame, one fsync); with one write already in flight it goes out
// beside it, from the stable index up. Stable broadcasts the newly durable
// suffix with one AppendEntries per peer, and only then are the futures
// acked. Batching only coalesces persistence and network operations, never
// commit rules.

// Proposal is the future returned by ProposeAsync — the node's one write
// entry. Wait blocks until the command has been appended to the leader's log
// and made durable (or the proposal failed).
type Proposal struct {
	cmd  []byte
	done chan struct{}

	// idx, term, and err are written once before done is closed and may
	// be read only after it (Wait establishes the happens-before edge).
	idx  int
	term types.Time
	err  error
}

// Wait blocks until the proposal's entry is durable in the leader's log
// (and so broadcast) or the proposal failed, and returns the assigned index
// and term.
func (p *Proposal) Wait() (int, types.Time, error) {
	<-p.done
	return p.idx, p.term, p.err
}

// Done is closed once the proposal has resolved; use Wait for the result.
func (p *Proposal) Done() <-chan struct{} { return p.done }

func (p *Proposal) complete() { close(p.done) }

func (p *Proposal) fail(err error) {
	p.err = err
	close(p.done)
}

// ProposeAsync submits a client command for group commit and returns a
// future. Concurrent proposals are coalesced: everything appended while
// the write lane is full becomes one WAL frame with a single fsync and one
// broadcast per peer, so fsyncs per operation fall toward 1/batch-size under
// load. The future fails with ErrNotLeader if this node is not (or stops
// being) the leader before the entry is durable, with ErrLeaderStepdown on a
// CheckQuorum or stalled-disk step-down, with ErrStorageFailed if the write
// fails, and with ErrStopped on shutdown.
func (n *Node) ProposeAsync(cmd []byte) *Proposal {
	p := &Proposal{cmd: cmd, done: make(chan struct{})}
	// Only propMu here — NOT the state mutex: enqueueing never contends
	// with message stepping. Leadership is checked at flush time under mu
	// (the future fails with ErrNotLeader if this node is not the leader
	// when the batch reaches the log).
	n.propMu.Lock()
	if n.stopping {
		n.propMu.Unlock()
		p.fail(ErrStopped)
		return p
	}
	n.pendingProps = append(n.pendingProps, p)
	n.propMu.Unlock()
	// Wake the flush loop; a pending signal already covers this proposal.
	select {
	case n.flushCh <- struct{}{}:
	default:
	}
	return p
}

// flushLoop is the leader's group-commit loop: each wakeup drains the
// whole pending buffer as one batch. On shutdown it fails whatever is
// still queued so no waiter hangs.
func (n *Node) flushLoop() {
	defer n.done.Done()
	for {
		select {
		case <-n.stopCh:
			n.propMu.Lock()
			n.stopping = true
			batch := n.pendingProps
			n.pendingProps = nil
			n.propMu.Unlock()
			for _, p := range batch {
				p.fail(ErrStopped)
			}
			return
		case <-n.flushCh:
			// Let the batch form before flushing: yield while the queue is
			// still growing so proposers that are runnable (woken by the
			// previous flush, or arriving concurrently) join this frame
			// instead of forcing one fsync each. Bounded and timer-free: a
			// lone proposer costs at most two scheduler yields, and on a
			// single-CPU box — where a blocking fsync can monopolize the
			// only P — this is what lets batches grow at all.
			prev := -1
			for i := 0; i < 4; i++ {
				n.propMu.Lock()
				l := len(n.pendingProps)
				n.propMu.Unlock()
				if l == prev {
					break
				}
				prev = l
				runtime.Gosched()
			}
			n.flushBatch()
		}
	}
}

// flushBatch appends every pending proposal to the core's log and leaves
// the futures with the driver: it completes them once their entries are
// durable, so an acked proposal is always recoverable from the WAL.
func (n *Node) flushBatch() {
	// Drain the queue under propMu alone, then do the protocol work under
	// mu. Proposals enqueued after the drain are covered by their own
	// flushCh signal and land in the next ProposeBatch.
	n.propMu.Lock()
	batch := n.pendingProps
	n.pendingProps = nil
	n.propMu.Unlock()
	if len(batch) == 0 {
		return
	}
	n.mu.Lock()
	err := n.d.err
	if err == nil {
		err = n.haltedLocked()
	}
	var first int
	var term types.Time
	if err == nil {
		cmds := make([][]byte, len(batch))
		for i, p := range batch {
			cmds[i] = p.cmd
		}
		first, term, err = n.core.ProposeBatch(cmds)
	}
	if err != nil {
		n.mu.Unlock()
		for _, p := range batch {
			p.fail(err)
		}
		return
	}
	for i, p := range batch {
		p.idx, p.term = first+i, term
	}
	n.d.props = append(n.d.props, batch...)
	n.d.Ready()
	n.mu.Unlock()
}
