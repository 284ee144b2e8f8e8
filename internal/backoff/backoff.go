// Package backoff is the repository's single definition of capped,
// jittered exponential backoff. The kvstore client's leader probing,
// cluster.WaitCommit's commit polling and the transport's redial of a peer
// that is down all use it, so the policy (double with full jitter on the
// upper half, cap, clip to the caller's deadline) lives in exactly one place.
//
// Every Backoff owns its own rand.Rand: two instances never share a jitter
// stream. That matters under contention — after a leader step-down,
// clients drawing jitter from one shared source march through the same
// sequence and retry in near-lockstep, re-creating the thundering herd the
// jitter exists to break up. Seed each concurrent client differently
// (NextSeed does this) and their retry times disperse.
package backoff

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// seedCounter makes NextSeed return a distinct value per call.
var seedCounter atomic.Int64

// NextSeed returns a process-unique seed: a counter mixed with the clock,
// so concurrent constructions — and repeated runs — get distinct streams.
func NextSeed() int64 {
	return time.Now().UnixNano() ^ (seedCounter.Add(1) << 32)
}

// Backoff is one capped jittered exponential backoff sequence. Not safe
// for concurrent use; give each goroutine its own instance.
type Backoff struct {
	initial time.Duration
	max     time.Duration
	next    time.Duration
	rng     *rand.Rand
}

// New creates a backoff that starts at initial, doubles per step, and
// caps at max, drawing jitter from a private stream seeded with seed.
func New(initial, max time.Duration, seed int64) *Backoff {
	return &Backoff{
		initial: initial,
		max:     max,
		next:    initial,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Reset rewinds the sequence to the initial delay (e.g. after progress:
// the next stall is a fresh incident, not a continuation).
func (b *Backoff) Reset() { b.next = b.initial }

// Delay returns the current jittered delay — uniform in [next/2, next] —
// and advances the sequence (doubling up to the cap). It reads no clock, so
// a caller with a clock of its own (a logical one) clips it itself.
func (b *Backoff) Delay() time.Duration {
	d := b.next/2 + time.Duration(b.rng.Int63n(int64(b.next/2)+1))
	b.next *= 2
	if b.next > b.max {
		b.next = b.max
	}
	return d
}

// Next is Delay clipped so it never overshoots deadline; once deadline has
// passed it returns 0.
func (b *Backoff) Next(deadline time.Time) time.Duration {
	return min(b.Delay(), max(time.Until(deadline), 0))
}

// Sleep blocks for Next(deadline).
func (b *Backoff) Sleep(deadline time.Time) {
	if d := b.Next(deadline); d > 0 {
		time.Sleep(d)
	}
}
