// Package adore is a from-scratch Go reproduction of "Adore: Atomic
// Distributed Objects with Certified Reconfiguration" (Honoré, Shin, Kim,
// Shao; PLDI 2022).
//
// The repository implements the paper's entire stack: the Adore
// protocol-level model with its cache-tree state and generic hot
// reconfiguration (internal/core, internal/config), the earlier ADO and
// reconfiguration-free CADO models (internal/ado, internal/cado), the
// paper's safety theorems as executable checkers with a bounded model
// checker standing in for the Coq proofs (internal/invariant,
// internal/explore), the §5 refinement stack down to an asynchronous
// network specification (internal/raftnet, internal/sraft,
// internal/refine), an executable Raft runtime with persistence and a
// replicated key-value store (internal/raft, internal/kvstore), and the
// canonical benchmark on the real TCP + FileStorage stack (benchmark/),
// whose reconfig-fig16 workload is the paper's Fig. 16.
//
// Start with README.md for orientation, DESIGN.md for the system inventory
// and per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
package adore
