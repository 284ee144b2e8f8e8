GO ?= go

.PHONY: all build test race vet lint lint-teeth check loc bench benchmark-smoke bench-compare fuzz-smoke chaos chaos-smoke teeth chaos-parity kv-race proposal-race fingerprints sim-sweep sim-sweep-groups

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -shuffle=on randomizes test order within each package, so tests that
# quietly depend on a predecessor's side effects fail loudly (the seed is
# printed for replay).
race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# lint runs adore-lint, the repo-specific static checker (cmd/adore-lint):
# cache immutability, model determinism, lockset discipline, exhaustive
# switches over the model's enum types, transitive purity of the core and
# model packages, the effect order of the staged Ready driver (Core.Stable
# only after the batch's Storage.Save* calls, never from their error branch),
# and the single writers of Core.commitIndex per role (learnCommit on
# followers, advanceCommit on leaders, the snapshot install) and of
# Core.lastApplied (TakeEffects, the snapshot install).
lint:
	$(GO) run ./cmd/adore-lint ./...

# lint-teeth proves each analysis still bites: the mutant fixtures under
# internal/lint/testdata (Stable before Save, Stable on the write's error
# path, a persist error merely logged on the lane, dropped persist error,
# transitive time.Now reach, bare call to a *Locked helper, unlock-then-read
# window, a read-reply handler assigning m.LeaderCommit to the commit index
# past the leaderMatch clamp, a heartbeat handler fast-forwarding the applied
# index past TakeEffects, ...) must keep producing their expected diagnostics, and the
# fixture harness fails any pass that goes inert (zero findings). The CLI
# golden tests pin output format and deterministic ordering the same way.
lint-teeth:
	$(GO) test -count=1 -run 'Fixture' ./internal/lint
	$(GO) test -count=1 -run 'CLI' ./cmd/adore-lint

# check is the full CI gate.
check: build vet lint lint-teeth race

# loc prints the Go line budget ROADMAP aim 2 tracks: the module's own
# non-test / test / total lines, with the canonical benchmark and the lint
# fixtures (separate modules of deliberately wrong code) listed apart.
loc:
	@count() { xargs -0 cat | wc -l; }; \
	own() { find . -name '*.go' -not -path './benchmark/*' -not -path './internal/lint/testdata/*' \
		-not -path './.bench_build/*' "$$@" -print0; }; \
	nontest=$$(own -not -name '*_test.go' | count); test=$$(own -name '*_test.go' | count); \
	echo "go lines: non-test $$nontest, test $$test, total $$((nontest + test))"; \
	echo "listed apart: benchmark/ $$(find benchmark -name '*.go' -print0 | count)," \
		"internal/lint/testdata $$(find internal/lint/testdata -name '*.go' -print0 | count)"

# chaos is the full local sweep: 200 seeded nemesis schedules against live
# clusters with file-backed WALs, every run checked against the safety
# oracles (linearizability, committed-prefix agreement, election safety).
# A failing seed is replayable verbatim: raft-chaos -seed N.
chaos:
	$(GO) run ./cmd/raft-chaos -seeds 200 -duration 2s

# chaos-smoke is the CI slice: fewer seeds, shorter horizon, race detector
# on the harness binary's cluster.
chaos-smoke:
	$(GO) run -race ./cmd/raft-chaos -seeds 25 -duration 1s

# teeth runs the teeth table (internal/chaos/teeth.go): every row on its 8
# seeds — a crafted schedule whose events wait for their premises must be
# clean with its guard on and show its violation with the guard knocked out
# (a regression row stays clean) on each, a premise never reached fails the
# row — every guard must have a row, and, live, a follower with
# its write blocked must still apply what the other two made durable while
# acking nothing above its own disk.
teeth:
	$(GO) test -count=1 -run '^(TestTeeth|TestEveryGuardHasATooth)$$' ./internal/chaos
	$(GO) test -count=1 -run 'TestFollowerAppliesAheadOfBlockedWrite' ./internal/raft

# chaos-parity checks the one harness both runtimes share (chaos.Env): the
# executor's Env call sequence for every event kind against a recording fake,
# the run loop and epilogue, and the teeth table's r2 row through Run and
# RunSim — same verdict with the guard on and off, the row's violation live
# and simulated, same nodes up and same configuration after the epilogue —
# under the race detector (the live monitor samples from its own goroutine),
# three times over.
chaos-parity:
	$(GO) test -race -count=3 -run 'TestExecutorEveryEvent|TestRunLoopAndEpilogue|TestLiveSimVerdictParity' ./internal/chaos

# kv-race runs the KV replica (kvstore.Server) under the race detector,
# three times over: the in-process service's scenarios, where a restarted
# node replays its storage into a fresh Store (DedupSurvivesShardSnapshot),
# three Servers over loopback TCP, the raft-kv binary's own tests (a
# restart on the same WAL, a get through the read barrier, the -read-mode
# flag), and when a write's proposal resolves: after its OnApply, at Stop on
# a volatile node, past the loss of the leadership it was made under, and
# under an installed snapshot.
kv-race:
	$(GO) test -race -count=3 -run 'TestReplicated|TestServerOverTCP|TestWritesSurviveRestart|TestGetThroughReadBarrier|TestReadModeFlag|$(PROPOSAL_TESTS)' ./internal/kvstore ./cmd/raft-kv ./internal/raft

# PROPOSAL_TESTS are the tests of a proposal's verdict. They cut leaders off
# and install snapshots on wall-clock timers, so proposal-race (a CI step)
# runs them twenty times under the race detector.
PROPOSAL_TESTS = TestWriteResolvesAfterApply|TestVolatileStopFailsPendingProposals|TestDurableProposalOutlivesLeadership|TestProposalCoveredBySnapshot

proposal-race:
	$(GO) test -race -count=20 -run '^($(PROPOSAL_TESTS))$$' ./internal/raft ./internal/kvstore

# fingerprints prints what TestJournalFingerprints hashes, row by row: each
# teeth-table row's journal hash and violation count with its guard on and
# off, then the four set hashes that
# internal/chaos/testdata/journal_fingerprints.txt pins. A change that moves
# the simulator quotes these in its EXPERIMENTS entry.
fingerprints:
	$(GO) test -count=1 -run TestJournalFingerprints -v ./internal/chaos

# sim-sweep runs the same schedules in the deterministic simulator: the
# whole execution (not just the fault plan) is a pure function of the seed,
# there are no wall-clock sleeps, and the executable refinement checker
# (replica logs vs the ADORE cache tree) joins the oracle set — so 500
# seeds finish in seconds and a failing seed replays byte-identically.
sim-sweep:
	$(GO) run ./cmd/raft-chaos -sim -seeds 500

# sim-sweep-groups is the multi-group sweep: 500 seeds with the keyspace
# hash-partitioned across 3 raft groups, every oracle (linearizability,
# committed prefix, refinement, election stability) checked per group.
sim-sweep-groups:
	$(GO) run ./cmd/raft-chaos -sim -groups 3 -seeds 500

# bench is the smoke pass CI runs: every Go benchmark once (-benchtime=1x,
# no test functions), i.e. the model benches in the root package and the
# codec and WAL benches in internal/kvstore and internal/raft. No
# thresholds: it just must complete, so the benchmarks can't bit-rot.
# Runtime performance is measured by the canonical benchmark (benchmark/).
bench:
	$(GO) test -bench . -benchtime=1x -benchmem -run '^$$' ./...

# benchmark-smoke runs the canonical benchmark (benchmark/README.md) short,
# once per named workload: the real stack over TCP + FileStorage must come up,
# serve, reload its WALs and report a correct run with no failed request.
# put-durable is the write path; put-volatile is the CPU-bound row (no disk,
# so the command and wire codecs, core stepping and apply are all there is);
# mixed-follower-read sends 90 % of its requests through the forwarded-read
# path (MsgReadIndexRequest/Response and the commit index riding the reply);
# reconfig-fig16 is the paper's Fig. 16, the one workload that removes and
# re-adds replicas (5->4->3->4->5) under load.
benchmark-smoke:
	@for w in put-durable put-volatile mixed-follower-read reconfig-fig16; do \
		out=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		echo "$$out"; \
		echo "$$out" | grep -Eq '"correct": ?true' && echo "$$out" | grep -Eq '"failed": ?0[,}]' || \
			{ echo "benchmark-smoke: $$w run incorrect or requests failed"; exit 1; }; \
	done

# fuzz-smoke runs every native fuzz target for 20 s from its committed
# seed corpus (testdata/fuzz/<target>/): the decoders of bytes that cross a
# trust boundary — a log payload, a Store image, a TCP stream, a WAL
# segment's base record (where the snapshot image lives), a raft-kv client
# line — must not panic, must not allocate by what a length prefix or a
# count claims, and must accept only what round-trips through their encoder;
# WAL replay after a crash that tore and overwrote the tail must return
# every acked entry or fail loudly; overlapping pure appends landed in any
# interleaving must replay to the in-order log. `go test -fuzz` takes one target and one
# package per run; a crasher is written to the package's testdata/fuzz/ and
# fails every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCommand$$' -fuzztime 20s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzStoreImage$$' -fuzztime 20s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelopeStream$$' -fuzztime 20s ./internal/raft
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime 20s ./internal/raft
	$(GO) test -run '^$$' -fuzz '^FuzzWALOverlappingAppends$$' -fuzztime 20s ./internal/raft
	$(GO) test -run '^$$' -fuzz '^FuzzSnapFile$$' -fuzztime 20s ./internal/raft
	$(GO) test -run '^$$' -fuzz '^FuzzParseCommand$$' -fuzztime 20s ./cmd/raft-kv

# bench-compare judges result file B against A with the bounds in
# BENCHMARK.json (make bench-compare A=parent.json B=change.json); the files
# come from `go run ./benchmark -workload all -runs N -trace both -out F`.
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<file> B=<file>"; exit 2; }
	$(GO) run ./benchmark -compare $(A) $(B)
