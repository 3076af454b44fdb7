GO ?= go

.PHONY: build test check fuzz-smoke bench-module bench-fo bench-restart bench-modes bench-longitudinal bench-megadomain bench-smoke chaos-cluster chaos-archive chaos-failover chaos-idle chaos-longitudinal

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full gate: gofmt, vet, and the tier-1 suite under the race detector.
check:
	@unformatted="$$(gofmt -l .)"; test -z "$$unformatted" || { echo "gofmt -l:" $$unformatted; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# Native fuzz targets, about 10 s each: FuzzDedupIndex runs decoded
# operations against the idempotency-key index and a map reference;
# FuzzFrameReader feeds arbitrary and resealed frames, seeded from the golden
# ones, to the frame decoder and requires every id it accepts to come back
# byte-identical from the WAL; FuzzQueryAnswer feeds arbitrary WHERE strings
# to the query parser and answers what it accepts through the serving engine
# and a mask-scan reference; FuzzSegment feeds arbitrary and resealed WAL
# segments to Open and VerifySegment and requires them to agree; FuzzSnapshot
# feeds arbitrary and resealed archive snapshots to Decode, requires what it
# accepts to re-encode stably, and serves its aggregate; FuzzShardState feeds
# arbitrary and resealed shard-state JSON to Verify and States and requires a
# verified message to rebuild with its own checksum; FuzzFitProduct decodes
# response-matrix problems (dims of 1-16, a 2-D grid, optional 1-D grids,
# targets, a threshold and a sweep cap) and span selections, and requires the
# product-form fit to match the entry-wise reference with no NaN or Inf and
# its four quadrant masses to match the reference's mask sums. A failing
# input lands in the package's testdata/fuzz directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDedupIndex$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzQueryAnswer$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSegment$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/reportlog
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshot$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/archive
	$(GO) test -run '^$$' -fuzz '^FuzzShardState$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFitProduct$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/estimate

# The pipeline benchmark (bench/) is its own Go module, so ./... above never
# compiles it: vet it and run its smoke test, so an API change that breaks the
# benchmark fails here.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Cold-restart benchmark: time-to-serving for WAL replay vs archive snapshot
# restore over the same finalized round, written to BENCH_PR5.json.
bench-restart:
	$(GO) run ./cmd/felipbench -restart -rout BENCH_PR5.json

# Reporting-mode shootout: FELIP vs SPL vs RS+FD accuracy (MSE against true
# frequencies) and wire bytes across ε and dimensionality, written to
# BENCH_PR8.json. TestModeShootoutGate (internal/experiment) gates it at
# small sizes in every `go test` run.
bench-modes:
	$(GO) run ./cmd/felipbench -modes -mout BENCH_PR8.json

# Longitudinal benchmark: memoized two-stage reporting vs the fresh-ε baseline
# across rounds — per-round MSE and cumulative privacy spend, written to
# BENCH_PR9.json. TestLongitudinalGate (internal/experiment) gates it at
# small sizes in every `go test` run.
bench-longitudinal:
	$(GO) run ./cmd/felipbench -longitudinal -lout BENCH_PR9.json

# Mega-domain benchmark: every frequency oracle over 2^10..2^17 categorical
# domains — estimation MSE × bytes on the wire — written to BENCH_PR10.json.
# TestMegaDomainGate (internal/experiment) gates it at small sizes in every
# `go test` run.
bench-megadomain:
	$(GO) run ./cmd/felipbench -megadomain -dout BENCH_PR10.json

# The cold-restart benchmark at CI-smoke size (seconds, not minutes); the
# report lands in /tmp so a smoke run never clobbers the checked-in numbers.
# felipbench exits non-zero, failing the target, when a restarted server's
# answers are not bit-identical.
bench-smoke:
	$(GO) run ./cmd/felipbench -restart -smoke -reps 1 -rout /tmp/BENCH_smoke_restart.json

# Cluster chaos drill: kill a durable shard mid-round, restart it from its
# WAL, truncate the coordinator's state pulls, and require bit-identical
# answers; and require the coordinator to mount none of its merged round's
# ingest, assignment, shard-state or replication routes — under the race
# detector.
chaos-cluster:
	$(GO) test -race -run 'TestClusterChaos|TestShardStateRepullAfterCrash|TestCoordinatorServesNoIngestRoutes' -v ./internal/cluster

# Archive chaos drill: corrupted and torn snapshots skipped on open, a crash
# in the window between snapshot fsync and WAL truncation recovered without
# double-counting, a coordinator kill -9 survived with bit-identical
# current and historical answers, a coordinator's snapshots byte-identical
# to a single node's over the same reports, a segment chain with a gap
# refused, rounds
# replayed from a WAL-only history archived on the first start with an
# archive, a round whose snapshot failed keeping its segment, and a shard
# restored from its archive re-exporting its sealed round's exact counts —
# under the race detector.
chaos-archive:
	$(GO) test -race -v \
		-run 'TestOpenSkipsCorruptSnapshots|TestEnvelopeRejectsDamage|TestCrashBetweenSnapshotAndTruncate|TestArchiveRestartSnapshotPlusTail|TestCoordinatorArchiveRestart|TestCoordinatorSnapshotMatchesSingleNode|TestRecoverRefusesChainGap|TestRecoverArchivesEveryReplayedRound|TestFailedSnapshotKeepsSegment|TestRestoredShardRepullsSealedRound' \
		./internal/archive ./internal/httpapi ./internal/cluster

# Failover chaos drill: kill a primary mid-round with its WAL shipped to a
# follower, promote the follower after strict CRC-chain verification, reroute
# devices via a membership refresh, and require bit-identical answers and a
# bit-identical replayed shard state — under the race detector.
chaos-failover:
	$(GO) test -race -v \
		-run 'TestClusterFailoverBitIdentical|TestPromotedFollowerStateBitIdentical|TestPromotionRefusedOnCorruptSegment|TestMembershipHeartbeatFlappingAroundTimeout|TestShardJoinsWhileRoundIsSealing' \
		./internal/cluster

# Idle-round + batch-ingest chaos drill: restart and promotion replay chains
# crossing a zero-report round, truncated-segment refusal, and batch frames
# surviving mid-write crashes and seal straddling exactly-once — under the
# race detector.
chaos-idle:
	$(GO) test -race -v \
		-run 'TestRestartChainSpansIdleRound|TestEmptySealReplayRepullIdentical|TestPromotionChainSpansIdleRound|TestFollowerRefusesTruncatedArchivedRound|TestBatch' \
		./internal/httpapi ./internal/cluster

# Longitudinal chaos drill: kill a device (and, at the HTTP layer, the server
# and its memo-store handle) mid-sequence, restart both, and require the
# memoized permanent value to survive bit-identically with no fresh ε_perm
# spend — plus WAL cross-replay refusal in both directions — under the race
# detector.
chaos-longitudinal:
	$(GO) test -race -v \
		-run 'TestChaosDeviceRestartKeepsMemo|TestLongitudinalChaosRestartMidSequenceHTTP|TestLongitudinalWALCrossReplayRefused' \
		./internal/longitudinal ./internal/httpapi

# Raw go-bench microbenchmarks for the frequency-oracle kernel.
bench-fo:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/fo/
