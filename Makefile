GO ?= go

.PHONY: build test check fuzz-smoke bench-module bench-fo bench-cluster bench-restart bench-modes bench-modes-smoke bench-longitudinal bench-longitudinal-smoke bench-megadomain bench-megadomain-smoke bench-smoke chaos-cluster chaos-archive chaos-failover chaos-idle chaos-longitudinal

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
# and a mask-scan reference. A failing input lands in the package's
# testdata/fuzz directory.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDedupIndex$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/httpapi
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzQueryAnswer$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/serve

# The pipeline benchmark (bench/) is its own Go module, so ./... above never
# compiles it: vet it and run its smoke test, so an API change that breaks the
# benchmark fails here.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Shard-scaling benchmark: ingest throughput and time-to-engine-ready for
# 1/2/4 in-process shards, written to BENCH_PR4.json.
bench-cluster:
	$(GO) run ./cmd/felipbench -cluster -cout BENCH_PR4.json

# Cold-restart benchmark: time-to-serving for WAL replay vs archive snapshot
# restore over the same finalized round, written to BENCH_PR5.json.
bench-restart:
	$(GO) run ./cmd/felipbench -restart -rout BENCH_PR5.json

# Reporting-mode shootout: FELIP vs SPL vs RS+FD accuracy (MSE against true
# frequencies) and wire bytes across ε and dimensionality, written to
# BENCH_PR8.json.
bench-modes:
	$(GO) run ./cmd/felipbench -modes -mout BENCH_PR8.json

# bench-modes at CI-smoke sizes, with a sanity gate: the shootout must cover
# all three modes across at least two domain sizes, SPL and RS+FD must pay the
# m-fold wire cost, and FELIP must be at least as accurate as SPL at the
# highest-ε cells.
bench-modes-smoke:
	$(GO) run ./cmd/felipbench -modes -smoke -mout /tmp/BENCH_smoke_modes.json
	@python3 -c "import json; r = json.load(open('/tmp/BENCH_smoke_modes.json')); \
	cells = r['cells']; modes = {c['mode'] for c in cells}; \
	assert modes == {'FELIP', 'SPL', 'RS+FD'}, f'modes covered: {modes}'; \
	assert len({c['epsilon'] for c in cells}) >= 2 and len({c['attrs'] for c in cells}) >= 2, 'sweep too small'; \
	assert len({c['domain'] for c in cells}) >= 2, 'domain sweep missing'; \
	felip = {(c['epsilon'], c['domain'], c['attrs']): c for c in cells if c['mode'] == 'FELIP'}; \
	spl = {(c['epsilon'], c['domain'], c['attrs']): c for c in cells if c['mode'] == 'SPL'}; \
	assert all(s['wire_bytes'] > f['wire_bytes'] for (k, s), f in ((i, felip[i[0]]) for i in spl.items())), 'SPL should pay more wire bytes than FELIP'; \
	top = max(c['epsilon'] for c in cells); \
	assert all(felip[k]['mse'] <= spl[k]['mse'] * 1.05 for k in felip if k[0] == top), 'FELIP lost to SPL at the top epsilon'; \
	print(f'bench-modes gate: {len(cells)} cells, 3 modes, {len({c[\"domain\"] for c in cells})} domains, FELIP accuracy holds at eps={top}')"

# Longitudinal benchmark: memoized two-stage reporting vs the fresh-ε baseline
# across rounds — per-round MSE and cumulative privacy spend, written to
# BENCH_PR9.json.
bench-longitudinal:
	$(GO) run ./cmd/felipbench -longitudinal -lout BENCH_PR9.json

# bench-longitudinal at CI-smoke sizes, with the PR's acceptance gate: the
# memoized arm's mean per-round MSE must stay within 2x of the fresh-ε
# baseline at equal per-round budget, and the cumulative spend must stay fixed
# at ε_perm + ε_1 in every round while the baseline grows r·ε_1.
bench-longitudinal-smoke:
	$(GO) run ./cmd/felipbench -longitudinal -smoke -lout /tmp/BENCH_smoke_long.json
	@python3 -c "import json; r = json.load(open('/tmp/BENCH_smoke_long.json')); \
	results = r['results']; assert results, 'no budget points'; \
	assert all(p['mse_ratio'] <= 2 for p in results), f'longitudinal MSE beyond 2x of fresh: {[p[\"mse_ratio\"] for p in results]}'; \
	assert all(rd['eps_cum_longitudinal'] == p['eps_perm'] + p['eps1'] for p in results for rd in p['rounds']), 'cumulative spend drifted'; \
	assert all(rd['eps_cum_fresh'] == rd['round'] * p['eps1'] for p in results for rd in p['rounds']), 'fresh baseline spend wrong'; \
	assert all(p['eps_cum_final'] < p['eps_fresh_final'] for p in results), 'memoization did not beat fresh spend by the last round'; \
	print(f'bench-longitudinal gate: {len(results)} budget points, mse ratios {[round(p[\"mse_ratio\"], 2) for p in results]}, cumulative spend fixed')"

# Mega-domain benchmark: every frequency oracle over 2^10..2^17 categorical
# domains — estimation MSE × bytes on the wire — written to BENCH_PR10.json.
bench-megadomain:
	$(GO) run ./cmd/felipbench -megadomain -dout BENCH_PR10.json

# bench-megadomain at CI-smoke sizes, with the PR's acceptance gates: HR must
# cost at most 16 bytes/user on the wire at L=2^17 (against OUE's O(L)
# bitset records) while keeping MSE within 2x of OLH at equal ε, and the AFO
# must pick HR on mega-domains only.
bench-megadomain-smoke:
	$(GO) run ./cmd/felipbench -megadomain -smoke -dout /tmp/BENCH_smoke_megadomain.json
	@python3 -c "import json; r = json.load(open('/tmp/BENCH_smoke_megadomain.json')); \
	cells = r['cells']; assert cells, 'no cells'; \
	protos = {c['proto'] for c in cells}; \
	assert protos == {'GRR', 'OLH', 'OUE', 'HR'}, f'oracles covered: {protos}'; \
	assert len({c['epsilon'] for c in cells}) >= 2 and len({c['domain'] for c in cells}) >= 3, 'sweep too small'; \
	top = max(c['domain'] for c in cells); assert top >= 1 << 17, f'largest domain {top} < 2^17'; \
	hr = {(c['domain'], c['epsilon']): c for c in cells if c['proto'] == 'HR'}; \
	olh = {(c['domain'], c['epsilon']): c for c in cells if c['proto'] == 'OLH'}; \
	oue = {(c['domain'], c['epsilon']): c for c in cells if c['proto'] == 'OUE'}; \
	assert all(c['bytes_per_user'] <= 16 for (d, e), c in hr.items() if d == top), \
	f'HR bytes/user at L=2^17: {[c[\"bytes_per_user\"] for (d, e), c in hr.items() if d == top]}'; \
	assert all(c['mse'] <= olh[k]['mse'] * 2 for k, c in hr.items()), \
	f'HR MSE beyond 2x OLH: {[(k, c[\"mse\"] / olh[k][\"mse\"]) for k, c in hr.items()]}'; \
	assert all(c['bytes_per_user'] >= (d / 8) for (d, e), c in oue.items()), 'OUE wire cost not O(L)'; \
	assert all(c['afo_choice'] == ('HR' if d >= 1 << 14 else 'OLH') for (d, e), c in hr.items()), \
	f'AFO choices: {[(d, c[\"afo_choice\"]) for (d, e), c in hr.items()]}'; \
	worst = max(c['mse'] / olh[k]['mse'] for k, c in hr.items()); \
	b = max(c['bytes_per_user'] for (d, e), c in hr.items() if d == top); \
	print(f'bench-megadomain gate: {len(cells)} cells, HR {b:.2f} bytes/user at L=2^17, worst HR/OLH mse ratio {worst:.2f}x')"

# The shard-scaling and cold-restart benchmarks at CI-smoke sizes (seconds,
# not minutes); reports land in /tmp so a smoke run never clobbers the
# checked-in numbers. felipbench exits non-zero, failing the target, when a
# merged round's grids or a restarted server's answers are not bit-identical.
bench-smoke:
	$(GO) run ./cmd/felipbench -cluster -restart -smoke -reps 1 \
		-cout /tmp/BENCH_smoke_cluster.json -rout /tmp/BENCH_smoke_restart.json

# Cluster chaos drill: kill a durable shard mid-round, restart it from its
# WAL, truncate the coordinator's state pulls, and require bit-identical
# answers — under the race detector.
chaos-cluster:
	$(GO) test -race -run 'TestClusterChaos|TestShardStateRepullAfterCrash' -v ./internal/cluster

# Archive chaos drill: corrupted and torn snapshots skipped on open, a crash
# in the window between snapshot fsync and WAL truncation recovered without
# double-counting, and a coordinator kill -9 survived with bit-identical
# current and historical answers — under the race detector.
chaos-archive:
	$(GO) test -race -v \
		-run 'TestOpenSkipsCorruptSnapshots|TestEnvelopeRejectsDamage|TestCrashBetweenSnapshotAndTruncate|TestArchiveRestartSnapshotPlusTail|TestCoordinatorArchiveRestart' \
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
