GO ?= go

.PHONY: all build test short vet race bench bench-json bench-read-json bench-obs-json bench-scan-json bench-partition-json bench-disk-json bench-net-json bench-smoke fuzz loadgen-smoke repro torture torture-short torture-partitioned torture-file

all: build vet short

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Short mode skips the minutes-long shape experiments; this is the
# fast tier CI should gate on.
short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Race-check the concurrent-by-design packages (the lock-free read path,
# the sharded metrics registry and the stats accumulators it merges,
# the network session table and the admission queue, the log flushers,
# the device queues, the lock manager, and the workloads' transaction
# bodies, which run on partition executor goroutines).
race:
	$(GO) test -race -short ./internal/btree/... ./internal/buffer/... \
		./internal/storage/... ./internal/obs/... ./internal/stats/... \
		./internal/tprofiler/... ./internal/mvcc/... ./internal/exec/... \
		./internal/engine/... ./internal/partition/... ./internal/workload/... \
		./internal/server/... ./internal/admit/... \
		./internal/wal/... ./internal/disk/... ./internal/lock/...

# Observability overhead guardrail (see docs/OBSERVABILITY.md).
bench:
	$(GO) test -run xxx -bench BenchmarkObsOverhead ./internal/obs/

# Commit hot-path benchmark suite -> BENCH_PR2.json, including the frozen
# pre-PR baseline for before/after comparison (see docs/PERF.md).
bench-json:
	sh scripts/bench_json.sh commit BENCH_PR2.json

# Observability overhead suite -> BENCH_PR6.json: the disabled/enabled
# metric paths plus the new span-capture, sampling-decision and
# variance-attribution cases the PR-6 budget model is calibrated from.
bench-obs-json:
	sh scripts/bench_json.sh obs BENCH_PR6.json

# Read hot-path benchmark suite at -cpu 1,8 -> BENCH_PR3.json (sharded
# buffer pool, seqlock table reads, lock-free catalog; see docs/PERF.md).
bench-read-json:
	sh scripts/bench_json.sh read BENCH_PR3.json

# MVCC scan-path suite -> BENCH_PR7.json: writer commit p50/p99 with and
# without a sustained snapshot scan, snapshot scan throughput under
# writers, iterator composition vs closure scans, plan-cache hit/miss
# (see docs/PERF.md).
bench-scan-json:
	sh scripts/bench_json.sh scan BENCH_PR7.json

# Horizontal-partitioning suite -> BENCH_PR8.json: single-partition
# TPC-C scaling across 1/2/4 partitions at -cpu 1,2,4,8 plus the
# multi-partition-ratio sensitivity curve (see docs/PERF.md).
bench-partition-json:
	sh scripts/bench_json.sh partition BENCH_PR8.json

# Durability-backend suite -> BENCH_PR9.json: WAL group-commit
# throughput on the simulated device vs a real file (fdatasync-per-Sync
# and O_DSYNC), plus the commit-stall guardrail — writer p50/p99 with a
# periodic online checkpointer vs none, both backends (see docs/PERF.md).
bench-disk-json:
	sh scripts/bench_json.sh disk BENCH_PR9.json

# Network service layer suite -> BENCH_PR10.json: per-frame request
# path + raw wire codec, admitted p99 under 2x open-loop overload with
# the shed controller on vs off, 100k multiplexed sessions
# (see docs/SERVER.md and docs/PERF.md).
bench-net-json:
	sh scripts/bench_json.sh net BENCH_PR10.json

# One-iteration benchmark compile-and-run pass over the hot-path
# packages: catches benchmarks that no longer build or panic without
# paying for a measurement run (CI runs this).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x \
		./internal/buffer/ ./internal/storage/ ./internal/engine/ \
		./internal/lock/ ./internal/wal/ ./internal/obs/ ./internal/exec/ \
		./internal/mvcc/ ./internal/partition/ ./internal/server/

# Bounded fuzz pass over every codec an untrusted byte stream can
# reach: the WAL frame decoder, the page codec, and the wire protocol
# framing (decode + field round-trip). Seed corpora live under each
# package's testdata/fuzz/. FUZZTIME bounds each target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/wal     -run '^$$' -fuzz FuzzWALDecode      -fuzztime $(FUZZTIME)
	$(GO) test ./internal/storage -run '^$$' -fuzz FuzzPageCodec      -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server  -run '^$$' -fuzz FuzzWireDecode     -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server  -run '^$$' -fuzz FuzzWireRoundTrip  -fuzztime $(FUZZTIME)

# End-to-end loadgen smoke: a real vatsd process serving a real
# vatsload run (5s, mixed reads/writes, 10k idle sessions); vatsload
# exits nonzero on any protocol error (CI runs this).
loadgen-smoke:
	$(GO) build -o /tmp/vatsd ./cmd/vatsd
	$(GO) build -o /tmp/vatsload ./cmd/vatsload
	/tmp/vatsd -addr 127.0.0.1:47510 & \
	VATSD_PID=$$!; \
	sleep 1; \
	/tmp/vatsload -addr 127.0.0.1:47510 -rate 500 -duration 5s \
		-sessions 10000 -write-frac 0.25 -class-mix 0.2,0.6,0.2 -setup; \
	rc=$$?; \
	kill $$VATSD_PID 2>/dev/null; \
	exit $$rc

repro:
	$(GO) run ./cmd/repro -quick

# Crash & fault-injection torture campaign against the recovery path
# (see docs/TESTING.md). Every round is a pure function of its seed:
# `make torture SEED=<s> CRASHES=1` replays a failure byte-for-byte.
SEED ?= 1
CRASHES ?= 1000
torture:
	$(GO) run ./cmd/torture -seed $(SEED) -crashes $(CRASHES)

# Bounded, race-checked slice of the campaign for CI (<60s).
torture-short:
	$(GO) test -race -short -run 'TestTorture|TestRound|TestCleanShutdown' ./internal/torture/

# Cross-partition (2PC) commit torture: crash points in the prepare,
# decide and participant-apply windows, audited for all-or-nothing
# visibility. Seed-replayable like the single-engine campaign.
torture-partitioned:
	$(GO) run ./cmd/torture -partitioned -seed $(SEED) -crashes $(CRASHES)

# The same campaign against real files: every log device is a real
# file in a temp dir, faults (torn pwrite, dropped fdatasync, crash
# points) injected at the pwrite/fdatasync boundary. Seed-replayable.
torture-file:
	$(GO) run ./cmd/torture -backend file -seed $(SEED) -crashes $(CRASHES)
