GO ?= go

.PHONY: build test bench bench-metrics bench-wal bench-parallel bench-storage bench-trace bench-prepare crash-sim soak soak-repl soak-scrub fuzz check vet race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-merge gate, scripts/check.sh: vet, the race suite on two
# host shapes, and the crash-sim, soak and fuzz targets below.
check:
	sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-metrics measures observability overhead: the raw registry hot paths
# and the end-to-end statement cost with metrics on vs off. Numbers are
# recorded in EXPERIMENTS.md (E12) with a ≤5% end-to-end budget.
bench-metrics:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/metrics/
	$(GO) test -bench='BenchmarkInstrumentationOverhead|BenchmarkConcurrentReaders' -benchmem -run=^$$ .

# bench-wal measures durability overhead (fsync-per-commit INSERT vs
# in-memory) and cold-start WAL replay speed. Recorded in E13.
bench-wal:
	$(GO) test -bench='BenchmarkInsertMemory|BenchmarkInsertDurable|BenchmarkRecoveryReplay' -benchmem -run=^$$ ./internal/engine/

# bench-parallel measures E14: morsel-driven parallel scan scaling over
# worker counts and the vectorized batch pipeline vs row-at-a-time
# execution. Speedup tracks physical cores. Recorded in E14.
bench-parallel:
	$(GO) test -bench='BenchmarkParallelScan|BenchmarkBatchPipeline' -benchmem -run=^$$ .

# bench-storage measures the disk-backed storage layer: B+tree index point
# and range lookups vs forced full heap scans at 10k/100k/1M rows, through
# the cost-based planner. Recorded in E15.
bench-storage:
	$(GO) test -bench='BenchmarkStoragePointLookup|BenchmarkStorageRangeScan' -benchmem -run=^$$ ./internal/engine/

# bench-trace measures lifecycle-tracing overhead: the end-to-end
# statement cost with tracing off, at the default 5% tail sample, and
# fully retained. Recorded in E16 with a ≤5% budget at the default rate.
bench-trace:
	$(GO) test -bench=BenchmarkTraceOverhead -benchmem -run=^$$ ./internal/engine/

# bench-prepare measures E18: repeated EXECUTE of a prepared statement
# (plan cache hit, no parse/cost) vs the same query ad-hoc with the cache
# disabled, and BULK INSERT (one WAL record + fsync per batch) vs
# row-at-a-time durable inserts. Recorded in E18.
bench-prepare:
	$(GO) test -bench='BenchmarkAdhocSelect|BenchmarkPreparedExecute' -benchmem -run=^$$ ./internal/engine/
	$(GO) test -bench='BenchmarkRowInsertDurable|BenchmarkBulkInsertDurable' -benchmem -run=^$$ ./internal/engine/

# crash-sim is the fault-injection gate on its own: every registered
# failpoint in the WAL/snapshot paths, three runs, race detector on.
crash-sim:
	$(GO) test -run TestCrashRecovery -count=3 -race ./internal/engine/

# soak is the overload harness on its own: clients at a multiple of the
# admitted statement capacity against a durable engine in degraded
# maintenance mode, race detector on, -short for the check-gate duration.
soak:
	$(GO) test -run TestOverloadSoak -count=1 -race -short -v ./internal/server/

# soak-repl is the replication chaos soak on its own: a primary with an
# aggressive checkpoint cadence, two read replicas behind staleness
# bounds, a live workload, and a crash-failpoint kill-and-restart of one
# replica mid-stream; final states are compared record for record and
# stale replicas must shed reads with the structured STALE error.
soak-repl:
	$(GO) test -run TestReplicationSoak -count=1 -race -short -v ./internal/replication/

# soak-scrub is the bit-rot chaos soak on its own: random byte flips
# injected into heap pages on disk of a primary/replica pair; the scrubber
# must detect every flip, repair memory-mirrored pages locally, repair row
# and annotation pages from a CRC-verified snapshot over the replication
# link, rebuild a disagreeing index from the heap, and shed reads of
# unrepairable pages with the structured CORRUPT error.
soak-scrub:
	$(GO) test -run TestScrubSoak -count=1 -race -short -v ./internal/replication/

# fuzz runs each storage fuzz target briefly — the page record round-trip,
# the hostile-raw-page read paths, and the order-preserving key decoder.
# A smoke; raise FUZZTIME locally for real exploration.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPageRoundTrip -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzPageRawBytes -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeKey -fuzztime $(FUZZTIME) ./internal/storage/
