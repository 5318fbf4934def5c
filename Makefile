GO ?= go

.PHONY: build test bench microbench crash-sim soak soak-repl soak-scrub fuzz check vet race

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

# bench is the repository benchmark (benchmark/README.md): four workloads
# through the TCP server, five end-to-end metrics, per-layer numbers.
bench:
	$(GO) run ./benchmark

# microbench runs every package-local Benchmark* (EXPERIMENTS.md E11-E18
# name the ones they record).
microbench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/...

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
