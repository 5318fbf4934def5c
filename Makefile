GO ?= go

.PHONY: build test bench microbench crash-sim soak soak-repl soak-scrub fuzz check vet race loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet also fails when any Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l .); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

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
# name the ones they record; BenchmarkRecover builds a 32 000-annotation
# data directory first, a few seconds).
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
# injected into the annotation-text pages on disk of a primary/replica
# pair; the scrubber must detect every flip and quarantine each page,
# zoom-ins over a quarantined page must shed with the structured CORRUPT
# error, a restart of either node must rebuild its page file from its own
# checkpoint and WAL and converge record for record, and a disagreeing
# index must be rebuilt from its table's rows.
soak-scrub:
	$(GO) test -run TestScrubSoak -count=1 -race -short -v ./internal/replication/

# fuzz runs each fuzz target briefly — the page record round-trip, the
# hostile-raw-page read paths, the order-preserving key decoder, the
# tokenizer's ASCII loop against its rune loop, the SQL parser's $n
# placeholder binding and re-rendering, the statement renderers as a
# fixpoint of the parser (and an identity expression Rewrite as a no-op),
# the result-path codec's
# Reader, the binary decoders of wire request/response frames and
# zoom-in spill entries, the WAL tail reader over arbitrary log bytes,
# every WAL record body decoder, Load over arbitrary checkpoint bytes, the
# replication message decoder, the summary algebra's operations against
# its map-based model, the checkpoint's envelope decoder, and the summary
# renderer's quoting and plain test against strconv.Quote. A smoke; raise FUZZTIME locally for real
# exploration.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPageRoundTrip -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzPageRawBytes -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzDecodeKey -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/textmining/
	$(GO) test -run '^$$' -fuzz FuzzParsePlaceholders -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzStatementFixpoint -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzCodec -fuzztime $(FUZZTIME) ./internal/codec/
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCachedResult -fuzztime $(FUZZTIME) ./internal/zoomin/
	$(GO) test -run '^$$' -fuzz FuzzTailReader -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/engine/
	$(GO) test -run '^$$' -fuzz FuzzReplicationMessage -fuzztime $(FUZZTIME) ./internal/replication/
	$(GO) test -run '^$$' -fuzz FuzzEnvelopeOps -fuzztime $(FUZZTIME) ./internal/summary/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnvelope -fuzztime $(FUZZTIME) ./internal/summary/
	$(GO) test -run '^$$' -fuzz FuzzAppendQuoted -fuzztime $(FUZZTIME) ./internal/summary/

# loc prints, for each package under internal/, its non-test and its test
# Go line counts (test: TestGoFiles and XTestGoFiles; build-constrained
# files the host would not compile are left out), then both totals.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}|{{range .TestGoFiles}} {{$$.Dir}}/{{.}}{{end}}{{range .XTestGoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./internal/... | \
		while IFS='|' read -r src tests; do set -- $$src; pkg=$$1; shift; \
			printf '%7d %7d %s\n' "$$(cat /dev/null "$$@" | wc -l)" "$$(cat /dev/null $$tests | wc -l)" "$${pkg#*/}"; done | \
		awk 'BEGIN { print "non-test    test" } { print; n += $$1; t += $$2 } END { printf "%7d %7d total\n", n, t }'
