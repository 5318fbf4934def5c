#!/bin/sh
# Pre-merge gate: go vet, the full test suite under the race detector on
# two host shapes, the crash and chaos soaks, and the fuzz smokes.
# The naming lints are ordinary tests (internal/lint) and run with the suite.
set -eu
cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...
# One core and several: the planner and executor must not let the host's
# shape decide what a test observes.
for procs in 1 4; do
	echo ">> go test -race ./... (GOMAXPROCS=$procs)"
	GOMAXPROCS=$procs go test -race ./...
done
echo ">> crash simulation (x3, race)"
go test -run TestCrashRecovery -count=3 -race ./internal/engine/
echo ">> overload soak (short, race)"
go test -run TestOverloadSoak -count=1 -race -short ./internal/server/
echo ">> replication chaos soak: kill-and-restart a replica mid-stream (race)"
go test -run TestReplicationSoak -count=1 -race -short ./internal/replication/
echo ">> bit-rot chaos soak: flip bytes on disk, scrub, repair over the replication link (race)"
go test -run TestScrubSoak -count=1 -race -short ./internal/replication/
echo ">> storage fuzz smoke: page round-trip, hostile raw pages, key decoding"
go test -run '^$' -fuzz FuzzPageRoundTrip -fuzztime 3s ./internal/storage/
go test -run '^$' -fuzz FuzzPageRawBytes -fuzztime 3s ./internal/storage/
go test -run '^$' -fuzz FuzzDecodeKey -fuzztime 3s ./internal/storage/
echo "OK"
