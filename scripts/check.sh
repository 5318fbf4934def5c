#!/bin/sh
# Pre-merge gate (`make check`): go vet, the full test suite under the race
# detector on two host shapes, the crash and chaos soaks, and the fuzz
# smokes. Each gate's command line lives in the Makefile target named here.
# The lints are ordinary tests (internal/lint) and run with the suite.
set -eu
cd "$(dirname "$0")/.."

make vet
# One core and several: the planner and executor must not let the host's
# shape decide what a test observes.
for procs in 1 4; do
	GOMAXPROCS=$procs make race
done
make crash-sim soak soak-repl soak-scrub
make fuzz FUZZTIME=3s
echo "OK"
