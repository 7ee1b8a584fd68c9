#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it:
#
#   bash perfbench/run.sh --workload cc-grid --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traces live under .bench_build/ there, so the benchmark reads and
# writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a mucongest checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
