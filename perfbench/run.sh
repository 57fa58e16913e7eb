#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload sim-dj --seed 1 --seconds 20 --trace 0
# Run from the repository root. Every build product, the Go build cache
# and the traced run's spans stay under .bench_build in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (no go.mod next to perfbench/)" >&2
	exit 2
fi
root=$PWD
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
