#!/usr/bin/env bash
# Builds the serving benchmark's load generator and runs it from the root
# of the checkout. Every build product, cache and temporary file stays in
# .bench_build/ under that root. All arguments go to the generator:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 12 --trace 0
set -eu
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
# A run killed outright cannot remove its temporary files; the next one does.
rm -rf "$build/tmp"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
