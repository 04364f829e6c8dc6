#!/usr/bin/env bash
# Builds the benchmark from source and becomes it. The driver runs
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# from the root of a checkout. Everything written stays inside the
# checkout, under .bench_build (build cache, binary, spill files, span
# files). `exec` rather than `go run`, so exactly one process exists
# while the benchmark runs and a kill reaches it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal/pier ]; then
	echo "benchmark/run.sh: no PIER source tree here to build" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -o "$out/bin/pierbenchmark" ./benchmark
exec "$out/bin/pierbenchmark" "$@"
