#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it, keeping everything it writes — build cache, binary, scratch
# data — under .bench_build/ in the checkout it was started from.
#
#   bash benchmark/run.sh --workload rpc_durable --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh -traced -runs 5 -out result.json     # the whole suite
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh spec > BENCHMARK.json                 # after editing spec.go
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$src" -o "$out/benchmark" .
if [ "${1:-}" = compare ] || [ "${1:-}" = spec ]; then
	exec "$out/benchmark" "$@"
fi
exec "$out/benchmark" -dir "$out/scratch" "$@"
