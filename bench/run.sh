#!/usr/bin/env bash
# The benchmark's entry command, run from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -aa <N>
#
# It builds the harness from source into .bench_build/ (go's build cache
# included, so nothing is written outside the checkout) and runs it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/sciql-bench" .)
exec "$build/sciql-bench" "$@"
