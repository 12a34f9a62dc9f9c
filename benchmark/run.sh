#!/usr/bin/env bash
# One command for the benchmark: build cmd/microserve and the benchmark
# program from this checkout's sources, then run the program with the
# given arguments. Everything it writes stays inside the checkout:
# binaries and the Go build cache under .bench_build/, run files under
# benchmark/out/.
#
#   bash benchmark/run.sh                      # all four workloads, then the traced runs
#   bash benchmark/run.sh --workload score_mbsp --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -repeat 2            # the A/A check
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/microserve" ]; then
  echo "benchmark/run.sh: $root is not a full checkout (no go.mod or cmd/microserve); nothing to measure" >&2
  exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bin/microserve" ./cmd/microserve)
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
