#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source inside the
# checkout (build cache included, so nothing is written outside it) and runs
# it with the driver's arguments. Fails when the repository the benchmark
# measures is not around it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOMODCACHE="$here/out/gomodcache" XDG_CONFIG_HOME="$here/out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o out/bench .)
exec "$here/out/bench" --out "$here/out" "$@"
