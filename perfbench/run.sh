#!/usr/bin/env bash
# Builds tcompd and the benchmark from this checkout, then runs one
# workload. Run it from anywhere inside the checkout:
#
#   bash perfbench/run.sh --workload ea-paper --seed 1 --seconds 30 --trace 0
#
# Everything it builds, and every file a run writes, goes to
# .bench_build/ at the checkout root, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/bin/tcompd" ./cmd/tcompd)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" -tcompd "$out/bin/tcompd" -out "$out/run" "$@"
