#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload spine-read --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay inside the
# checkout, under .bench_build/perfbench. Run from anywhere; the benchmark
# itself runs from the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOENV=off GOWORK=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
