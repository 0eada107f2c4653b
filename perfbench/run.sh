#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, e.g.
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
# Everything the build and the run write goes under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out/results" "$@"
