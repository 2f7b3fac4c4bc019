#!/usr/bin/env bash
# Builds the benchmark program, cmd/eptbench, from this checkout and
# runs it, passing every argument through (see bench/README.md):
#
#   bash bench/run.sh --workload base --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --check
#
# The Go build cache, temporary files, the built binaries and all results
# stay under .bench_build/ at the checkout root, and the toolchain is
# kept offline, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$root/bench" build -o "$out/eptbench" ./cmd/eptbench
exec "$out/eptbench" -root "$root" "$@"
