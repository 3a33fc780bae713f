#!/usr/bin/env bash
# Builds the federation benchmark from this checkout and runs it with the
# given arguments (see fedbench --help). Run from the repository root:
#
#   bash fedbench/run.sh --workload xmatch_flat --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the
# Go build cache, the binary, the disk stores and the results.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/fedbench" && go build -o "$out/fedbench" .)
cd "$root"
exec "$out/fedbench" --out "$out" "$@"
