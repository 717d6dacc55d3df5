#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload live-abd-small --seed 1 --seconds 15 --trace 0
#
# Every build artifact and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$bench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
commit=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
exec "$out/perfbench" -out "$out/perfbench-runs" -commit "$commit" "$@"
