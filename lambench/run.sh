#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
# Run from the repository root:
#
#   bash lambench/run.sh --workload large-models --seed 1 --seconds 48 --trace 0
#
# Build outputs, the Go build and module caches, the go command's own
# configuration and telemetry, and the benchmark's temporary registries
# all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
if [ -d "$root/.git" ]; then
	LAMBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
else
	LAMBENCH_COMMIT=unknown
fi
export LAMBENCH_COMMIT
(cd "$root/lambench" && go build -o "$out/lambench" .)
exec "$out/lambench" "$@"
