#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash _e2ebench/run.sh --workload debug-20k --seed 1 --seconds 15 --trace 0
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, binary, traces). Without the repository's
# sources next to _e2ebench/ the build fails and no result is printed.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/_e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --root "$root" "$@"
