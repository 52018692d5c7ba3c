#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload forward --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the trace files all go under
# .bench_build/ in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
