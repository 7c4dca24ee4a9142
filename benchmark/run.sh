#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh -workload des-sweep -seed 1 -seconds 20 -trace 0
#   bash benchmark/run.sh compare parent.jsonl change.jsonl
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory: the Go build cache, the binary, scratch directories
# and trace files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
