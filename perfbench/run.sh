#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it:
#   bash perfbench/run.sh --workload cold-campaign --seed 1 --seconds 15 --trace 0
# Run it from the repository root. The Go build cache, module cache and
# temporary files stay under .bench_build/ as well.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
