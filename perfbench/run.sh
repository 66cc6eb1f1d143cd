#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload serve-echo --seed 1 --seconds 12 --trace 0
#
# Run from the repository root.  Build outputs, the Go build cache and
# the span files of traced runs all stay under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac

if [[ ! -f "$root/go.mod" || ! -d "$root/deque" ]]; then
	echo "perfbench: run from the root of a dcasdeque checkout" >&2
	exit 2
fi

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -spans-dir "$build/spans" "$@"
