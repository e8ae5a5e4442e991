#!/usr/bin/env bash
# Builds the benchmark and the ukserver gateway from this checkout, then
# runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload gateway-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare -spec BENCHMARK.json base.jsonl new.jsonl
#
# Run it from the repository root. Build output, the Go build cache and the
# benchmark's scratch files all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout. The build log
# goes to standard error; standard output ends with the JSON result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/perfbench"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(
	cd "$here"
	go build -o "$out/perfbench/perfbench" .
	go build -o "$out/perfbench/ukserver" repro/cmd/ukserver
) >&2

if [ "${1:-}" = compare ]; then
	exec "$out/perfbench/perfbench" "$@"
fi
exec "$out/perfbench/perfbench" "$@" -ukserver "$out/perfbench/ukserver" -dir "$out/perfbench/run"
