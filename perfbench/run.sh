#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 0 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# trace files stay under $CARGO_TARGET_DIR (default .bench_build), so the
# run writes nothing outside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$(pwd)/$out"
mkdir -p "$out/gotmp" "$out/perfbench"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" -out "$out/perfbench" "$@"
