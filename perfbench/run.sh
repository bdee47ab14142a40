#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sweep-shared --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build output, the Go build cache and the
# benchmark's scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build) so nothing is written outside the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$HOME"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$(pwd)" -work "$out" "$@"
