#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload learn --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the span files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
dir="$out/perfbench"
mkdir -p "$dir"

# Keep every file the toolchain writes inside the checkout, and never
# let it fetch a different toolchain.
export GOCACHE="$dir/gocache" GOMODCACHE="$dir/gomodcache" GOPATH="$dir/gopath" \
	XDG_CONFIG_HOME="$dir/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -o "$dir/perfbench" .)
exec "$dir/perfbench" --trace-dir "$dir" "$@"
