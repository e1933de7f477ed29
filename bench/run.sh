#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it sits in, then runs
# it from the checkout root with the given arguments:
#
#   bash bench/run.sh --workload rounds-n50 --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build in the checkout. Without the repository's sources next to
# bench/ the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/anurand-bench" .
exec "$build/anurand-bench" "$@"
