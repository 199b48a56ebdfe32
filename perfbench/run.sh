#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload serve-kv --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare A.txt B.txt   # A/A comparison of saved stdout
#
# Run from the repository root. Every file the Go toolchain and the
# benchmark write goes under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
PERFBENCH_OUT=$out exec "$out/perfbench" "$@"
