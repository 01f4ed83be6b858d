#!/usr/bin/env bash
# Builds the benchmark (package main in bench/, its own module, importing the
# repository root through a replace directive) and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload solve-pooled --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, Go's
# config directory) stays under $CARGO_TARGET_DIR, default .bench_build/.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go -C "$root/bench" build -o "$out/lapccbench" .
exec "$out/lapccbench" "$@"
