#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload tenant-stream --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the
# checkout: the Go build cache, GOPATH, the go command's configuration
# and telemetry directory, the binary, storage directories and the span
# dumps of traced runs.
set -e
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/pdpsbench" .)
exec "$out/pdpsbench" -out "$out" "$@"
