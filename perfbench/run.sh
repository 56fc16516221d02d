#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table2 --seed 2003 --seconds 30 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# in the current directory. The build fails (and nothing is printed on
# standard output) when the repository sources are not beside perfbench/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
