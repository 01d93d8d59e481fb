#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it with
# the given arguments. Everything the build and the run write (Go's build
# cache, the binary, temporary files, WAL directories, span files) stays
# under .bench_build in that checkout. Outside a checkout of the module
# (no go.mod) the build fails and so does this script.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/ezbft-benchmark" ./benchmark
exec "$out/ezbft-benchmark" "$@"
