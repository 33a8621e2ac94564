#!/usr/bin/env bash
# Builds contractd and the benchmark from source, then runs one workload:
#
#   bash contractbench/run.sh --workload serve-large --seed 1 --seconds 5 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and the
# run's journals all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

cd "$root/contractbench"
go build -o "$out/contractbench" .
go build -o "$out/contractd" dyncontract/cmd/contractd
cd "$root"
exec "$out/contractbench" --contractd "$out/contractd" --dir "$out" "$@"
