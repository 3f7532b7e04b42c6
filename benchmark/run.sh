#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes — the Go
# build cache, the binary, traces, the trajectory — stays inside this
# directory, so a run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go build -o out/benchmark .
exec out/benchmark "$@"
