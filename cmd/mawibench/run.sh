#!/usr/bin/env bash
# BENCHMARK.json's command: builds mawibench from the checkout it is started
# in and runs it in contract mode with the driver's arguments. Everything the
# build and the run write — the Go build cache, the binaries, label stores,
# span files — stays under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
# -buildvcs=false: the checkout need not be a git repository, and one that
# sits inside someone else's must not fail the build on a VCS query.
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false
go build -o "$build/mawibench" ./cmd/mawibench
exec "$build/mawibench" -scratch "$build/scratch" -out "$build/out" "$@"
