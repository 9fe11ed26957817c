#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds cmd/bench from the checkout's
# sources into bin/.bench_build (/bin/ is git-ignored; the first call builds,
# later calls find it current) and runs it with the driver's arguments. The Go
# build cache lives there too, so a run reads and writes nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
mkdir -p bin/.bench_build
export GOCACHE="$PWD/bin/.bench_build/gocache" GOTOOLCHAIN=local
go build -o bin/.bench_build/bench ./cmd/bench
exec bin/.bench_build/bench "$@"
