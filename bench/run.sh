#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, module
# path, telemetry, the binary — is pointed at .bench_build/ under the
# checkout root, so a run reads and writes nothing outside the checkout.
#
# Run it from the repository root:  bash bench/run.sh --workload rpc_storm
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$build/unobench" .
exec "$build/unobench" "$@"
