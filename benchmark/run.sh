#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain writes (build cache, telemetry, module cache)
# is redirected under .bench_build so nothing outside the checkout is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/structream-benchmark" .) >&2
cd "$root"
exec "$build/structream-benchmark" "$@"
