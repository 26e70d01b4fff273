#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument is passed through (see README.md).  Everything the Go toolchain
# writes — build cache, module cache, temp files, its own telemetry
# counters (which go under the home directory), the binary — stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/benchmark" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/eulerbench" .) >&2
cd "$root"
exec "$build/eulerbench" "$@"
