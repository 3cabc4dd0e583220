#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's source and runs it, keeping every file it writes — Go's
# build cache, temp files, the binaries — under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
[ -f "$root/go.mod" ] || { echo "bench: run from the root of a checkout (no go.mod here)" >&2; exit 2; }
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/sibench" . && go build -o "$build/sisrv" repro/cmd/sisrv)
exec "$build/sibench" -sisrv "$build/sisrv" "$@"
