#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload replay-warm --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
