#!/usr/bin/env bash
# Builds the repository benchmark and the schedd server from this checkout
# and runs one workload. Run it from anywhere; it works in the repository
# root, next to this directory:
#
#   bash repobench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$root/repobench" && go build -o "$build/bin/" . repro/cmd/schedd) >&2
cd "$root"
exec "$build/bin/repobench" -schedd "$build/bin/schedd" -out "$build/repobench" "$@"
