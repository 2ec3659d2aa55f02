#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it.
#
#   bash perfbench/run.sh --workload paper-raw --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh gen-refs            # regenerate perfbench/refs.json
#   bash perfbench/run.sh compare A.json B.json
#
# Run it from the root of the repository. Everything it builds or writes
# goes under .bench_build/ there; the Go toolchain's caches are pointed
# there too, so a run touches nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (its env file and
# telemetry counters) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
