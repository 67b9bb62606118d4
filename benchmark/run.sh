#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload sweep-flat --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the go command's own state and the
# binary all stay under .bench_build/ in the checkout; nothing is downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd benchmark && go build -buildvcs=false -o "$out/helixbench" .)
exec "$out/helixbench" "$@"
