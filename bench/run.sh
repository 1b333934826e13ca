#!/usr/bin/env bash
# Builds aikido-measure from this checkout's source and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload parsec-aikido --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/aikido-measure" ./aikido-measure
exec "$out/aikido-measure" "$@"
