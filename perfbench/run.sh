#!/usr/bin/env bash
# Builds the pdn3d benchmark from the sources of this checkout and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload lut-policy --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other build by-product stay in
# .bench_build/ at the checkout root; nothing is fetched from the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
