#!/bin/sh
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   sh e2ebench/run.sh --workload gateway-hot --seed 1 --seconds 45 --trace 0
#
# The build cache, the binary and the run's scratch files all stay under
# .bench_build/ in the checkout, and nothing is fetched from the network.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
