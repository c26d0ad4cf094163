#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload suite --seed 1 --seconds 12 --trace 0
#   bash e2ebench/run.sh -selftest
#
# The binary, the Go build cache and every scratch store live under
# .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry
# counters inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Build with the profile emptcpsim itself is built with, so the timed
# code is the code a user runs.
pgo=off
if [ -f "$root/cmd/emptcpsim/default.pgo" ]; then
	pgo="$root/cmd/emptcpsim/default.pgo"
fi
(cd "$root/e2ebench" && go build -pgo="$pgo" -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
