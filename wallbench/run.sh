#!/usr/bin/env bash
# Builds wallbench inside the checkout and runs it with the given flags:
#
#   bash wallbench/run.sh --workload ycsb-local --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# run's scratch files all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/wallbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/wallbench" && go build -o "$out/wallbench" .) >&2
exec "$out/wallbench" -dir "$out/run" "$@"
