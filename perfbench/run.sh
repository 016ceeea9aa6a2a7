#!/usr/bin/env bash
# Builds the end-to-end training benchmark from the sources of the checkout
# it sits in and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ssp-tcp-small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) lands in
# .bench_build/ at the checkout root; traced runs write their spans there
# too. The repository's own module is required one directory up: without
# it the build fails and the script exits non-zero without a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --spans "$out/spans" "$@"
