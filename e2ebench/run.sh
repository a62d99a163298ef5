#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source in this checkout and runs
# it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload paper-campaign --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, and the traced runs' spans and CPU
# profiles all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
