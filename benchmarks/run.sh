#!/usr/bin/env bash
# Builds rumperf from source into .bench_build/ at the root of the checkout
# and runs it there with the given arguments. Go's build cache and temporary
# files are kept inside the checkout too, so a run reads and writes nothing
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/rumperf" ./rumperf
cd "$root"
exec "$out/rumperf" "$@"
