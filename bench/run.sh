#!/usr/bin/env bash
# Builds the benchmark from source into bench/out/build/ (build cache and
# temp files too, so nothing is written outside the checkout) and runs it
# from the repository root with the arguments given.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/out/build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
(cd "$here" && go build -o "$build/cembench" .)
cd "$(dirname "$here")"
exec "$build/cembench" "$@"
