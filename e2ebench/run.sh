#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#   bash e2ebench/run.sh --workload intransit-64 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, temporary build
# files, Go's config and telemetry files and the binary all stay under
# .bench_build/ in the checkout, and the build never reaches the network.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build/e2ebench"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
  GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
