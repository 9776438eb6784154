#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes (the binary, Go's build cache, its
# temporary files and its per-user configuration) stays in .bench_build/
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/encag-benchmark" .
)
cd "$root"
exec "$build/encag-benchmark" "$@"
