#!/usr/bin/env bash
# Builds the end-to-end KDV serving benchmark from the sources of the
# checkout it is run from, then runs it with the given arguments:
#
#   bash kdvperf/run.sh --workload pan-zoom --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) inside that root: the Go
# build cache, the binary, the tile stores and the traced run's span file.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home/.config"

# Keep the toolchain's caches and settings inside the build directory and
# off the network: the benchmark depends on nothing outside this checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go telemetry off >/dev/null 2>&1 || true
(cd "$here" && go build -o "$out/kdvperf" .) >&2
exec "$out/kdvperf" --workdir "$out/kdvperf-work" "$@"
