#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  Run it from
# the repository root:
#
#   bash _perfbench/run.sh --workload paper-b1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory: $CARGO_TARGET_DIR if set, else .bench_build (the Go build
# cache, temporary files, Unix-domain sockets and span files).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/transput" ]; then
	echo "perfbench: $root holds no asymstream module to build" >&2
	exit 2
fi
cd "$root"

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp" "$build/config" "$build/out"

# Keep the toolchain hermetic and inside the checkout: no network, no
# workspace or user configuration, caches under the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=""

(cd "$here" && go build -trimpath -buildvcs=false -o "$build/perfbench" .)

commit=unknown
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi

# Unix socket paths are limited to 108 bytes, so the sockets go under a
# path relative to the repository root when the build directory is
# inside it.
tmp="$build/tmp"
case "$tmp" in
"$root"/*) tmp="${tmp#"$root"/}" ;;
esac
TMPDIR="$tmp" exec "$build/perfbench" --commit "$commit" --out "$build/out" "$@"
