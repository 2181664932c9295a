#!/bin/sh
# Build everything, regenerate every golden output in tests/golden/
# (mcdla_sim's modes, the determinism audit, and each bench and
# example) by running the ctests labelled "golden" with
# MCDLA_REGEN_GOLDENS set, then show what changed.
# Review the diff before committing it: the goldens are the spec that
# refactors must reproduce byte for byte.
#
#   tools/regen_goldens.sh [build-dir]    (default: build)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}

cmake -S "$root" -B "$build" > /dev/null
cmake --build "$build" -j
(cd "$build" &&
    MCDLA_REGEN_GOLDENS=1 ctest -L golden -j "$(nproc)" --output-on-failure)
git -C "$root" status --short -- tests/golden
git -C "$root" diff --stat -- tests/golden
