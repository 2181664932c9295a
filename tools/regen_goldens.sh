#!/bin/sh
# Regenerate the golden outputs in tests/golden/ (mcdla_sim, the
# paper-figure benches and the determinism audit) from a build tree,
# then show what changed.
# Review the diff before committing it: the goldens are the spec that
# refactors must reproduce byte for byte.
#
#   tools/regen_goldens.sh [build-dir]    (default: build)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)

cmake --build "$build" --target mcdla_sim fig13_performance \
    fig11_latency_breakdown abl_page_policy abl_pipeline
for suite in sim figures audit; do
    cmake -DMCDLA_SIM="$build/mcdla_sim" \
        -DWORK_DIR="$build/golden-regen-$suite" -DSUITE=$suite \
        -DREGEN=ON -P "$root/tests/golden/run_goldens.cmake"
done
git -C "$root" status --short -- tests/golden
git -C "$root" diff --stat -- tests/golden
