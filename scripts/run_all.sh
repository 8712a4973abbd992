#!/usr/bin/env bash
# Regenerate the committed figure outputs that EXPERIMENTS.md quotes:
#   figures.txt               every paper table, figure and ablation
#                             (vrsim --figure all) at the EXPERIMENTS.md
#                             scale
#   fig7_performance.4x.txt   Fig. 7 at 4x that scale ("Scale
#                             stability")
# scripts/ci.sh runs this into a temporary directory and compares the
# result with experiments/ byte for byte. The output does not depend on
# VRSIM_JOBS (the sweep worker count), only on the code.
#
# Usage: scripts/run_all.sh [build-dir] [out-dir]
#   build-dir  CMake build tree vrsim is built in (default build)
#   out-dir    directory the two files are written to (default
#              experiments)
# Both paths are relative to the repository root.
set -euo pipefail
BUILD="${1:-build}"
OUT="${2:-experiments}"
cd "$(dirname "$0")/.."

[ -f "$BUILD/CMakeCache.txt" ] || cmake -B "$BUILD" -S .
cmake --build "$BUILD" --target vrsim
mkdir -p "$OUT"
"$BUILD/tools/vrsim" --figure all --nodes 16384 --elems 65536 \
    --warmup 25000 >"$OUT/figures.txt"
"$BUILD/tools/vrsim" --figure fig7_performance --nodes 65536 \
    --elems 262144 --roi 400000 --warmup 25000 \
    >"$OUT/fig7_performance.4x.txt"
