#!/usr/bin/env sh
# Reproduce everything: build, test, run every benchmark harness.
#
# Usage: scripts/run_all.sh [build-dir]
# Outputs: <build-dir>/../test_output.txt, bench_output.txt, and
# (optionally, with ADAPIPE_CSV_DIR set) CSV files for plotting.
set -eu

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" -G Ninja
cmake --build "$BUILD_DIR"

ctest --test-dir "$BUILD_DIR" 2>&1 | tee "$ROOT/test_output.txt"

: > "$ROOT/bench_output.txt"
for b in "$BUILD_DIR"/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    echo "==== $(basename "$b") ====" | tee -a "$ROOT/bench_output.txt"
    "$b" 2>&1 | tee -a "$ROOT/bench_output.txt"
    echo | tee -a "$ROOT/bench_output.txt"
done
