#!/usr/bin/env bash
# Regenerate the golden plan fixtures consumed by golden_plan_test.
#
# Run this ONLY when a planner change intentionally alters the plans
# (cost model fix, DP improvement, schema change); commit the diff
# together with the change that caused it and explain the delta in
# the commit message. golden_plan_test failing without a planner
# change means a regression, not a stale fixture.
#
# Every fixture is refreshed the same way: each GoldenPlan case of
# golden_plan_test writes the plan it computes to "<fixture>.actual"
# in its working directory whenever that plan differs from the
# committed fixture (or the fixture is missing), and this script
# copies those files over tests/fixtures/. The configurations live
# only in tests/golden_plan_test.cpp:
#
#   gpt3_175b_adapipe_plan.json             makePlan(AdaPipe),
#       GPT-3 175B, cluster A 8 nodes, t8 p8 d1, seq 16384, gb 32
#   llama2_70b_adapipe_plan.json            makePlan(AdaPipe),
#       Llama 2 70B, cluster A 8 nodes, t4 p8 d2, seq 4096, gb 64
#   gpt3_175b_gb8_adapipe_v2_plan.json      makeInterleavedPlan(AdaPipe, v=2)
#   gpt3_175b_gb8_adapipe_overlap_plan.json makeOverlapPlan(AdaPipe, v=1)
#   gpt3_175b_gb8_even_plan.json            makePlan(EvenPartition)
#   gpt3_175b_gb8_dapple_full_plan.json     makePlan(DappleFull)
#       (the gb8 fixtures: GPT-3 175B, cluster A 8 nodes, t8 p8 d1,
#        seq 16384, gb 8)
#
# Usage: scripts/update_golden_plans.sh [build-dir]

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
golden_test="$build/tests/golden_plan_test"
fixtures="$repo/tests/fixtures"

if [[ ! -x "$golden_test" ]]; then
    echo "error: $golden_test not built (cmake --build $build)" >&2
    exit 1
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The cases whose plan changed fail; that is expected here.
(cd "$work" && "$golden_test" --gtest_filter='GoldenPlan.*' \
    > "$work/log.txt" 2>&1) || true

shopt -s nullglob
actual=("$work"/*.actual)
if [[ ${#actual[@]} -eq 0 ]]; then
    echo "all fixtures in $fixtures already match the planner"
    exit 0
fi
for f in "${actual[@]}"; do
    name="$(basename "$f" .actual)"
    cp "$f" "$fixtures/$name"
done

echo "updated fixtures in $fixtures:"
git -C "$repo" status --short tests/fixtures || true
