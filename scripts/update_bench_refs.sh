#!/usr/bin/env sh
# Regenerate the committed perf-gate references under bench/refs/.
#
# Run this when the host changes or a deliberate performance trade-off
# moves a median past the gate threshold, then commit the result with a
# note saying why. Uses the same shortened-iteration settings as the
# verify.sh smoke tier so references and fresh runs are comparable.
#
# Usage: ./scripts/update_bench_refs.sh

set -eu

cd "$(dirname "$0")/.."

refs="bench/refs"
mkdir -p "$refs"

XMT_BENCH_DIR="$PWD/$refs" \
XMT_BENCH_ITERS="${XMT_BENCH_ITERS:-3}" \
XMT_BENCH_WARMUP_MS="${XMT_BENCH_WARMUP_MS:-10}" \
    cargo bench --offline -p xmt-bench \
    --bench modes --bench compiler --bench scheduler --bench icn \
    --bench issue --bench corpus --bench decode

echo "updated references:"
ls "$refs"/BENCH_*.json
