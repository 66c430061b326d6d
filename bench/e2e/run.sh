#!/usr/bin/env bash
# Build the end-to-end benchmark (release, offline) and run it.
#
#   bench/e2e/run.sh [--seed N] [--seconds S] [--quick]      all five workloads
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh --self-test | determinism | compare A.json B.json
#
# README.md explains the metrics. The build log goes to stderr; the last
# line of stdout of a single-workload run is its result as one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/xmt-e2e" --out "$here/out" "$@"
