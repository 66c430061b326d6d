#!/usr/bin/env sh
# Tier-1 verification gate for the XMT toolchain workspace.
#
# Everything runs with --offline: the workspace has zero registry
# dependencies (see DESIGN.md §6), so a network-less machine must be able
# to build, test, and bench from a fresh checkout. If any of these steps
# needs the network, that is itself a verification failure.
#
# Usage: ./scripts/verify.sh   (from anywhere; cd's to the repo root)

set -eu

cd "$(dirname "$0")/.."

echo "==> hermeticity gate: no registry dependencies in any manifest"
# Registry deps are keyed by a version requirement (`foo = "1.2"` or
# `version = "..."`); in-tree deps use `path = ...`. Flag the former.
bad=$(grep -rn --include=Cargo.toml -E \
    '^[a-zA-Z0-9_-]+ *= *"[^"]*"' . \
    | grep -vE '/target/' \
    | grep -vE '(name|version|edition|license|description|repository|authors|rust-version|resolver|harness|path|debug|lto|codegen-units|opt-level) *=' \
    || true)
if [ -n "$bad" ]; then
    echo "registry-style dependency found (use a path dep or in-tree code):" >&2
    echo "$bad" >&2
    exit 1
fi
# Inline-table form: `foo = { version = "1.2", ... }`.
bad=$(grep -rn --include=Cargo.toml -E '\{[^}]*version *=' . | grep -v '/target/' || true)
if [ -n "$bad" ]; then
    echo "versioned dependency table entry found:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --offline (full suite)"
cargo test -q --offline --workspace

echo "==> differential referees"
# Each suite below polices one fast path against its oracle bit for bit, so it must actually have *run*:
# a filter typo, a renamed test or a harness change that silently skips
# it has to fail the gate, not pass it.
#
# referee <package> "<test> [<test>…]" [<must-print-regex>…]
#   runs the named integration-test targets of <package> (which may
#   carry extra cargo flags, e.g. "xmt-workloads --release"), requires
#   every target to report at least one passed test, and requires the
#   output to contain a line matching each <must-print-regex> (the
#   suites' "ran N cases" lines), which is then echoed.
referee() {
    pkg=$1
    tests=$2
    shift 2
    targets=""
    want=0
    for t in $tests; do
        targets="$targets --test $t"
        want=$((want + 1))
    done
    echo "--> $tests"
    # shellcheck disable=SC2086  # $pkg and $targets are word lists
    out=$(cargo test --offline -p $pkg $targets -- --nocapture 2>&1) || {
        echo "$out" >&2
        exit 1
    }
    ran=$(echo "$out" | grep -cE 'test result: ok\. [1-9][0-9]* passed' || true)
    [ "$ran" -eq "$want" ] || {
        echo "$tests: $ran of $want suites ran any test (skipped or filtered out):" >&2
        echo "$out" >&2
        exit 1
    }
    for must_print in "$@"; do
        echo "$out" | grep -E "$must_print" || {
            echo "$tests: did not report its case count (/$must_print/):" >&2
            echo "$out" >&2
            exit 1
        }
    done
}

# XMT_FUZZ_CASES lets a quick smoke tier dial the fuzz count down.
export XMT_FUZZ_CASES="${XMT_FUZZ_CASES:-256}"

# the event list's lanes vs the binary heap, on the cycle model's traffic
referee xmtsim model_properties 'lanes_match_heap_on_model_traffic: ran [1-9][0-9]* cases'
# determinism: bit-identical runs + quiescent and mid-flight checkpoints
referee xmt-bench "checkpoint_resume checkpoint_inflight"
# express ICN legs vs the per-hop walk
referee xmtsim icn_express_diff 'icn_express_diff: ran [1-9][0-9]* cases'
# compute bursts vs per-instruction issue (+ tracer/limit/sample clips),
# the master's folded serial sections and inline round trips, the TCU
# side's folded return legs and continued steps at their boundaries, and
# sections whose first allocation round is taken in closed form
referee xmtsim "issue_burst_diff issue_model" \
    'serial_sections: ran [1-9][0-9]* cases' 'fold_boundaries: ran [1-9][0-9]* cases' \
    'first_round: ran [1-9][0-9]* cases'
# decoded basic-block replay vs interpreted issue: the only referee of
# replay's control policy (both paths execute the same `exec_op`)
referee xmtsim decode_diff 'decode_diff: ran [1-9][0-9]* cases'
# generated XMTC through functional mode + the whole engine matrix
referee "xmt-workloads --release" cross_engine_fuzz \
    'cross_engine_fuzz: ran [1-9][0-9]* cases through functional \+ 5 cycle engines'
# observability on vs off, and the exported trace parses
referee xmtsim "obs_diff obs_trace" 'obs_diff: ran [1-9][0-9]* obs-on/obs-off cases'

# End-to-end smoke: the CLI writes both sidecars and both parse (the
# bench binary's --json mode shares the metrics schema).
obs_dir=target/obs-smoke
rm -rf "$obs_dir"
mkdir -p "$obs_dir"
cat > "$obs_dir/smoke.xs" <<'EOF'
main:
    li $a0, 0
    li $a1, 7
    li $s0, 268435456
    spawn $a0, $a1
vt:
    li $t0, 1
    ps $t0, gr0
    chkid $t0
    sll $t1, $t0, 2
    add $t1, $t1, $s0
    lw $t2, 0($t1)
    addi $t2, $t2, 10
    swnb $t2, 0($t1)
    j vt
    join
    halt
EOF
printf '# xmt memory map\nA 0x10000000 8 1 2 3 4 5 6 7 8\n' > "$obs_dir/smoke.xbo"
./target/release/xmtsim-cli "$obs_dir/smoke.xs" --memmap "$obs_dir/smoke.xbo" \
    --config tiny --trace-out "$obs_dir/trace.json" \
    --metrics-out "$obs_dir/metrics.json" >/dev/null
grep -q '"traceEvents"' "$obs_dir/trace.json" || {
    echo "trace sidecar missing traceEvents" >&2
    exit 1
}
grep -q '"xmtsim.metrics.v1"' "$obs_dir/metrics.json" || {
    echo "metrics sidecar missing schema tag" >&2
    exit 1
}
echo "obs smoke OK (trace + metrics sidecars written and tagged)"

echo "==> end-to-end benchmark still builds and checks out (bench/e2e)"
# bench/e2e is a workspace of its own (BENCHMARK.json's command), so the
# build and test tiers above never compile it: an API change in crates/*
# that breaks it would otherwise surface only when the benchmark is next
# run. --quick is every workload once, untraced and traced, at 1/8 size;
# each run's record ends in {"correct","attempted","failed",…}.
e2e_out=$(bash bench/e2e/run.sh --quick) || {
    echo "$e2e_out" | tail -n 40 >&2
    echo "bench/e2e --quick failed (does it still build against crates/*?)" >&2
    exit 1
}
e2e_clean=$(echo "$e2e_out" | grep -c '"attempted":[1-9][0-9]*,"failed":0,' || true)
[ "$e2e_clean" -eq 10 ] || {
    echo "bench/e2e --quick: $e2e_clean of 10 runs attempted work with failed = 0" >&2
    exit 1
}
bash bench/e2e/run.sh determinism
echo "bench/e2e OK (10 quick runs, failed = 0; exact metrics repeat)"

echo "==> smoke benches (shortened iterations; writes BENCH_*.json)"
# Cargo runs bench binaries with cwd = the package dir; pin the output
# to the workspace-root target/ so the gate below finds it.
XMT_BENCH_DIR="$PWD/target/bench" \
XMT_BENCH_ITERS="${XMT_BENCH_ITERS:-3}" \
XMT_BENCH_WARMUP_MS="${XMT_BENCH_WARMUP_MS:-10}" \
    cargo bench --offline -p xmt-bench --bench modes --bench compiler --bench scheduler --bench icn --bench issue --bench corpus --bench decode

ls target/bench/BENCH_*.json >/dev/null 2>&1 || {
    echo "no BENCH_*.json emitted" >&2
    exit 1
}
[ -f target/bench/BENCH_scheduler.json ] || {
    echo "BENCH_scheduler.json missing (scheduler bench did not run)" >&2
    exit 1
}
[ -f target/bench/BENCH_icn.json ] || {
    echo "BENCH_icn.json missing (icn express-vs-per-hop bench did not run)" >&2
    exit 1
}
[ -f target/bench/BENCH_issue.json ] || {
    echo "BENCH_issue.json missing (issue burst-vs-per-instr bench did not run)" >&2
    exit 1
}
[ -f target/bench/BENCH_corpus.json ] || {
    echo "BENCH_corpus.json missing (workload-corpus bench did not run)" >&2
    exit 1
}
[ -f target/bench/BENCH_decode.json ] || {
    echo "BENCH_decode.json missing (decode cache-vs-off bench did not run)" >&2
    exit 1
}

echo "==> perf-regression gate (fresh medians vs bench/refs)"
# One confirm-rerun on failure: the refs are per-host wall-clock
# numbers and a shared host can swing a 3-iteration median past the
# threshold on its own (the smoke benches also run right after the
# test tier has heated the machine). A transient throttling window
# passes the re-measure; a real regression fails twice in a row.
if ! ./scripts/perf_gate.sh target/bench; then
    echo "==> perf gate tripped; re-measuring once to rule out host noise"
    XMT_BENCH_DIR="$PWD/target/bench" \
    XMT_BENCH_ITERS="${XMT_BENCH_ITERS:-3}" \
    XMT_BENCH_WARMUP_MS="${XMT_BENCH_WARMUP_MS:-10}" \
        cargo bench --offline -p xmt-bench --bench modes --bench compiler --bench scheduler --bench icn --bench issue --bench corpus --bench decode
    ./scripts/perf_gate.sh target/bench
fi

echo "==> perf-gate self-test (an injected regression must fail)"
# Copy the fresh results, inflate one median 10x, and make sure the
# gate actually trips — a gate that cannot fail protects nothing.
rm -rf target/bench-selftest
mkdir -p target/bench-selftest
cp target/bench/BENCH_issue.json target/bench-selftest/
sed -i.bak -E 's/"median_ns":([0-9]+)/"median_ns":\10/' \
    target/bench-selftest/BENCH_issue.json
rm -f target/bench-selftest/BENCH_issue.json.bak
if ./scripts/perf_gate.sh target/bench-selftest >/dev/null 2>&1; then
    echo "perf gate failed to detect a 10x inflated median" >&2
    exit 1
fi
echo "perf gate self-test OK (inflated median rejected)"

echo "==> verify OK"
