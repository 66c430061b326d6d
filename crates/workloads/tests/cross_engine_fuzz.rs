//! Cross-engine differential fuzz suite.
//!
//! Every case draws a random (but race-free-by-construction) XMTC
//! program and a random machine configuration, compiles the program
//! once, and runs it through functional mode plus all five cycle-model
//! configurations (`{Burst,PerInstr} × {Express,PerHop}`, and the decode
//! cache on the default burst row), asserting
//!
//! * the five cycle engines are **bit-identical** — cycles, simulated
//!   time, instruction counts, the full stats JSON and the final machine
//!   image (memory + registers) all match; and
//! * functional mode agrees on every architectural observable (memory
//!   image, prefix-sum totals via the print stream, multiset of
//!   `ps`-compacted scratch slots).
//!
//! On failure the suite shrinks the program AST to a locally-minimal
//! failing program (`prop::minimize` over `fuzz::shrink_candidates`) and
//! panics with the minimized source plus the harness's
//! `XMT_PROP_SEED=0x...` replay instructions.
//!
//! `XMT_FUZZ_CASES` overrides the default 256 cases (`scripts/verify.sh`
//! passes it through); `XMT_PROP_SEED` replays one failing case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xmt_harness::prop::{self, Config, Gen};
use xmt_workloads::fuzz::{self, Arith, BcUpdate, Expr, Op, Phase, Print, ProgramSpec, NEST_LEN};
use xmtsim::differential::{run_all_engines, FunctionalCheck};
use xmtsim::XmtConfig;

fn fuzz_cases() -> u32 {
    std::env::var("XMT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// The tentpole property: ≥256 seeded random programs × 5 engines.
#[test]
fn cross_engine_differential_fuzz() {
    let cases = fuzz_cases();
    let mut ran = 0u32;
    prop::run("cross_engine_fuzz", Config::with_cases(cases), |g| {
        ran += 1;
        let spec = fuzz::generate(g);
        let cfg = fuzz::gen_config(g);
        if let Err(first) = fuzz::check_case(&spec, &cfg) {
            let min = prop::minimize(spec, 400, fuzz::shrink_candidates, |s| {
                fuzz::check_case(s, &cfg).is_err()
            });
            let msg = fuzz::check_case(&min, &cfg).err().unwrap_or(first);
            panic!(
                "cross-engine divergence; minimized failing program:\n\
                 {}\n{msg}\n\
                 (replay: XMT_PROP_SEED=<seed above> cargo test -p xmt-workloads \
                 --test cross_engine_fuzz cross_engine_differential_fuzz)",
                fuzz::render(&min)
            );
        }
    });
    // scripts/verify.sh greps for this line to prove the suite really ran
    // (and wasn't filtered out) with the expected case count.
    eprintln!("cross_engine_fuzz: ran {ran} cases through functional + 5 cycle engines");
    assert!(ran >= 1);
}

/// Mutation test (acceptance criterion): an injected engine discrepancy
/// must be caught, shrunk, and reported with a replayable seed.
///
/// The "bug" is emulated by running the per-event oracle engines
/// (`PerInstr×*`) under a config with a different spawn overhead — the
/// same class of divergence as a mis-ported tie-break: identical
/// architectural results, different timing.
#[test]
fn fuzzer_catches_injected_discrepancy_and_shrinks() {
    let mut g = Gen::new(0x0ddb_a115, 256);
    let spec = fuzz::generate(&mut g);
    let cfg = fuzz::gen_config(&mut g);
    fuzz::check_case(&spec, &cfg).expect("healthy engines must agree");

    let mut oracle = cfg.clone();
    oracle.spawn_overhead += 4;
    let err = fuzz::check_case_against(&spec, &cfg, &oracle)
        .expect_err("perturbed oracle must be caught");
    assert!(
        err.contains("Burst") && err.contains("PerInstr"),
        "report names the diverging engine pair: {err}"
    );
    assert!(
        err.contains("--- source ---"),
        "report carries the program: {err}"
    );

    // Shrinking must converge on a still-failing, no-larger program.
    let min = prop::minimize(spec.clone(), 400, fuzz::shrink_candidates, |s| {
        fuzz::check_case_against(s, &cfg, &oracle).is_err()
    });
    assert!(fuzz::check_case_against(&min, &cfg, &oracle).is_err());
    assert!(min.phases.len() <= spec.phases.len());
    let op_count = |s: &ProgramSpec| s.phases.iter().map(|p| p.body.len()).sum::<usize>();
    assert!(op_count(&min) <= op_count(&spec));

    // Driven through the property harness, the failure must surface a
    // replayable seed.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        prop::run("injected_discrepancy", Config::with_cases(4), |g| {
            let spec = fuzz::generate(g);
            let cfg = fuzz::gen_config(g);
            fuzz::check_case_against(&spec, &cfg, &oracle).expect("engines diverged (injected)");
        });
    }));
    let msg = match caught {
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string panic payload"),
        Ok(()) => panic!("injected discrepancy went unnoticed"),
    };
    assert!(
        msg.contains("XMT_PROP_SEED=0x"),
        "failure is replayable: {msg}"
    );
}

/// Negative path: the generator's maximum spawn nesting (a `spawn`
/// inside every phase of a `MAX_PHASES`-phase program) still compiles
/// and agrees across all five engines.
#[test]
fn max_spawn_nesting_agrees_across_engines() {
    let nested_phase = |hi: i32| Phase {
        hi,
        hi_from_bc: false,
        bc_update: BcUpdate::Const(9),
        locals: vec![Expr::ThreadId],
        body: vec![
            Op::NestedSpawn {
                hi: NEST_LEN as i32 - 1,
                expr: Expr::Bin(Arith::Mul, Box::new(Expr::ThreadId), Box::new(Expr::Lit(3))),
            },
            Op::StoreOut(Expr::Local(0)),
        ],
        print_after: vec![Print::Bcast],
    };
    let spec = ProgramSpec {
        n: 16,
        hist_len: 4,
        data_seed: 77,
        phases: (0..fuzz::MAX_PHASES)
            .map(|p| nested_phase(4 + p as i32))
            .collect(),
    };
    fuzz::check_case(&spec, &XmtConfig::tiny()).unwrap();
}

/// Negative path: zero-iteration spawns — at top level, nested, and with
/// a data-dependent bound that evaluates to an empty range — are no-ops
/// on every engine.
#[test]
fn zero_iteration_spawns_agree_across_engines() {
    let spec = ProgramSpec {
        n: 16,
        hist_len: 4,
        data_seed: 5,
        phases: vec![
            // Empty top-level spawn: body must never run.
            Phase {
                hi: -1,
                hi_from_bc: false,
                bc_update: BcUpdate::Const(0),
                locals: vec![],
                body: vec![Op::StoreOut(Expr::Lit(999))],
                print_after: vec![Print::Bcast],
            },
            // Live spawn containing an empty nested spawn.
            Phase {
                hi: 7,
                hi_from_bc: false,
                bc_update: BcUpdate::Keep,
                locals: vec![],
                body: vec![
                    Op::NestedSpawn {
                        hi: -1,
                        expr: Expr::Lit(123),
                    },
                    Op::StoreOut(Expr::ThreadId),
                ],
                print_after: vec![Print::OutElem { arr: 1, idx: 3 }],
            },
            // Data-dependent bound that lands on an empty range:
            // BCAST = 0 → spawn(0, 0 % (hi+1)) spawns exactly thread 0.
            Phase {
                hi: 5,
                hi_from_bc: true,
                bc_update: BcUpdate::Const(0),
                locals: vec![],
                body: vec![Op::StoreOut(Expr::Lit(42))],
                print_after: vec![],
            },
        ],
    };
    fuzz::check_case(&spec, &XmtConfig::tiny()).unwrap();
}

/// Beyond the generator's grammar: three-deep spawn nesting written by
/// hand (the compiler serializes each level) still compiles and agrees
/// across every engine, including an empty innermost range.
#[test]
fn hand_written_triple_nesting_agrees() {
    let src = "int A[16]; int DONE = 0; int N = 16;
        void main() {
            spawn(0, 3) {
                spawn(0, 3) {
                    spawn(0, N - 1) { A[$] = $ * 3 + 1; }
                }
            }
            spawn(0, -1) { A[0] = 999; }
            DONE = 1;
            print(A[5]);
            print(DONE);
        }";
    let compiled = xmt_core::Toolchain::new().compile(src).unwrap();
    let all = run_all_engines(compiled.executable(), &XmtConfig::tiny(), 10_000_000).unwrap();
    all.check_cycle_identical().unwrap();
    all.check_functional_agrees(&[
        FunctionalCheck::Exact {
            name: "A".into(),
            words: 16,
        },
        FunctionalCheck::Exact {
            name: "DONE".into(),
            words: 1,
        },
        FunctionalCheck::Prints,
    ])
    .unwrap();
}
