//! The compiler's output, pinned by hash.
//!
//! Every program the `edit_run_loop` benchmark workload compiles — 300
//! `fuzz::generate` programs drawn from stream 2011, and the 14 small
//! corpus kernels (seeds 2011 + k) × {parallel, serial} × {default, `o0`,
//! clustering 4, no prefetch} — is compiled here, and for each one a
//! 64-bit FNV-1a of its assembly text, of its memory-map text and of its
//! line table, plus its layout-fix count and a hash of its warnings, is
//! compared with `fixtures/asm_hashes.txt`. A change meant to leave the
//! compiler's output alone must leave every line of that file alone.
//!
//! `XMT_BLESS=1 cargo test -p xmt-workloads --test asm_hashes` rewrites
//! the fixture; say in the change log which pass changed output and why.
//!
//! The second test reads each program's assembly text back through
//! `xmt_isa::asm::parse` and checks it links to the same executable.

use std::fmt::Write as _;
use std::path::PathBuf;
use xmt_core::{Compiled, Toolchain};
use xmt_harness::prng::splitmix64;
use xmt_harness::prop::Gen;
use xmt_workloads::corpus::*;
use xmt_workloads::fuzz;
use xmt_workloads::suite::Variant;
use xmtc::Options;

/// The benchmark's seed, and the first of its generated-program stream.
const SEED: u64 = 2011;
const FUZZ_PROGRAMS: usize = 300;

/// The 14 corpus kernels at the sizes of `corpus::small_corpus`, seeded
/// the way `edit_run_loop` seeds them.
fn kernels(seed: u64) -> Vec<Box<dyn WorkloadCase>> {
    let s = |k: u64| seed + k;
    vec![
        Box::new(CompactionCase { n: 64, seed: s(0) }),
        Box::new(VecaddCase { n: 64, seed: s(1) }),
        Box::new(PrefixCase { n: 64, seed: s(2) }),
        Box::new(ReductionCase { n: 64, seed: s(3) }),
        Box::new(BfsCase { n: 48, m: 96, seed: s(4) }),
        Box::new(ConnectivityCase { n: 48, m: 96, comps: 3, seed: s(5) }),
        Box::new(MatmulCase { k: 8, seed: s(6) }),
        Box::new(HistogramCase { n: 64, buckets: 8, seed: s(7) }),
        Box::new(RanksortCase { n: 48, seed: s(8) }),
        Box::new(FftCase { n: 32, seed: s(9) }),
        Box::new(SpmvCase { n: 32, avg_deg: 4, seed: s(10) }),
        Box::new(ListrankCase { n: 32, seed: s(11) }),
        Box::new(SamplesortCase { n: 64, s: 8, seed: s(12) }),
        Box::new(ListsumCase { n: 32, seed: s(13) }),
    ]
}

/// Every program, named, compiled and linked.
fn programs() -> Vec<(String, Compiled)> {
    let mut out = Vec::new();
    let mut stream = SEED;
    for i in 0..FUZZ_PROGRAMS {
        let spec = fuzz::generate(&mut Gen::new(splitmix64(&mut stream), 256));
        let compiled = Toolchain::new()
            .compile(&fuzz::render(&spec))
            .unwrap_or_else(|e| panic!("fuzz/{i}: {e}"));
        out.push((format!("fuzz/{i}"), compiled));
    }
    let option_sets = [
        ("default", Options::default()),
        ("o0", Options::o0()),
        ("cluster4", Options { clustering: Some(4), ..Options::default() }),
        ("noprefetch", Options { prefetch: false, ..Options::default() }),
    ];
    for case in kernels(SEED) {
        for (v, vname) in [(Variant::Parallel, "par"), (Variant::Serial, "ser")] {
            for (oname, opts) in &option_sets {
                let w = case
                    .build(v, opts)
                    .unwrap_or_else(|e| panic!("{}/{vname}/{oname}: {e}", case.name()));
                out.push((format!("{}/{vname}/{oname}", case.name()), w.compiled));
            }
        }
    }
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fixture line.
fn record(name: &str, c: &Compiled) -> String {
    let lines: Vec<u8> = c
        .line_table
        .iter()
        .flat_map(|&(i, l)| i.to_le_bytes().into_iter().chain(l.to_le_bytes()))
        .collect();
    format!(
        "{name} asm={:016x} mm={:016x} lines={:016x} fixes={} warnings={:016x}",
        fnv1a(c.asm_text().as_bytes()),
        fnv1a(c.memmap().to_text().as_bytes()),
        fnv1a(&lines),
        c.layout_fixes,
        fnv1a(c.warnings.join("\n").as_bytes()),
    )
}

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/asm_hashes.txt")
}

#[test]
fn asm_hashes_match_fixture() {
    let mut got = String::from(
        "# name asm=FNV(asm text) mm=FNV(memory map text) lines=FNV(line table) \
         fixes=layout fixes warnings=FNV(warnings)\n",
    );
    let programs = programs();
    for (name, c) in &programs {
        writeln!(got, "{}", record(name, c)).unwrap();
    }
    let path = fixture();
    if std::env::var("XMT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write fixture");
        println!("asm_hashes: blessed {} programs", programs.len());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (XMT_BLESS=1 writes it)", path.display()));
    let differ: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    println!("asm_hashes: {} programs, {} differ", programs.len(), differ.len());
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "program count differs from {}",
        path.display()
    );
    assert!(
        differ.is_empty(),
        "compiler output changed for {} programs:\n{}",
        differ.len(),
        differ.join("\n")
    );
}

#[test]
fn asm_text_round_trips() {
    let programs = programs();
    for (name, c) in &programs {
        let text = c.asm_text();
        let parsed = xmt_isa::asm::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let exe = parsed
            .link(c.memmap().clone())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(&exe == c.executable(), "{name}: re-parsed assembly links differently");
    }
    println!("asm_text_round_trips: {} programs", programs.len());
}
