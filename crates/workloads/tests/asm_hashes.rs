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
//!
//! The third, `ledger`, pins what the simulator does with such programs:
//! the 14 kernels on `fpga64` and `chip1024`, the four Table I
//! microbenchmarks at small size on `chip1024`, and the first 16 of the
//! generated programs on the configurations `fuzz::gen_config` draws for
//! them. For each run it records the cycle, instruction and event counts,
//! four exact `HostProfile` counters, and FNV-1a hashes of the stats JSON
//! and of the final memory image, in `fixtures/ledger.txt`. The
//! differential suites only check a fast path against its oracle in one
//! binary; this file is what shows a change that moves both together.
//! `XMT_BLESS=1` rewrites it too; say in the change log why timing moved.

use std::fmt::Write as _;
use std::path::PathBuf;
use xmt_core::{Compiled, Toolchain};
use xmt_harness::prng::splitmix64;
use xmt_harness::prop::Gen;
use xmt_harness::ToJson;
use xmt_workloads::corpus::*;
use xmt_workloads::fuzz;
use xmt_workloads::micro::{self, MicroGroup, MicroParams};
use xmt_workloads::suite::Variant;
use xmtc::Options;
use xmtsim::XmtConfig;

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

/// The first `n` generated programs of the stream, named and compiled,
/// each with the machine configuration drawn for it after the program.
fn fuzz_programs(n: usize) -> Vec<(String, Compiled, XmtConfig)> {
    let mut stream = SEED;
    (0..n)
        .map(|i| {
            let mut g = Gen::new(splitmix64(&mut stream), 256);
            let spec = fuzz::generate(&mut g);
            let compiled = Toolchain::new()
                .compile(&fuzz::render(&spec))
                .unwrap_or_else(|e| panic!("fuzz/{i}: {e}"));
            (format!("fuzz/{i}"), compiled, fuzz::gen_config(&mut g))
        })
        .collect()
}

/// Every program, named, compiled and linked.
fn programs() -> Vec<(String, Compiled)> {
    let mut out: Vec<(String, Compiled)> =
        fuzz_programs(FUZZ_PROGRAMS).into_iter().map(|(name, c, _)| (name, c)).collect();
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

/// Compare `got` (a header line, then one `name key=value …` line per
/// entry) with the fixture `file`, or rewrite it under `XMT_BLESS=1`.
/// Prints `<suite>: N <what>, M differ` and fails naming each entry and
/// field that moved.
fn check_fixture(suite: &str, file: &str, what: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(file);
    let entries = got.lines().count() - 1;
    if std::env::var("XMT_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, got).expect("write fixture");
        println!("{suite}: blessed {entries} {what}");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (XMT_BLESS=1 writes it)", path.display()));
    let differ: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| {
            let fields: Vec<String> = g
                .split(' ')
                .zip(w.split(' '))
                .skip(1)
                .filter(|(g, w)| g != w)
                .map(|(g, w)| format!("{w} -> {}", g.split_once('=').map_or(g, |(_, v)| v)))
                .collect();
            format!("  {}: {}", g.split(' ').next().unwrap_or(""), fields.join(", "))
        })
        .collect();
    println!("{suite}: {entries} {what}, {} differ", differ.len());
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{what} count differs from {}",
        path.display()
    );
    assert!(
        differ.is_empty(),
        "{} of {entries} {what} differ from {}:\n{}",
        differ.len(),
        path.display(),
        differ.join("\n")
    );
}

#[test]
fn asm_hashes_match_fixture() {
    let mut got = String::from(
        "# name asm=FNV(asm text) mm=FNV(memory map text) lines=FNV(line table) \
         fixes=layout fixes warnings=FNV(warnings)\n",
    );
    for (name, c) in &programs() {
        writeln!(got, "{}", record(name, c)).unwrap();
    }
    check_fixture("asm_hashes", "asm_hashes.txt", "programs", &got);
}

/// Run `c` on `cfg` and return its ledger line.
fn ledger_line(name: &str, c: &Compiled, cfg: &XmtConfig) -> String {
    let mut sim = c.simulator(cfg);
    sim.enable_host_profiling();
    sim.set_instr_limit(50_000_000);
    let s = sim.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(sim.machine.halted, "{name}: did not halt in {} instructions", s.instructions);
    let hp = sim.host_profile().expect("host profiling enabled");
    format!(
        "{name} cycles={} instructions={} events={} memory_events={} bursts={} \
         hops_elided={} replay_instrs={} stats={:016x} mem={:016x}",
        s.cycles,
        s.instructions,
        s.events,
        hp.memory_events,
        hp.bursts,
        hp.hops_elided,
        hp.replay_instrs,
        fnv1a(sim.stats.to_json_string().as_bytes()),
        fnv1a(sim.machine.mem.to_json_string().as_bytes()),
    )
}

#[test]
fn ledger() {
    let mut got = String::from(
        "# name cycles instructions events memory_events bursts hops_elided replay_instrs \
         stats=FNV(stats JSON) mem=FNV(final memory image JSON)\n",
    );
    let configs = [("fpga64", XmtConfig::fpga64()), ("chip1024", XmtConfig::chip1024())];
    for case in kernels(SEED) {
        let w = case
            .build(Variant::Parallel, &Options::default())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name()));
        for (cname, cfg) in &configs {
            let name = format!("{}/{cname}", case.name());
            writeln!(got, "{}", ledger_line(&name, &w.compiled, cfg)).unwrap();
        }
    }
    let p = MicroParams { threads: 64, iters: 8, data_words: 1 << 10 };
    for g in MicroGroup::ALL {
        let c = micro::build(g, &p, &Options::default()).unwrap();
        let name = format!("micro/{g:?}/chip1024");
        writeln!(got, "{}", ledger_line(&name, &c, &configs[1].1)).unwrap();
    }
    for (name, c, cfg) in fuzz_programs(16) {
        writeln!(got, "{}", ledger_line(&name, &c, &cfg)).unwrap();
    }
    check_fixture("ledger", "ledger.txt", "runs", &got);
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
