//! E1 (Table I): simulator throughput per microbenchmark group, measured
//! as host time per full simulated run at a fixed small scale
//! (throughput = instructions / time). Runs on the in-tree `xmt-harness`
//! bench runner and writes `BENCH_table1.json`.
//!
//! Table I characterizes the *reference* cost profile — one event per
//! switch hop and one per issued instruction, interpreted decode — so
//! every optimization knob is pinned to its oracle model here
//! (`bench/e2e`'s `ablate.*` rows time what express legs / compute bursts
//! / decoded replay buy).

use xmt_harness::BenchGroup;
use xmt_workloads::micro::{build, MicroGroup, MicroParams};
use xmtc::Options;
use xmtsim::{DecodeMode, IcnModel, IssueModel, XmtConfig};

fn main() {
    let mut cfg = XmtConfig::chip1024();
    cfg.icn_model = IcnModel::PerHop;
    cfg.issue_model = IssueModel::PerInstr;
    cfg.decode_cache = DecodeMode::Off;
    let params = MicroParams {
        threads: 1024,
        iters: 8,
        data_words: 1 << 14,
    };
    let mut group = BenchGroup::new("table1");
    group.sample_size(10);
    for g in MicroGroup::ALL {
        let compiled = build(g, &params, &Options::default()).unwrap();
        // Instruction count of one run, for throughput reporting.
        let instrs = compiled.simulator(&cfg).run().unwrap().instructions;
        group.throughput_elements(instrs);
        group.bench(g.label(), || {
            let mut sim = compiled.simulator(&cfg);
            sim.run().unwrap()
        });
    }
    group.finish();
}
