//! Compute-burst issue (ISSUE 5): one scheduler event per straight-line
//! instruction run vs the per-instruction oracle, on the paper's four
//! Table I microbenchmarks — the parallel pair at chip scale, the serial
//! pair on `fpga64` (the kernels and machine of `bench/e2e`'s
//! `serial_master`, where the Master TCU's burst also folds private-FU
//! ops, master-cache hits and whole round trips, DESIGN §15).
//! The two issue models are bit-identical on simulated results (the
//! `issue_burst_diff` suite proves it; the probe below is a live
//! cross-check), so the entire gap is host-side event traffic: the
//! per-instruction oracle pays one step event per issued instruction
//! (and four memory events per master round trip), while the burst path
//! pays one per run.
//! Writes `BENCH_issue.json` and prints the host speedup plus the
//! events-per-1k-instructions each model spends.

use xmt_harness::json::Json;
use xmt_harness::BenchGroup;
use xmtc::Options;
use xmtsim::{IssueModel, XmtConfig};
use xmt_workloads::micro::{build, MicroGroup, MicroParams};

fn config(mut cfg: XmtConfig, model: IssueModel) -> XmtConfig {
    cfg.issue_model = model;
    cfg
}

/// Median of `<name>` in the written bench JSON.
fn median_of(benches: &[Json], name: &str) -> Option<u64> {
    benches.iter().find_map(|b| {
        let obj = b.as_obj().ok()?;
        let matches = obj
            .iter()
            .any(|(k, v)| k == "name" && matches!(v, Json::Str(s) if s == name));
        if !matches {
            return None;
        }
        obj.iter().find_map(|(k, v)| match v {
            Json::U(u) if k == "median_ns" => Some(*u),
            Json::I(i) if k == "median_ns" && *i >= 0 => Some(*i as u64),
            _ => None,
        })
    })
}

fn main() {
    let parallel = MicroParams { threads: 1024, iters: 8, data_words: 1 << 14 };
    // Serial kernels run `threads * iters / 16` iterations in all.
    let serial = MicroParams { threads: 16, iters: 1 << 12, data_words: 1 << 18 };
    let (chip, fpga) = (XmtConfig::chip1024(), XmtConfig::fpga64());
    let groups = [
        (MicroGroup::ParallelCompute, "parallel_compute", parallel, &chip, "chip1024"),
        (MicroGroup::ParallelMemory, "parallel_memory", parallel, &chip, "chip1024"),
        (MicroGroup::SerialCompute, "serial_compute", serial, &fpga, "fpga64"),
        (MicroGroup::SerialMemory, "serial_memory", serial, &fpga, "fpga64"),
    ];

    let mut group = BenchGroup::new("issue");
    group.sample_size(10);
    let mut report = Vec::new();
    for (micro, gname, params, machine, mname) in groups {
        let compiled = build(micro, &params, &Options::default()).unwrap();

        // One run per model up front: simulated results must agree, and
        // the summaries give the event books for the per-instruction
        // report (plus the burst-length profile for the compute case).
        let mut probe = Vec::new();
        for model in [IssueModel::Burst, IssueModel::PerInstr] {
            let mut sim = compiled.simulator(&config(machine.clone(), model));
            sim.enable_host_profiling();
            let s = sim.run().unwrap();
            let hp = sim.host_profile().unwrap().clone();
            probe.push((s, hp));
        }
        let (sb, hb) = probe[0].clone();
        let (sp, hp) = probe[1].clone();
        assert_eq!(
            (sb.cycles, sb.time_ps, sb.instructions),
            (sp.cycles, sp.time_ps, sp.instructions),
            "{gname}: issue models diverged on simulated results"
        );
        // A burst of L instructions is one step event instead of L, a
        // step run in place by its completion or continued past a
        // non-blocking first instruction one fewer, and a master round
        // trip walked on the stack none instead of four; a return leg that
        // ended in its completion is one fewer in either run (DESIGN §16);
        // a TCU's first round taken in closed form is one fewer, and an
        // idle TCU's `chkid` step another (DESIGN §17).
        assert_eq!(
            sb.events
                + (hb.burst_instrs - hb.bursts)
                + hb.completions_continued
                + hb.issues_continued
                + 4 * hb.master_inline_trips
                + hb.first_rounds
                + hb.idle_parked
                + hb.legs_folded,
            sp.events + hp.legs_folded,
            "{gname}: event books out of balance"
        );
        assert_eq!(hb.master_event_trips, 0, "{gname}: nothing clips an unsampled run");

        group.throughput_elements(sb.instructions);
        for (model, label) in [(IssueModel::Burst, "burst"), (IssueModel::PerInstr, "perinstr")] {
            let cfg = config(machine.clone(), model);
            group.bench(&format!("{gname}/{label}"), || {
                let mut sim = compiled.simulator(&cfg);
                sim.run().unwrap()
            });
        }
        report.push((gname, mname, sb, sp, hb));
    }
    let path = group.finish();

    // Report: host speedup and step-event traffic per 1k instructions.
    let text = std::fs::read_to_string(&path).expect("bench json readable");
    let parsed = Json::parse(&text).expect("bench json parses");
    let obj = parsed.as_obj().expect("bench json is an object");
    let benches = obj
        .iter()
        .find(|(k, _)| k == "benches")
        .and_then(|(_, v)| v.as_arr().ok())
        .expect("benches array");
    for (gname, mname, sb, sp, hb) in report {
        let per_1k = |events: u64| events as f64 * 1000.0 / sb.instructions.max(1) as f64;
        if let (Some(b), Some(p)) = (
            median_of(benches, &format!("{gname}/burst")),
            median_of(benches, &format!("{gname}/perinstr")),
        ) {
            eprintln!(
                "bench issue: {mname} {gname}: burst {:.2}x vs per-instr \
                 ({:.1} vs {:.1} ms median)",
                p as f64 / b.max(1) as f64,
                b as f64 / 1e6,
                p as f64 / 1e6,
            );
        }
        eprintln!(
            "bench issue: {gname}: events/1k-instr per-instr {:.0} vs burst {:.0} \
             ({:.0} elided; {} bursts, mean len {:.1}; {} master round trips inline)",
            per_1k(sp.events),
            per_1k(sb.events),
            per_1k(sp.events - sb.events),
            hb.bursts,
            hb.mean_burst_len(),
            hb.master_inline_trips,
        );
    }
}
