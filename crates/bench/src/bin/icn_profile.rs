//! **E2 — ICN host-time share** (paper §III-D).
//!
//! The paper reports that "for real-life XMTC programs, up to 60% of the
//! time can be spent in simulating the interconnection network". This
//! binary enables the simulator's host profiler and reports, for each
//! workload under *both* package-movement models (the per-hop switch walk
//! the paper describes, and the closed-form express path that elides it),
//! the fraction of host time in the memory-system model, the per-class
//! event counts, the event list's pop-side self-time and its traffic
//! counters — so the express path's event savings and scheduler relief
//! are visible side by side.
//!
//! A second table profiles the *issue* models the same way: for each
//! workload under per-instruction stepping vs compute-burst issue, the
//! share of events that are instruction-issue steps, the burst count and
//! mean length, the straight-line-run length distribution, which
//! boundary broke each burst (and, for a TCU stopped by a non-local
//! instruction, which kind), how many of the master's memory round trips
//! were walked on the stack instead of through the event list, and how
//! many TCU steps ran inside their blocking completion or on past a
//! non-blocking first instruction instead of as events of their own, and
//! how many TCUs took a section's first allocation round in closed form
//! (and of those, how many got no thread and parked without an event).
//!
//! A third table profiles the *decode* modes: for each workload under the
//! pre-decoded basic-block cache vs interpreted decode, how many blocks
//! were decoded, how often they were replayed, what fraction of retired
//! instructions executed as decoded replay, and the fused-superinstruction
//! and invalidation counts.
//!
//! With `--json`, the same runs are emitted as one machine-readable
//! document instead of the tables: an array of
//! `{"table", "workload", "variant", "metrics"}` entries where each
//! `metrics` member is a full `xmtsim.metrics.v1` registry (the same
//! schema `xmtsim-cli --metrics-out` writes).

use xmt_bench::render_table;
use xmt_harness::{Json, ToJson};
use xmt_workloads::micro::{build, MicroGroup, MicroParams};
use xmt_workloads::suite::{self, Variant};
use xmtc::Options;
use xmtsim::{DecodeMode, IcnModel, IssueModel, MetricsRegistry, XmtConfig};

/// One run's JSON entry for `--json` mode.
fn json_run(table: &str, workload: &str, variant: &str, metrics: &MetricsRegistry) -> Json {
    Json::Obj(vec![
        ("table".into(), Json::Str(table.into())),
        ("workload".into(), Json::Str(workload.into())),
        ("variant".into(), Json::Str(variant.into())),
        ("metrics".into(), metrics.to_json()),
    ])
}

fn main() {
    let json_mode = {
        let mut json = false;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--json" => json = true,
                other => {
                    eprintln!("icn_profile: unknown argument `{other}` (only --json)");
                    std::process::exit(2);
                }
            }
        }
        json
    };
    let params = MicroParams {
        threads: 2048,
        iters: 48,
        data_words: 1 << 16,
    };
    let opts = Options::default();

    let mut rows = Vec::new();
    let mut json_runs: Vec<Json> = Vec::new();
    let mut profile = |name: &str, compiled: &xmt_core::Compiled| {
        for (model, label) in [
            (IcnModel::PerHop, "per-hop"),
            (IcnModel::Express, "express"),
        ] {
            let mut cfg = XmtConfig::chip1024();
            cfg.icn_model = model;
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            let s = sim.run().expect("runs");
            let hp = sim.host_profile().unwrap().clone();
            if json_mode {
                let reg = MetricsRegistry::for_run(&s, &sim.stats, Some(&hp));
                json_runs.push(json_run("icn", name, label, &reg));
            }
            rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!("{:.1}%", 100.0 * hp.memory_fraction()),
                format!("{:.2}s", hp.memory_s),
                format!("{:.3}s", hp.sched_s),
                format!("{}", hp.compute_events),
                format!("{}", hp.memory_events),
                format!(
                    "{} / {} / {} / {} / {} / {}",
                    hp.sched.groups,
                    hp.sched.partial_groups,
                    hp.sched.lane_sorts,
                    hp.sched.overflow_events,
                    hp.sched.max_pending,
                    hp.sched.chunks_allocated
                ),
                match model {
                    IcnModel::PerHop => "-".to_string(),
                    IcnModel::Express => format!(
                        "{} legs ({} ended in their completion), {} hops elided",
                        hp.express_legs, hp.legs_folded, hp.hops_elided
                    ),
                },
            ]);
        }
    };

    let mem = build(MicroGroup::ParallelMemory, &params, &opts).unwrap();
    let cmp = build(MicroGroup::ParallelCompute, &params, &opts).unwrap();
    let bfs = suite::bfs(2000, 8000, 42, Variant::Parallel, &opts).unwrap();
    let fft = suite::fft(1024, 7, Variant::Parallel, &opts).unwrap();
    let workloads: [(&str, &xmt_core::Compiled); 4] = [
        ("micro: parallel memory-intensive", &mem),
        ("micro: parallel compute-intensive", &cmp),
        ("bfs (real-life XMTC program)", &bfs.compiled),
        ("fft (real-life XMTC program)", &fft.compiled),
    ];
    for (name, compiled) in workloads {
        profile(name, compiled);
    }
    drop(profile);

    if !json_mode {
        println!("E2: share of simulator host time spent in the ICN/memory-system model\n");
        println!(
            "{}",
            render_table(
                &[
                    "workload",
                    "icn model",
                    "memory-model share",
                    "memory-model time",
                    "event-list time",
                    "compute events",
                    "memory events",
                    "groups / partial / lane sorts / overflow / peak pending / chunks",
                    "express savings",
                ],
                &rows
            )
        );
        println!("paper: up to 60% of simulation time in the interconnection network model");
        println!("(the per-hop rows reproduce the paper's cost profile; the express rows");
        println!(" show the same runs with hop events flattened into closed-form legs;");
        println!(" event-list time is the pop side only — pushes run inside the handlers —");
        println!(" and the event-list column counts what the queue saw: groups drained,");
        println!(" groups that were a strict prefix of their lane, lanes sorted, events");
        println!(" beyond the 256-page window, peak pending events, chunks allocated)");
    }

    // Second table: the *issue*-model profile — how much of the event
    // traffic is instruction stepping, and what the compute-burst path
    // does to it (burst count, mean straight-line-run length, the
    // floor-log2 length distribution, and the boundary that broke each
    // burst: a non-local instruction, a pending sample tick, a
    // cycle/instruction/checkpoint boundary, the hard cap, or — master
    // only — a round trip that became events, a non-empty spawn).
    let mut issue_rows = Vec::new();
    for (name, compiled) in workloads {
        for (model, label) in [
            (IssueModel::PerInstr, "per-instr"),
            (IssueModel::Burst, "burst"),
        ] {
            let mut cfg = XmtConfig::chip1024();
            cfg.issue_model = model;
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            let s = sim.run().expect("runs");
            let hp = sim.host_profile().unwrap().clone();
            if json_mode {
                let reg = MetricsRegistry::for_run(&s, &sim.stats, Some(&hp));
                json_runs.push(json_run("issue", name, label, &reg));
            }
            let total_events = s.events.max(1);
            issue_rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * hp.compute_events as f64 / total_events as f64
                ),
                format!("{}", hp.bursts),
                if hp.bursts == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", hp.mean_burst_len())
                },
                if hp.bursts == 0 {
                    "-".to_string()
                } else {
                    hp.burst_len_hist
                        .iter()
                        .map(|c| c.to_string())
                        .collect::<Vec<_>>()
                        .join("/")
                },
                if hp.bursts == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{}/{}/{}/{}/{}/{}",
                        hp.burst_break_nonlocal,
                        hp.burst_break_sample,
                        hp.burst_break_boundary,
                        hp.burst_break_cap,
                        hp.burst_break_miss,
                        hp.burst_break_spawn
                    )
                },
                format!("{} / {}", hp.master_inline_trips, hp.master_event_trips),
                hp.tcu_break_cause.map(|n| n.to_string()).join("/"),
                format!("{} / {}", hp.completions_continued, hp.issues_continued),
                format!("{} / {}", hp.first_rounds, hp.idle_parked),
            ]);
        }
    }
    if !json_mode {
        println!("\nissue models: instruction-step event share and burst profile\n");
        println!(
            "{}",
            render_table(
                &[
                    "workload",
                    "issue model",
                    "issue-event share",
                    "bursts",
                    "mean len",
                    "len hist 1/2-3/../128+",
                    "breaks nonlocal/sample/boundary/cap/miss/spawn",
                    "master trips inline / event",
                    "tcu nonlocal breaks mem/shared fu/ps/chkid/fence/other",
                    "tcu steps continued by completion / past issue",
                    "tcu first rounds in closed form / idle parked",
                ],
                &issue_rows
            )
        );
        println!("(burst rows issue one scheduler event per straight-line run; the break");
        println!(" columns say which boundary ended each run, the master column how many");
        println!(" of its round trips were walked on the stack vs. sent through the event");
        println!(" list, the last two which instruction stopped a TCU's run and how many");
        println!(" TCU steps ran inside a blocking completion or on past a non-blocking");
        println!(" first instruction, the last how many TCUs took a section's first");
        println!(" allocation round without an event and how many of those got no thread —");
        println!(" identical simulated results are enforced by the issue_burst_diff suite)");
    }

    // Third table: the *decode*-mode profile — what the pre-decoded
    // basic-block cache does on top of burst issue (block and replay
    // counts, the share of retired instructions that executed as decoded
    // replay, fused superinstructions, and cache invalidations).
    let mut decode_rows = Vec::new();
    for (name, compiled) in workloads {
        for (mode, label) in [
            (DecodeMode::Off, "interpreted"),
            (DecodeMode::Cache, "cache"),
        ] {
            let mut cfg = XmtConfig::chip1024();
            cfg.decode_cache = mode;
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            let s = sim.run().expect("runs");
            let hp = sim.host_profile().unwrap().clone();
            if json_mode {
                let reg = MetricsRegistry::for_run(&s, &sim.stats, Some(&hp));
                json_runs.push(json_run("decode", name, label, &reg));
            }
            decode_rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!("{}", hp.blocks_decoded),
                format!("{}", hp.block_replays),
                format!(
                    "{:.1}%",
                    100.0 * hp.replay_instrs as f64 / s.instructions.max(1) as f64
                ),
                format!("{}", hp.fusions),
                format!("{}", hp.decode_invalidations),
            ]);
        }
    }
    if json_mode {
        let doc = Json::Obj(vec![
            (
                "schema".into(),
                Json::Str("xmtsim.bench.icn_profile.v1".into()),
            ),
            ("runs".into(), Json::Arr(json_runs)),
        ]);
        println!("{}", doc.encode());
        return;
    }
    println!("\ndecode modes: basic-block cache and superinstruction profile\n");
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "decode",
                "blocks decoded",
                "block replays",
                "replayed-instr share",
                "fused pairs",
                "invalidations",
            ],
            &decode_rows
        )
    );
    println!("(cache rows replay pre-decoded blocks inside burst issue; bit-identical");
    println!(" simulated results are enforced by the decode_diff differential suite)");
}
