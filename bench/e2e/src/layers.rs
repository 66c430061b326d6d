//! The traced run: every per-layer metric of one workload.
//!
//! Four steps on the same built workload: an untraced facade pass and a
//! traced one (their ratio is the tracing overhead); a *decomposition*
//! pass that calls the compiler's public pass functions one by one and
//! runs each program on a simulator it builds itself with host profiling
//! on; the one-knob ablation on the workload at quarter length; and, on
//! one short program, probes of the export and checkpoint paths.

use crate::pass::{pass, PassSums};
use crate::report::{ratio, Metric, Tally};
use crate::trace::{SpanId, Trace, ROOT};
use crate::workloads::{self, Bench, Program};
use std::hint::black_box;
use std::time::Instant;
use xmt_core::{Compiled, Toolchain};
use xmt_harness::ToJson;
use xmt_isa::Executable;
use xmtc::{clustering, codegen, inline, layout, lower, opt, outline, parser, sema};
use xmtsim::checkpoint::{Checkpoint, CheckpointOutcome};
use xmtsim::cycle::{HostProfile, RunSummary};
use xmtsim::stats::Stats;
use xmtsim::{
    CycleSim, DecodeMode, EngineMode, IcnModel, IssueModel, MemModel, ObsDetail, XmtConfig,
};

/// The traced run of `name`; returns the metrics and the spans.
pub fn traced(
    name: &str,
    seed: u64,
    scale: usize,
    ablate: bool,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Trace), String> {
    let start = Instant::now();
    let bench = workloads::build(name, seed, scale)?;
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;
    pass(&bench, &mut Trace::new(false), tally); // warm-up

    let plain = pass(&bench, &mut Trace::new(false), tally);
    let mut trace = Trace::new(true);
    let traced = pass(&bench, &mut trace, tally);

    let mut m = vec![
        Metric::one("workloads.gen_ms", "ms", gen_ms),
        Metric::one(
            "workloads.verify_ms",
            "ms",
            trace.total_s("workloads.verify") * 1e3,
        ),
        Metric::one("core.load_us", "us", trace.total_s("core.load") * 1e6),
        Metric::one(
            "functional.ns_per_instr",
            "ns/instr",
            ratio(traced.func_s() * 1e9, traced.func_instr as f64),
        ),
        Metric::one(
            "trace.overhead_ratio",
            "ratio",
            ratio(traced.wall_s, plain.wall_s),
        ),
    ];
    decompose(&bench, &traced, &mut trace, tally, &mut m);
    let front: f64 = ["xmtc.", "isa.", "core.load", "core.sim_new", "core.extract"]
        .iter()
        .map(|layer| trace.total_s(layer))
        .sum();
    m.push(Metric::one(
        "trace.front_share",
        "share",
        ratio(front, plain.wall_s),
    ));
    m.push(Metric::exact("trace.spans", "count", trace.len() as f64));

    let tiny = workloads::build(name, seed, PROBE_SCALE)?;
    probe(&load(&tiny.programs[0])?, &tiny.configs[0].1, tally, &mut m);
    if ablate {
        ablation(&workloads::build(name, seed, scale * 4)?, tally, &mut m)?;
    }
    Ok((m, trace))
}

/// Compile, link and load a program through the facade, untimed.
fn load(p: &Program) -> Result<Compiled, String> {
    let mut c = Toolchain::with_options(p.options.clone())
        .compile(&p.source)
        .map_err(|e| format!("{}: {e}", p.name))?;
    for (g, words) in &p.inputs {
        c.set_global(g, words)
            .map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(c)
}

// ------------------------------------------------------------- decomposition

/// `xmtc::compile` + link, one public pass function per span, in the
/// order `xmtc::compile` calls them (its private line-table step is the
/// one part not covered).
fn compile_by_pass(
    p: &Program,
    req: u32,
    root: SpanId,
    trace: &mut Trace,
) -> Result<(Executable, u32), String> {
    let o = &p.options;
    let e = |e: xmtc::CompileError| e.to_string();
    let mut ast = trace
        .span("xmtc.parse", req, root, || parser::parse(&p.source))
        .0
        .map_err(|e| e.to_string())?;
    let mut checked = trace
        .span("xmtc.sema", req, root, || {
            inline::inline_parallel_calls(&mut ast)?;
            let mut checked = sema::check(ast)?;
            inline::prune_dead_functions(&mut checked.program);
            Ok(checked)
        })
        .0
        .map_err(e)?;
    trace.span("xmtc.outline", req, root, || {
        if let Some(c) = o.clustering.filter(|&c| c > 1) {
            clustering::cluster(&mut checked.program, c);
        }
        if o.outline {
            outline::outline(&mut checked.program);
        }
    });
    let mut module = trace
        .span("xmtc.lower", req, root, || lower::lower(&checked, o))
        .0
        .map_err(e)?;
    trace.span("xmtc.opt", req, root, || opt::optimize(&mut module, o));
    let mut asm = trace
        .span("xmtc.codegen", req, root, || codegen::emit(&module, o))
        .0
        .map_err(e)?;
    let fixes = trace
        .span("xmtc.layout", req, root, || {
            let fixes = layout::fix_layout(&mut asm)?;
            layout::verify(&asm)?;
            Ok::<u32, String>(fixes)
        })
        .0?;
    let exe = trace
        .span("isa.link", req, root, || asm.link(module.memmap))
        .0
        .map_err(|e| e.to_string())?;
    Ok((exe, fixes))
}

/// Sums over the profiled runs of the decomposition pass.
#[derive(Default)]
struct Profiled {
    run_s: f64,
    cycles: u64,
    instr: u64,
    events: u64,
    hp: HostProfile,
    stats: Stats,
    requests: u64,
}

impl Profiled {
    fn add(&mut self, s: &RunSummary, dt: f64, hp: &HostProfile, st: &Stats) {
        self.run_s += dt;
        self.cycles += s.cycles;
        self.instr += s.instructions;
        self.events += s.events;
        self.requests += st.module_accesses.iter().sum::<u64>();
        let (a, b) = (&mut self.hp, hp);
        a.sched_s += b.sched_s;
        a.compute_s += b.compute_s;
        a.memory_s += b.memory_s;
        a.other_s += b.other_s;
        a.compute_events += b.compute_events;
        a.memory_events += b.memory_events;
        a.express_legs += b.express_legs;
        a.hops_elided += b.hops_elided;
        a.bursts += b.bursts;
        a.burst_instrs += b.burst_instrs;
        a.burst_break_nonlocal += b.burst_break_nonlocal;
        a.blocks_decoded += b.blocks_decoded;
        a.replay_instrs += b.replay_instrs;
        a.fusions += b.fusions;
        a.mem_drains += b.mem_drains;
        a.mem_elided += b.mem_elided;
        let (a, b) = (&mut self.stats, st);
        a.spawns += b.spawns;
        a.virtual_threads += b.virtual_threads;
        a.cache_hits += b.cache_hits;
        a.cache_misses += b.cache_misses;
        a.prefetch_hits += b.prefetch_hits;
        a.dram_accesses += b.dram_accesses;
        a.icn_packages += b.icn_packages;
        a.psm_ops += b.psm_ops;
        a.ps_ops += b.ps_ops;
    }
}

fn decompose(
    bench: &Bench,
    facade: &PassSums,
    trace: &mut Trace,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) {
    let mut sum = Profiled::default();
    let (mut source_bytes, mut asm_instrs, mut layout_fixes) = (0usize, 0usize, 0u32);
    let mut compile_us = Vec::new();
    let mut facade_runs = facade.run_ids.iter();
    for (i, p) in bench.programs.iter().enumerate() {
        let req = i as u32;
        let root = trace.open("decompose", req, ROOT);
        let start = Instant::now();
        let split = compile_by_pass(p, req, root.0, trace);
        compile_us.push(start.elapsed().as_secs_f64() * 1e6);
        let compiled = split.and_then(|(exe, fixes)| {
            let c = load(p)?;
            // The loaded image differs from the fresh link only in data.
            if exe.text != c.executable().text {
                return Err(format!(
                    "{}: pass-by-pass compile differs from xmtc::compile",
                    p.name
                ));
            }
            source_bytes += p.source.len();
            asm_instrs += c.asm.instr_count();
            layout_fixes += fixes;
            Ok(c)
        });
        let compiled = match compiled {
            Ok(c) => c,
            Err(e) => {
                tally.lost(bench.configs.len(), e);
                continue;
            }
        };
        for (_, cfg) in &bench.configs {
            let mut sim = trace
                .span("core.sim_new", req, root.0, || compiled.simulator(cfg))
                .0;
            sim.enable_host_profiling();
            let (run, dt) = trace.span("cycle.run_profiled", req, root.0, || sim.run());
            trace.span("core.extract", req, root.0, || {
                // What `Compiled::run` copies into its `RunResult`.
                black_box((
                    sim.machine.output.clone(),
                    sim.stats.clone(),
                    sim.machine.clone(),
                    compiled.executable().clone(),
                ))
            });
            let same = facade_runs.next().copied();
            tally.op(match run {
                Ok(s) if Some((s.cycles, s.instructions)) == same => {
                    sum.add(
                        &s,
                        dt,
                        sim.host_profile().expect("profiling enabled"),
                        &sim.stats,
                    );
                    Ok(())
                }
                Ok(_) => Err(format!(
                    "{}: profiled run differs from the facade run",
                    p.name
                )),
                Err(e) => Err(format!("{}: {e}", p.name)),
            });
        }
        trace.close(root);
    }

    for pass in [
        "parse", "sema", "outline", "lower", "opt", "codegen", "layout",
    ] {
        let name = format!("xmtc.{pass}");
        m.push(Metric::one(
            &format!("{name}_us"),
            "us",
            trace.total_s(&name) * 1e6,
        ));
    }
    compile_us.sort_by(f64::total_cmp);
    let pct = |q: f64| {
        compile_us[((compile_us.len() as f64 * q).ceil() as usize).clamp(1, compile_us.len()) - 1]
    };
    m.push(Metric::one("xmtc.compile_us_p50", "us", pct(0.50)));
    m.push(Metric::one("xmtc.compile_us_p99", "us", pct(0.99)));
    m.push(Metric::exact(
        "xmtc.source_bytes",
        "bytes",
        source_bytes as f64,
    ));
    m.push(Metric::exact("xmtc.asm_instrs", "instr", asm_instrs as f64));
    m.push(Metric::exact(
        "xmtc.layout_fixes",
        "count",
        layout_fixes as f64,
    ));
    m.push(Metric::one(
        "isa.link_us",
        "us",
        trace.total_s("isa.link") * 1e6,
    ));
    let new_s = trace.total_s("core.sim_new");
    let extract_s = trace.total_s("core.extract");
    m.push(Metric::one("core.sim_new_us", "us", new_s * 1e6));
    m.push(Metric::one("core.extract_us", "us", extract_s * 1e6));

    let Profiled {
        run_s,
        cycles,
        instr,
        events,
        hp,
        stats,
        requests,
    } = sum;
    m.push(Metric::exact("cycle.cycles", "cycles", cycles as f64));
    m.push(Metric::exact("cycle.instructions", "instr", instr as f64));
    let instr = instr as f64;
    let per_instr = |s: f64| ratio(s * 1e9, instr);
    let count = |name: &str, v: u64| Metric::exact(name, "count", v as f64);
    m.extend([
        Metric::one(
            "engine.sched_ns_per_instr",
            "ns/instr",
            per_instr(hp.sched_s),
        ),
        count("engine.events", events),
        Metric::exact(
            "engine.events_per_instr",
            "events/instr",
            ratio(events as f64, instr),
        ),
        Metric::one(
            "exec.compute_ns_per_instr",
            "ns/instr",
            per_instr(hp.compute_s),
        ),
        count("exec.compute_events", hp.compute_events),
        Metric::exact("exec.mean_burst_len", "instr/burst", hp.mean_burst_len()),
        Metric::exact(
            "exec.burst_break_nonlocal_share",
            "share",
            ratio(hp.burst_break_nonlocal as f64, hp.bursts as f64),
        ),
        Metric::exact(
            "decode.replay_share",
            "share",
            ratio(hp.replay_instrs as f64, instr),
        ),
        count("decode.fusions", hp.fusions),
        count("decode.blocks_decoded", hp.blocks_decoded),
        count("icn.packages", stats.icn_packages),
        count("icn.express_legs", hp.express_legs),
        count("icn.hops_elided", hp.hops_elided),
        Metric::one(
            "mem.memory_ns_per_instr",
            "ns/instr",
            per_instr(hp.memory_s),
        ),
        Metric::one(
            "mem.ns_per_request",
            "ns/req",
            ratio(hp.memory_s * 1e9, requests as f64),
        ),
        count("mem.memory_events", hp.memory_events),
        count("mem.requests", requests),
        count("mem.drains", hp.mem_drains),
        Metric::exact(
            "mem.cohort_size",
            "req/drain",
            ratio(hp.mem_elided as f64, hp.mem_drains as f64),
        ),
        Metric::exact(
            "mem.l1_hit_share",
            "share",
            ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.cache_misses) as f64,
            ),
        ),
        count("mem.dram_accesses", stats.dram_accesses),
        count("mem.prefetch_hits", stats.prefetch_hits),
        Metric::one(
            "spawn.other_ns_per_instr",
            "ns/instr",
            per_instr(hp.other_s),
        ),
        count("spawn.sections", stats.spawns),
        count("spawn.virtual_threads", stats.virtual_threads),
        count("spawn.ps_ops", stats.ps_ops),
        count("spawn.psm_ops", stats.psm_ops),
        Metric::one("cycle.profiled_ns_per_instr", "ns/instr", per_instr(run_s)),
        Metric::one(
            "cycle.unattributed_share",
            "share",
            1.0 - ratio(hp.sched_s + hp.compute_s + hp.memory_s + hp.other_s, run_s),
        ),
        // Facade runs also build the simulator and copy the result out.
        Metric::one(
            "cycle.profile_overhead_ratio",
            "ratio",
            ratio(run_s, facade.sim_s() - new_s - extract_s),
        ),
    ]);
}

// ------------------------------------------------- observability, checkpoints

/// What a run must reproduce for its simulated statistics to count as
/// identical to another's.
#[derive(PartialEq)]
struct Identity {
    cycles: u64,
    time_ps: u64,
    instructions: u64,
    stats_json: String,
}

/// Run `sim` to the end; its identity and the seconds inside `run`.
fn finish(sim: &mut CycleSim) -> Result<(Identity, f64), String> {
    let start = Instant::now();
    let s = sim.run().map_err(|e| e.to_string())?;
    let dt = start.elapsed().as_secs_f64();
    let id = Identity {
        cycles: s.cycles,
        time_ps: s.time_ps,
        instructions: s.instructions,
        stats_json: sim.stats.to_json_string(),
    };
    Ok((id, dt))
}

/// Size divisor of the probed program: a fully observed chip1024 run
/// records about 10 KB of trace per virtual thread, so keep it short.
const PROBE_SCALE: usize = 8;

/// Export and checkpoint costs on one program: none of these paths runs
/// in an end-to-end metric, so this is where their cost is kept.
fn probe(compiled: &Compiled, cfg: &XmtConfig, tally: &mut Tally, m: &mut Vec<Metric>) {
    let exe = compiled.executable();
    let full = XmtConfig {
        obs_detail: ObsDetail::Full,
        ..cfg.clone()
    };
    let mut sim = CycleSim::new(exe.clone(), full);
    let Ok((base, _)) = finish(&mut sim) else {
        tally.lost(2, "probe: observed run failed".into());
        return;
    };
    let start = Instant::now();
    let bytes =
        sim.trace_json().map_or(0, |t| t.len()) + sim.metrics_registry().to_json_string().len();
    m.push(Metric::one(
        "obs.export_ms",
        "ms",
        start.elapsed().as_secs_f64() * 1e3,
    ));
    // Not exact: a fully observed trace carries host-time spans too.
    m.push(Metric::one("obs.trace_bytes", "bytes", bytes as f64));
    let start = Instant::now();
    black_box(sim.stats.to_json_string());
    m.push(Metric::one(
        "stats.json_us",
        "us",
        start.elapsed().as_secs_f64() * 1e6,
    ));

    // Mid-run checkpoint → JSON → resume must end exactly like `base`.
    let mut sim = CycleSim::new(exe.clone(), cfg.clone());
    let resumed = match sim.run_to_checkpoint_anytime(base.cycles / 2) {
        Ok(CheckpointOutcome::Checkpoint(ckpt)) => {
            let start = Instant::now();
            let json = ckpt.to_json();
            m.push(Metric::one(
                "checkpoint.save_ms",
                "ms",
                start.elapsed().as_secs_f64() * 1e3,
            ));
            m.push(Metric::exact(
                "checkpoint.bytes",
                "bytes",
                json.len() as f64,
            ));
            let start = Instant::now();
            let back = Checkpoint::from_json(&json)
                .map_err(|e| e.to_string())
                .map(|c| CycleSim::resume(exe.clone(), cfg.clone(), c));
            m.push(Metric::one(
                "checkpoint.restore_ms",
                "ms",
                start.elapsed().as_secs_f64() * 1e3,
            ));
            back.and_then(|mut sim| finish(&mut sim))
        }
        Ok(CheckpointOutcome::Done(_)) => Err("halted before the checkpoint cycle".into()),
        Err(e) => Err(e.to_string()),
    };
    tally.op(match resumed {
        Ok((id, _)) if id == base => Ok(()),
        Ok(_) => Err("probe: resumed run differs from the uninterrupted one".into()),
        Err(e) => Err(format!("probe: {e}")),
    });
}

// ------------------------------------------------------------------ ablation

type Knob = fn(&mut XmtConfig);

/// One knob flipped from the all-fast default (observability counts as a
/// knob here: its ratio is `obs.full_time_ratio`).
const VARIANTS: [(&str, Knob); 7] = [
    ("ablate.icn_perhop_ratio", |c| {
        c.icn_model = IcnModel::PerHop
    }),
    ("ablate.issue_perinstr_ratio", |c| {
        c.issue_model = IssueModel::PerInstr
    }),
    ("ablate.decode_off_ratio", |c| {
        c.decode_cache = DecodeMode::Off
    }),
    ("ablate.mem_perreq_ratio", |c| {
        c.mem_model = MemModel::PerRequest
    }),
    ("ablate.engine_par2_ratio", |c| {
        c.engine_mode = EngineMode::Parallel;
        c.threads = 2;
    }),
    ("ablate.all_oracle_ratio", |c| {
        c.icn_model = IcnModel::PerHop;
        c.issue_model = IssueModel::PerInstr;
        c.decode_cache = DecodeMode::Off;
        c.mem_model = MemModel::PerRequest;
    }),
    ("obs.full_time_ratio", |c| c.obs_detail = ObsDetail::Full),
];

/// Run every program on every machine under `tweak`; total seconds in
/// `CycleSim::run` and each run's identity (`None` where it failed).
fn sweep(bench: &Bench, loaded: &[Compiled], tweak: Knob) -> (f64, Vec<Option<Identity>>) {
    let mut total = 0.0;
    let mut ids = Vec::new();
    for c in loaded {
        for (_, cfg) in &bench.configs {
            let mut cfg = cfg.clone();
            tweak(&mut cfg);
            ids.push(
                finish(&mut CycleSim::new(c.executable().clone(), cfg))
                    .ok()
                    .map(|(id, dt)| {
                        total += dt;
                        id
                    }),
            );
        }
    }
    (total, ids)
}

/// Host time of each variant relative to the default, on the workload at
/// quarter length (the parallel engine alone is up to 11× slower). Every
/// variant run must leave cycles, simulated time, instructions and the
/// statistics JSON exactly as the default run does.
fn ablation(bench: &Bench, tally: &mut Tally, m: &mut Vec<Metric>) -> Result<(), String> {
    let loaded = bench
        .programs
        .iter()
        .map(load)
        .collect::<Result<Vec<_>, _>>()?;
    let (base_s, base) = sweep(bench, &loaded, |_| {});
    for (name, tweak) in VARIANTS {
        let (s, ids) = sweep(bench, &loaded, tweak);
        for (got, want) in ids.iter().zip(&base) {
            tally.op(if got.is_some() && got == want {
                Ok(())
            } else {
                Err(format!(
                    "{name}: simulated statistics differ from the default run"
                ))
            });
        }
        m.push(Metric::one(name, "ratio", ratio(s, base_s)));
    }
    Ok(())
}
