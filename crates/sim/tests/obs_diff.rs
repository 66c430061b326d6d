//! Observability transparency suite (the obs layer's tentpole property).
//!
//! The observability recorder (`cfg.obs_detail`) must be a *pure
//! observer*: enabling full-detail recording — occupancy spans, ICN
//! flight spans, queue-depth counters, periodic metric samples, host-time
//! scheduler windows — may change nothing architecturally observable.
//! Unlike tracers and filter plug-ins (which deliberately degrade burst
//! issue and decoded replay), the obs hooks sit at event-handler
//! boundaries both issue models and both engines pass through
//! identically, so obs-on and obs-off runs must be **bit-identical** in
//! simulated cycles, simulated time, instruction count, the full
//! statistics record and the final machine image.
//!
//! Every case draws a random terminating program (spawn sections with
//! loads, non-blocking stores, `psm`, prints, fences, bounded loops) and
//! a random small topology, picks one engine row (sequential and
//! sharded-parallel, both issue models, both ICN models, decode cache on
//! and off — the [`OBS_ENGINE_ROWS`] sweep plus extra random pairings),
//! and compares an obs-off run against an obs-on run with periodic
//! metric sampling and host profiling enabled — the worst-case recording
//! load. The obs-on run must also have recorded a non-empty timeline, so
//! the property can't pass vacuously.

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::ToJson;
use xmt_isa::{AsmProgram, Executable, GlobalReg, Instr, MemoryMap, Reg, Target};
use xmtsim::config::{DecodeMode, EngineMode, IssueModel, ObsDetail};
use xmtsim::differential::{check_obs_transparent, OBS_ENGINE_ROWS};
use xmtsim::{CycleSim, IcnModel, XmtConfig};

fn gen_config(g: &mut Gen) -> XmtConfig {
    let mut cfg = XmtConfig::tiny();
    cfg.clusters = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.tcus_per_cluster = g.usize_in(1, 2) as u32;
    cfg.cache_modules = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.dram_channels = g.usize_in(1, 2) as u32;
    cfg.icn_latency = g.usize_in(0, 6) as u32;
    cfg
}

/// A random terminating program: 1–2 spawn sections whose virtual
/// threads mix ALU work, memory round trips, non-blocking stores,
/// `psm` scratch ops, prints and fences, with master-side work between
/// sections — enough traffic to touch every obs hook (occupancy,
/// spawn/join, ICN flights, module queues, samples).
fn gen_program(g: &mut Gen) -> Executable {
    let words = 1usize << g.usize_in(4, 6);
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let mut p = AsmProgram::new();
    let sections = g.usize_in(1, 2);
    for s in 0..sections {
        // Master-side straight-line work (bursts + master cache traffic).
        p.push(Instr::Li {
            rt: Reg::T3,
            imm: g.int_in(0, 90) as i32,
        });
        for _ in 0..g.usize_in(0, 10) {
            p.push(Instr::Addi {
                rt: Reg::T3,
                rs: Reg::T3,
                imm: g.int_in(-5, 5) as i32,
            });
        }
        let threads = g.usize_in(1, 24) as i32;
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: threads - 1,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Li {
            rt: Reg::S1,
            imm: c as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        let tag = format!("vt{s}");
        p.label(tag.clone());
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Andi {
            rt: Reg::T1,
            rs: Reg::T0,
            imm: mask,
        });
        p.push(Instr::Sll {
            rd: Reg::T1,
            rt: Reg::T1,
            sh: 2,
        });
        p.push(Instr::Add {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::S0,
        });
        for b in 0..g.usize_in(1, 4) {
            match g.usize_in(0, 6) {
                0 => {
                    p.push(Instr::Lw {
                        rt: Reg::T2,
                        base: Reg::T1,
                        off: 0,
                    });
                    p.push(Instr::Add {
                        rd: Reg::T3,
                        rs: Reg::T3,
                        rt: Reg::T2,
                    });
                }
                1 => p.push(Instr::Swnb {
                    rt: Reg::T0,
                    base: Reg::T1,
                    off: 0,
                }),
                2 => {
                    p.push(Instr::Li {
                        rt: Reg::T4,
                        imm: 1,
                    });
                    p.push(Instr::Psm {
                        rt: Reg::T4,
                        base: Reg::S1,
                        off: 4 * s as i32,
                    });
                }
                3 => p.push(Instr::Print { rs: Reg::T0 }),
                4 => p.push(Instr::Fence),
                5 => {
                    // Bounded compute loop.
                    let l = format!("l{s}_{b}");
                    let iters = g.int_in(1, 8) as i32;
                    p.push(Instr::Li {
                        rt: Reg::T6,
                        imm: 0,
                    });
                    p.push(Instr::Li {
                        rt: Reg::T8,
                        imm: iters,
                    });
                    p.label(l.clone());
                    p.push(Instr::Addi {
                        rt: Reg::T3,
                        rs: Reg::T3,
                        imm: 1,
                    });
                    p.push(Instr::Addi {
                        rt: Reg::T6,
                        rs: Reg::T6,
                        imm: 1,
                    });
                    p.push(Instr::Slt {
                        rd: Reg::T9,
                        rs: Reg::T6,
                        rt: Reg::T8,
                    });
                    p.push(Instr::Bne {
                        rs: Reg::T9,
                        rt: Reg::Zero,
                        target: Target::label(l),
                    });
                }
                _ => p.push(Instr::Mul {
                    rd: Reg::T3,
                    rs: Reg::T0,
                    rt: Reg::T0,
                }),
            }
        }
        p.push(Instr::Swnb {
            rt: Reg::T3,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::J {
            target: Target::label(tag),
        });
        p.push(Instr::Join);
    }
    p.push(Instr::Print { rs: Reg::T3 });
    p.push(Instr::Halt);
    p.link(mm).unwrap()
}

/// Everything the two runs must agree on. `RunSummary::events` is
/// deliberately absent (the obs-on run schedules extra sample ticks).
type Observed = (u64, u64, u64, String, String);

#[allow(clippy::too_many_arguments)]
fn observe(
    exe: &Executable,
    cfg: &XmtConfig,
    issue: IssueModel,
    icn: IcnModel,
    engine: EngineMode,
    threads: u32,
    decode: DecodeMode,
    obs: bool,
) -> Observed {
    let mut cfg = cfg.clone();
    cfg.issue_model = issue;
    cfg.icn_model = icn;
    cfg.engine_mode = engine;
    cfg.decode_cache = decode;
    if engine == EngineMode::Parallel {
        cfg.threads = threads;
    }
    cfg.obs_detail = if obs { ObsDetail::Full } else { ObsDetail::Off };
    let mut sim = CycleSim::new(exe.clone(), cfg);
    sim.set_instr_limit(1 << 20);
    if obs {
        sim.set_obs_sample_interval(64);
        sim.enable_host_profiling();
    }
    let s = sim.run().expect("program runs to halt");
    assert!(sim.machine.halted, "instruction budget exhausted");
    if obs {
        let recorded = sim.obs().map_or(0, |o| o.timeline.records().len());
        assert!(recorded > 0, "obs-on run recorded nothing (vacuous case)");
    } else {
        assert!(sim.obs().is_none(), "obs-off run allocated a recorder");
    }
    (
        s.cycles,
        s.time_ps,
        s.instructions,
        sim.stats.to_json_string(),
        sim.machine.to_json_string(),
    )
}

/// The tentpole property: 256 random (program, topology, engine-row)
/// cases where full-detail observability is bit-identical to no
/// observability, under the sequential AND the sharded parallel engine.
#[test]
fn obs_on_matches_obs_off_across_engines() {
    let mut ran = 0u32;
    run(
        "obs_on_matches_obs_off",
        Config::default(),
        |g: &mut Gen| {
            ran += 1;
            let exe = gen_program(g);
            let cfg = gen_config(g);
            // Half the cases sweep the curated rows; the other half draw
            // a fully random engine pairing.
            let (issue, icn, engine, threads, decode) = if g.bool_p(0.5) {
                OBS_ENGINE_ROWS[g.usize_in(0, OBS_ENGINE_ROWS.len() - 1)]
            } else {
                (
                    if g.bool_p(0.5) {
                        IssueModel::Burst
                    } else {
                        IssueModel::PerInstr
                    },
                    if g.bool_p(0.5) {
                        IcnModel::Express
                    } else {
                        IcnModel::PerHop
                    },
                    if g.bool_p(0.5) {
                        EngineMode::Sequential
                    } else {
                        EngineMode::Parallel
                    },
                    if g.bool_p(0.5) { 2 } else { 4 },
                    if g.bool_p(0.5) {
                        DecodeMode::Cache
                    } else {
                        DecodeMode::Off
                    },
                )
            };
            let off = observe(&exe, &cfg, issue, icn, engine, threads, decode, false);
            let on = observe(&exe, &cfg, issue, icn, engine, threads, decode, true);
            assert_eq!(
                off, on,
                "obs-on diverged under {issue:?}×{icn:?}×{engine:?}(t={threads})×{decode:?}"
            );
        },
    );
    // scripts/verify.sh greps for this line to prove the suite really ran
    // (and wasn't filtered out) with the expected case count.
    eprintln!("obs_diff: ran {ran} obs-on/obs-off cases");
    assert!(ran >= 1);
}

/// The packaged checker agrees on a real compiled workload (all four
/// curated rows at once), so library users get the same guarantee from
/// one call.
#[test]
fn packaged_checker_passes_on_compiled_workload() {
    let src = "int A[32]; int N = 32;
        void main() {
            spawn(0, N - 1) { A[$] = A[$] + $; }
            print(A[7]);
        }";
    let out = xmtc::compile_default(src).unwrap();
    let exe = out.asm.link(out.memmap).unwrap();
    check_obs_transparent(&exe, &XmtConfig::tiny(), 1 << 20).unwrap();
}
