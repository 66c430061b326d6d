//! Differential property suite for the pre-decoded basic-block cache.
//!
//! Decoded replay (`DecodeMode::Cache` — hot basic blocks classified once
//! into flat pre-decoded ops, with compare+branch / load-immediate+ALU
//! superinstruction fusion) must be bit-identical to the interpreted
//! issue path (`DecodeMode::Off`) and to the per-instruction oracle
//! (`IssueModel::PerInstr`) on every architecturally observable quantity:
//! simulated cycles, simulated time, instruction count, the full
//! statistics record, program output, the final machine image, and —
//! between cache-on and cache-off under the *same* issue model — the
//! serialized checkpoint bytes of a mid-flight snapshot. Replay is pure
//! fast-forward; the interpreted outer loop stays the referee for every
//! break condition.
//!
//! Cases sweep random programs biased toward what stresses decoded
//! blocks: fusible `li`+ALU and compare+branch pairs, straight-line runs,
//! tight branchy loops, `jal`/`jr` chains, spawn-heavy sections, and
//! non-local clip points (loads, `psm`, prints, fences) — plus random
//! small topologies, both ICN models, mid-run sampling ticks, DVFS
//! retunes and mid-flight checkpoint / JSON round-trip / resume.

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::ToJson;
use xmt_isa::{AsmProgram, Executable, GlobalReg, Instr, MemoryMap, Reg, Target};
use xmtsim::checkpoint::{Checkpoint, CheckpointOutcome};
use xmtsim::config::{ClockDomain, DecodeMode, IssueModel};
use xmtsim::stats::{ActivityPlugin, ActivitySample, RuntimeCtl};
use xmtsim::{CycleSim, IcnModel, XmtConfig};

/// Mid-run DVFS retune shared by all runs of a case (a decoded block must
/// clip at the epoch boundary exactly like the interpreted loop).
#[derive(Debug, Clone, Copy)]
struct DvfsSpec {
    at_sample: u64,
    dom: ClockDomain,
    factor_pct: u32,
    interval_cycles: u64,
}

struct Retune {
    spec: DvfsSpec,
    seen: u64,
    fired: bool,
}

impl ActivityPlugin for Retune {
    fn sample(&mut self, _s: &ActivitySample<'_>, ctl: &mut RuntimeCtl) {
        self.seen += 1;
        if !self.fired && self.seen >= self.spec.at_sample {
            self.fired = true;
            ctl.scale_frequency(self.spec.dom, self.spec.factor_pct as f64 / 100.0);
        }
    }
}

/// A do-nothing sampler: its only effect is the periodic sample tick,
/// i.e. a boundary decoded replay must stop at mid-block.
struct Tick;

impl ActivityPlugin for Tick {
    fn sample(&mut self, _s: &ActivitySample<'_>, _ctl: &mut RuntimeCtl) {}
}

fn gen_config(g: &mut Gen) -> XmtConfig {
    let mut cfg = XmtConfig::tiny();
    cfg.clusters = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.tcus_per_cluster = g.usize_in(1, 2) as u32;
    cfg.cache_modules = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.dram_channels = g.usize_in(1, 2) as u32;
    cfg.icn_latency = g.usize_in(0, 6) as u32;
    cfg.icn_model = if g.bool_p(0.5) {
        IcnModel::Express
    } else {
        IcnModel::PerHop
    };
    cfg
}

/// Straight-line ALU/shift run seeded with the fusion shapes the decoder
/// looks for: `li`+ALU-consuming pairs and compare(+immediate)+branch.
fn straight_line(p: &mut AsmProgram, g: &mut Gen, n: usize) {
    for _ in 0..n {
        match g.usize_in(0, 5) {
            0 => p.push(Instr::Addi {
                rt: Reg::T3,
                rs: Reg::T3,
                imm: g.int_in(-7, 7) as i32,
            }),
            1 => p.push(Instr::Xor {
                rd: Reg::T4,
                rs: Reg::T4,
                rt: Reg::T3,
            }),
            2 => p.push(Instr::Sll {
                rd: Reg::T5,
                rt: Reg::T3,
                sh: g.usize_in(0, 3) as u8,
            }),
            3 => {
                // Fusible li + consuming ALU pair.
                p.push(Instr::Li {
                    rt: Reg::T7,
                    imm: g.int_in(-50, 50) as i32,
                });
                p.push(Instr::Add {
                    rd: Reg::T3,
                    rs: Reg::T3,
                    rt: Reg::T7,
                });
            }
            4 => p.push(Instr::Srl {
                rd: Reg::T4,
                rt: Reg::T4,
                sh: g.usize_in(0, 2) as u8,
            }),
            _ => p.push(Instr::Add {
                rd: Reg::T3,
                rs: Reg::T3,
                rt: Reg::T4,
            }),
        }
    }
}

/// Tight loop whose back edge is a fusible compare+branch.
fn cmp_loop(p: &mut AsmProgram, g: &mut Gen, tag: String) {
    let iters = g.int_in(1, 12) as i32;
    p.push(Instr::Li {
        rt: Reg::T6,
        imm: 0,
    });
    p.push(Instr::Li {
        rt: Reg::T8,
        imm: iters,
    });
    p.label(tag.clone());
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
        target: Target::label(tag),
    });
}

/// A random terminating program biased toward decoded-replay stress.
fn gen_program(g: &mut Gen) -> Executable {
    let words = 1usize << g.usize_in(4, 7);
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let mut p = AsmProgram::new();
    let sections = g.usize_in(1, 3);
    for s in 0..sections {
        p.push(Instr::Li {
            rt: Reg::T3,
            imm: g.int_in(0, 100) as i32,
        });
        let n = g.usize_in(0, 25);
        straight_line(&mut p, g, n);
        if g.bool_p(0.5) {
            cmp_loop(&mut p, g, format!("m{s}"));
        }
        let threads = g.usize_in(1, 32) as i32;
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
        for b in 0..g.usize_in(1, 5) {
            match g.usize_in(0, 8) {
                0 => {
                    let n = g.usize_in(3, 40);
                    straight_line(&mut p, g, n);
                }
                1 => cmp_loop(&mut p, g, format!("l{s}_{b}")),
                2 => {
                    // Non-local clip mid-run: load round trip.
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
                3 => p.push(Instr::Swnb {
                    rt: Reg::T0,
                    base: Reg::T1,
                    off: 0,
                }),
                4 => {
                    p.push(Instr::Li {
                        rt: Reg::T4,
                        imm: 1,
                    });
                    p.push(Instr::Psm {
                        rt: Reg::T4,
                        base: Reg::S1,
                        off: 4 * s as i32,
                    });
                    // The psm+increment shape the functional peephole fuses.
                    p.push(Instr::Addi {
                        rt: Reg::T3,
                        rs: Reg::T4,
                        imm: 1,
                    });
                }
                5 => p.push(Instr::Mul {
                    rd: Reg::T3,
                    rs: Reg::T0,
                    rt: Reg::T0,
                }),
                6 => p.push(Instr::Print { rs: Reg::T0 }),
                7 => {
                    // jal/jr chain: decoded blocks ending in control flow.
                    let f = format!("f{s}_{b}");
                    let over = format!("o{s}_{b}");
                    p.push(Instr::Jal {
                        target: Target::label(f.clone()),
                    });
                    p.push(Instr::J {
                        target: Target::label(over.clone()),
                    });
                    p.label(f);
                    p.push(Instr::Addi {
                        rt: Reg::T3,
                        rs: Reg::T3,
                        imm: 3,
                    });
                    p.push(Instr::Jr { rs: Reg::Ra });
                    p.label(over);
                }
                _ => p.push(Instr::Fence),
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
    p.push(Instr::Halt);
    p.link(mm).unwrap()
}

fn gen_dvfs(g: &mut Gen) -> Option<DvfsSpec> {
    if !g.bool_p(0.3) {
        return None;
    }
    let dom = match g.usize_in(0, 3) {
        0 => ClockDomain::Cluster,
        1 => ClockDomain::Icn,
        2 => ClockDomain::Cache,
        _ => ClockDomain::Dram,
    };
    let factor_pct = [25, 50, 75, 150, 200, 300][g.usize_in(0, 5)];
    Some(DvfsSpec {
        at_sample: g.int_in(1, 4) as u64,
        dom,
        factor_pct,
        interval_cycles: g.int_in(64, 512) as u64,
    })
}

#[derive(Debug, Clone, Copy)]
struct CaseSpec {
    dvfs: Option<DvfsSpec>,
    sampler: Option<u64>,
    ckpt_at: Option<u64>,
}

fn attach(sim: &mut CycleSim, spec: &CaseSpec) {
    if let Some(dvfs) = spec.dvfs {
        sim.add_activity(
            Box::new(Retune {
                spec: dvfs,
                seen: 0,
                fired: false,
            }),
            dvfs.interval_cycles,
        );
    }
    if let Some(iv) = spec.sampler {
        sim.add_activity(Box::new(Tick), iv);
    }
}

/// Everything two runs must agree on, plus the serialized checkpoint
/// bytes when the case snapshots mid-flight. `RunSummary::events` is
/// deliberately absent (replay elides host events by design).
type Observed = (u64, u64, u64, String, String, Option<String>);

fn observe(
    exe: Executable,
    cfg: &XmtConfig,
    issue: IssueModel,
    decode: DecodeMode,
    spec: &CaseSpec,
) -> Observed {
    let mut cfg = cfg.clone();
    cfg.issue_model = issue;
    cfg.decode_cache = decode;
    let mut sim = CycleSim::new(exe.clone(), cfg.clone());
    attach(&mut sim, spec);
    let mut ckpt_json = None;
    let s = match spec.ckpt_at {
        None => sim.run().expect("program runs to halt"),
        Some(cycle) => match sim.run_to_checkpoint_anytime(cycle).expect("runs") {
            CheckpointOutcome::Done(s) => s,
            CheckpointOutcome::Checkpoint(ck) => {
                let json = ck.to_json();
                let round = Checkpoint::from_json(&json).expect("checkpoint parses");
                ckpt_json = Some(json);
                sim = CycleSim::resume(exe, cfg, round);
                attach(&mut sim, spec);
                sim.run().expect("resumed run halts")
            }
        },
    };
    (
        s.cycles,
        s.time_ps,
        s.instructions,
        sim.stats.to_json_string(),
        sim.machine.to_json_string(),
        ckpt_json,
    )
}

/// The tentpole property: 256 random (program, topology, sampling, DVFS,
/// checkpoint) cases where decoded replay is bit-identical to the
/// interpreted burst path and the per-instruction oracle — including the
/// serialized mid-flight checkpoint.
#[test]
fn decode_cache_matches_interpreted_oracle() {
    let mut ran = 0u32;
    run(
        "decode_cache_matches_interpreted_oracle",
        Config::default(),
        |g: &mut Gen| {
            ran += 1;
            let exe = gen_program(g);
            let cfg = gen_config(g);
            let spec = CaseSpec {
                dvfs: gen_dvfs(g),
                sampler: g.bool_p(0.5).then(|| g.int_in(8, 256) as u64),
                ckpt_at: g.bool_p(0.4).then(|| g.int_in(10, 4000) as u64),
            };
            let cache = observe(exe.clone(), &cfg, IssueModel::Burst, DecodeMode::Cache, &spec);
            let off = observe(exe.clone(), &cfg, IssueModel::Burst, DecodeMode::Off, &spec);
            assert_eq!(
                cache, off,
                "cache/off divergence under icn {:?} case {:?}",
                cfg.icn_model, spec
            );
            let oracle = observe(exe, &cfg, IssueModel::PerInstr, DecodeMode::Off, &spec);
            // The per-instruction oracle snapshots without a pending burst
            // aggregate, so its checkpoint bytes legitimately differ; the
            // resumed observables may not.
            assert_eq!(
                (&cache.0, &cache.1, &cache.2, &cache.3, &cache.4),
                (&oracle.0, &oracle.1, &oracle.2, &oracle.3, &oracle.4),
                "cache/per-instr divergence under icn {:?} case {:?}",
                cfg.icn_model,
                spec
            );
        },
    );
    // scripts/verify.sh greps for this line: replay's control policy has
    // no other referee against the interpreted loop.
    eprintln!("decode_diff: ran {ran} cases");
    assert!(ran >= 1);
}

/// The cache does what it is for: on a compute-bound workload nearly all
/// instructions retire through decoded replay, fused superinstructions
/// fire, and the timing books still balance against cache-off.
#[test]
fn replay_profile_accounts_for_decoded_instrs() {
    let mut p = AsmProgram::new();
    p.push(Instr::Li {
        rt: Reg::A0,
        imm: 0,
    });
    p.push(Instr::Li {
        rt: Reg::A1,
        imm: 31,
    });
    p.push(Instr::Spawn {
        lo: Reg::A0,
        hi: Reg::A1,
    });
    p.label("vt");
    p.push(Instr::Li {
        rt: Reg::T0,
        imm: 1,
    });
    p.push(Instr::Ps {
        rt: Reg::T0,
        gr: GlobalReg::THREAD_ALLOC,
    });
    p.push(Instr::Chkid { rt: Reg::T0 });
    p.push(Instr::Li {
        rt: Reg::T6,
        imm: 0,
    });
    p.push(Instr::Li {
        rt: Reg::T8,
        imm: 20,
    });
    p.label("l");
    for _ in 0..14 {
        p.push(Instr::Addi {
            rt: Reg::T3,
            rs: Reg::T3,
            imm: 1,
        });
    }
    // Fusible li+add and slt+bne pairs inside the hot loop.
    p.push(Instr::Li {
        rt: Reg::T7,
        imm: 5,
    });
    p.push(Instr::Add {
        rd: Reg::T3,
        rs: Reg::T3,
        rt: Reg::T7,
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
        target: Target::label("l"),
    });
    p.push(Instr::J {
        target: Target::label("vt"),
    });
    p.push(Instr::Join);
    p.push(Instr::Halt);
    let exe = p.link(MemoryMap::new()).unwrap();

    let run_mode = |decode: DecodeMode| {
        let mut cfg = XmtConfig::tiny();
        cfg.decode_cache = decode;
        let mut sim = CycleSim::new(exe.clone(), cfg);
        sim.enable_host_profiling();
        let s = sim.run().unwrap();
        let hp = sim.host_profile().unwrap().clone();
        (
            s,
            hp,
            sim.stats.to_json_string(),
            sim.machine.to_json_string(),
        )
    };
    let (sc, hc, stats_c, mach_c) = run_mode(DecodeMode::Cache);
    let (so, ho, stats_o, mach_o) = run_mode(DecodeMode::Off);

    assert_eq!(
        (sc.cycles, sc.time_ps, sc.instructions),
        (so.cycles, so.time_ps, so.instructions)
    );
    assert_eq!(stats_c, stats_o, "statistics records diverge");
    assert_eq!(mach_c, mach_o, "machine images diverge");
    assert_eq!(
        (
            ho.blocks_decoded,
            ho.block_replays,
            ho.replay_instrs,
            ho.fusions
        ),
        (0, 0, 0, 0),
        "cache-off run must never touch the decode counters"
    );
    assert!(hc.blocks_decoded > 0, "hot blocks were decoded");
    assert!(
        hc.block_replays > hc.blocks_decoded,
        "blocks replayed more than decoded"
    );
    assert!(hc.fusions > 0, "fused superinstructions fired");
    assert!(
        hc.replay_instrs * 10 >= sc.instructions * 8,
        "compute-bound: ≥80% of {} instructions should replay decoded, got {}",
        sc.instructions,
        hc.replay_instrs
    );
}
