//! Differential property suite for the two instruction-issue models.
//!
//! The compute-burst path (`IssueModel::Burst` — one scheduler event per
//! straight-line run of pure local instructions) must be bit-identical to
//! the per-instruction *oracle* (`IssueModel::PerInstr` — one event per
//! issued instruction) on every architecturally observable quantity:
//! simulated cycles, simulated time, instruction count, the full
//! statistics record, program output and the final machine state. The
//! only permitted difference is the host-side event count in
//! [`xmtsim::cycle::RunSummary`]'s `events` — eliding step events is the
//! whole point.
//!
//! Cases sweep random programs biased toward what stresses bursts:
//! straight-line ALU runs, tight branchy loops, spawn-heavy sections with
//! many short virtual threads, `ps`/`psm` interleavings and prints (whose
//! cross-TCU ordering rides on scheduler tie-breaks), plus random small
//! topologies, both ICN models, activity-plug-in sampling with intervals
//! short enough to land mid-run, mid-run DVFS retuning, and mid-flight
//! checkpoint / JSON round-trip / resume at a random cycle.
//!
//! A second generator draws *serial sections* — what the Master TCU's
//! burst folds (DESIGN §15): private-FU ops, `ps`/`grput`, prints, fences,
//! `pref`, empty-range spawns, master-cache hits, and misses / `psm` whose
//! round trip is walked on the stack — with sampling ticks shorter than a
//! round trip and run limits aimed inside round trips and at folded ops.

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::ToJson;
use xmt_isa::instr::FCmpOp;
use xmt_isa::{AsmProgram, Executable, FReg, FuKind, GlobalReg, Instr, MemoryMap, Reg, Target};
use xmtsim::checkpoint::{Checkpoint, CheckpointOutcome};
use xmtsim::config::{ClockDomain, IcnTiming, IssueModel, PrefetchPolicy};
use xmtsim::cycle::{HostProfile, RunSummary, SimError};
use xmtsim::stats::{ActivityPlugin, ActivitySample, RuntimeCtl};
use xmtsim::trace::{TraceEvent, TraceLevel, Tracer};
use xmtsim::{CycleSim, IcnModel, XmtConfig};

/// A deterministic mid-run clock retune: at activity sample `at_sample`,
/// scale `dom`'s frequency by `factor_pct`%. Constructed identically for
/// both simulators so the DVFS schedule is shared.
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

/// A do-nothing sampler: its only effect is the periodic `Ev::Sample`
/// tick, i.e. the boundary a burst must clip at.
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
    cfg.icn_model = if g.bool_p(0.5) { IcnModel::Express } else { IcnModel::PerHop };
    cfg.icn_timing = if g.bool_p(0.5) {
        IcnTiming::Synchronous
    } else {
        IcnTiming::Asynchronous {
            hop_ps: g.int_in(300, 1500) as u64,
            jitter_ps: g.int_in(0, 900) as u64,
        }
    };
    cfg.prefetch_policy = if g.bool_p(0.5) { PrefetchPolicy::Fifo } else { PrefetchPolicy::Lru };
    cfg
}

/// Emit a straight-line run of `n` pure ALU/shift instructions.
fn straight_line(p: &mut AsmProgram, g: &mut Gen, n: usize) {
    for _ in 0..n {
        match g.usize_in(0, 3) {
            0 => p.push(Instr::Addi { rt: Reg::T3, rs: Reg::T3, imm: g.int_in(-7, 7) as i32 }),
            1 => p.push(Instr::Xor { rd: Reg::T4, rs: Reg::T4, rt: Reg::T3 }),
            2 => p.push(Instr::Sll { rd: Reg::T5, rt: Reg::T3, sh: g.usize_in(0, 3) as u8 }),
            _ => p.push(Instr::Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T4 }),
        }
    }
}

/// A random terminating program biased toward compute bursts: serial
/// master runs between 1–3 spawn sections whose virtual threads mix
/// straight-line ALU runs, tight countdown loops, loads/stores, `psm`,
/// prints and shared-FU multiplies.
fn gen_program(g: &mut Gen) -> Executable {
    let words = 1usize << g.usize_in(4, 7); // 16..128, power of two
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let mut p = AsmProgram::new();
    let sections = g.usize_in(1, 3);
    for s in 0..sections {
        // Serial master compute between sections (master bursts).
        p.push(Instr::Li { rt: Reg::T3, imm: g.int_in(0, 100) as i32 });
        let n = g.usize_in(0, 25);
        straight_line(&mut p, g, n);
        if g.bool_p(0.5) {
            let iters = g.int_in(1, 12) as i32;
            let l = format!("m{s}");
            p.push(Instr::Li { rt: Reg::T6, imm: iters });
            p.label(l.clone());
            p.push(Instr::Addi { rt: Reg::T6, rs: Reg::T6, imm: -1 });
            p.push(Instr::Bgtz { rs: Reg::T6, target: Target::label(l) });
        }
        let threads = g.usize_in(1, 32) as i32;
        p.push(Instr::Li { rt: Reg::A0, imm: 0 });
        p.push(Instr::Li { rt: Reg::A1, imm: threads - 1 });
        p.push(Instr::Li { rt: Reg::S0, imm: a as i32 });
        p.push(Instr::Li { rt: Reg::S1, imm: c as i32 });
        p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
        let tag = format!("vt{s}");
        p.label(tag.clone());
        p.push(Instr::Li { rt: Reg::T0, imm: 1 });
        p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Instr::Chkid { rt: Reg::T0 });
        // T1 = &A[$ & mask]
        p.push(Instr::Andi { rt: Reg::T1, rs: Reg::T0, imm: mask });
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T1, sh: 2 });
        p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        for b in 0..g.usize_in(1, 5) {
            match g.usize_in(0, 7) {
                0 => {
                    let n = g.usize_in(3, 40);
                    straight_line(&mut p, g, n);
                }
                1 => {
                    // Tight countdown loop: branch-heavy burst material.
                    let l = format!("l{s}_{b}");
                    p.push(Instr::Li { rt: Reg::T6, imm: g.int_in(1, 10) as i32 });
                    p.label(l.clone());
                    p.push(Instr::Addi { rt: Reg::T3, rs: Reg::T3, imm: 1 });
                    p.push(Instr::Addi { rt: Reg::T6, rs: Reg::T6, imm: -1 });
                    p.push(Instr::Bgtz { rs: Reg::T6, target: Target::label(l) });
                }
                2 => {
                    // Round-trip load, accumulated so the value matters.
                    p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                    p.push(Instr::Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
                }
                3 => p.push(Instr::Swnb { rt: Reg::T0, base: Reg::T1, off: 0 }),
                4 => {
                    // Prefix-sum to memory: value-carrying round trip.
                    p.push(Instr::Li { rt: Reg::T4, imm: 1 });
                    p.push(Instr::Psm { rt: Reg::T4, base: Reg::S1, off: 4 * s as i32 });
                }
                5 => p.push(Instr::Mul { rd: Reg::T3, rs: Reg::T0, rt: Reg::T0 }),
                6 => {
                    // Output ordering across TCUs rides on scheduler
                    // tie-breaks, the hardest thing bursts may not move.
                    p.push(Instr::Print { rs: Reg::T0 });
                }
                _ => p.push(Instr::Fence),
            }
        }
        // Final per-thread store: the end state depends on exact service
        // order, so any reordering between the models shows up in memory.
        p.push(Instr::Swnb { rt: Reg::T3, base: Reg::T1, off: 0 });
        p.push(Instr::J { target: Target::label(tag) });
        p.push(Instr::Join);
    }
    p.push(Instr::Halt);
    p.link(mm).unwrap()
}

fn gen_dvfs(g: &mut Gen) -> Option<DvfsSpec> {
    if !g.bool_p(0.35) {
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

/// What a case exercises besides the issue model itself.
#[derive(Debug, Clone, Copy)]
struct CaseSpec {
    dvfs: Option<DvfsSpec>,
    /// Plain sampling tick interval (cycles) — short, to land mid-burst.
    sampler: Option<u64>,
    /// Mid-flight checkpoint + JSON round trip + resume at this cycle.
    ckpt_at: Option<u64>,
}

fn gen_case(g: &mut Gen) -> CaseSpec {
    CaseSpec {
        dvfs: gen_dvfs(g),
        sampler: g.bool_p(0.5).then(|| g.int_in(8, 256) as u64),
        ckpt_at: g.bool_p(0.4).then(|| g.int_in(10, 4000) as u64),
    }
}

fn attach(sim: &mut CycleSim, spec: &CaseSpec) {
    if let Some(dvfs) = spec.dvfs {
        sim.add_activity(
            Box::new(Retune { spec: dvfs, seen: 0, fired: false }),
            dvfs.interval_cycles,
        );
    }
    if let Some(iv) = spec.sampler {
        sim.add_activity(Box::new(Tick), iv);
    }
}

/// Everything two runs must agree on, as one comparable tuple.
/// `RunSummary::events` is deliberately absent.
fn observe(
    exe: Executable,
    cfg: &XmtConfig,
    model: IssueModel,
    spec: &CaseSpec,
) -> (u64, u64, u64, String, String) {
    let mut cfg = cfg.clone();
    cfg.issue_model = model;
    let mut sim = CycleSim::new(exe.clone(), cfg.clone());
    attach(&mut sim, spec);
    let s = match spec.ckpt_at {
        None => sim.run().expect("program runs to halt"),
        Some(cycle) => match sim.run_to_checkpoint_anytime(cycle).expect("runs") {
            CheckpointOutcome::Done(s) => s,
            CheckpointOutcome::Checkpoint(ck) => {
                // Serialize, parse back, resume in a fresh simulator —
                // the full §III-E round trip, with an in-progress burst
                // riding along as its pending aggregate step event.
                let round = Checkpoint::from_json(&ck.to_json()).expect("checkpoint parses");
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
    )
}

/// The tentpole property: 256 random (program, topology, sampling, DVFS,
/// checkpoint) cases where the compute-burst path and the
/// per-instruction oracle are bit-identical.
#[test]
fn burst_matches_perinstr_oracle() {
    run("burst_matches_perinstr_oracle", Config::default(), |g: &mut Gen| {
        let exe = gen_program(g);
        let cfg = gen_config(g);
        let spec = gen_case(g);
        let burst = observe(exe.clone(), &cfg, IssueModel::Burst, &spec);
        let perinstr = observe(exe, &cfg, IssueModel::PerInstr, &spec);
        assert_eq!(
            burst, perinstr,
            "burst/per-instr divergence under icn {:?} timing {:?} case {:?}",
            cfg.icn_model, cfg.icn_timing, spec
        );
    });
}

// ---------------------------------------------------------------------
// Serial sections: what the master's burst folds
// ---------------------------------------------------------------------

/// Words of the strided array: 8 KB against the 1 KB master cache (and
/// 1 KB cache modules) of `XmtConfig::tiny`, so strided accesses miss.
const SERIAL_WORDS: usize = 2048;

/// Emit `n` random master-side operations. Register roles: `S0`/`S1`/`S2`
/// hold the bases of `A` (strided), `C` (`psm` scratch) and `F` (floats,
/// written only by `fsw`, so `flw` never loads a NaN pattern); `T7` is the
/// running byte offset into `A` and `T8` the last strided address; `T6`
/// counts loops; `T3`–`T5` and `F1`–`F3` are the accumulators.
fn serial_ops(p: &mut AsmProgram, g: &mut Gen, n: usize, top: bool, tag: &mut u32) {
    use Instr::*;
    for _ in 0..n {
        match g.usize_in(0, 20) {
            0 | 1 => {
                let n = g.usize_in(1, 13);
                straight_line(p, g, n);
            }
            2 => p.push(Mul { rd: Reg::T3, rs: Reg::T3, rt: Reg::T4 }),
            3 => p.push(Div { rd: Reg::T4, rs: Reg::T3, rt: Reg::T5 }),
            4 => p.push(Rem { rd: Reg::T5, rs: Reg::T3, rt: Reg::T4 }),
            5 => match g.usize_in(0, 7) {
                0 => p.push(Fadd { fd: FReg(1), fs: FReg(1), ft: FReg(2) }),
                1 => p.push(Fmul { fd: FReg(3), fs: FReg(1), ft: FReg(2) }),
                2 => p.push(Fdiv { fd: FReg(3), fs: FReg(1), ft: FReg(2) }),
                3 => p.push(Fcvtsw { fd: FReg(1), rs: Reg::T6 }),
                4 => p.push(Fcvtws { rd: Reg::T4, fs: FReg(3) }),
                5 => p.push(Fcmp { op: FCmpOp::Lt, rd: Reg::T5, fs: FReg(1), ft: FReg(3) }),
                _ => p.push(Fneg { fd: FReg(3), fs: FReg(3) }),
            },
            6 => {
                p.push(Li { rt: Reg::T0, imm: g.int_in(0, 2) as i32 });
                p.push(Ps { rt: Reg::T0, gr: GlobalReg(g.int_in(1, 8) as u8) });
            }
            7 => p.push(Grput { gr: GlobalReg(g.int_in(1, 8) as u8), rs: Reg::T3 }),
            8 => match g.usize_in(0, 3) {
                0 => p.push(Print { rs: Reg::T3 }),
                1 => p.push(Printf { fs: FReg(3) }),
                _ => {
                    p.push(Andi { rt: Reg::T5, rs: Reg::T3, imm: 15 });
                    p.push(Addi { rt: Reg::T5, rs: Reg::T5, imm: 97 });
                    p.push(Printc { rs: Reg::T5 });
                }
            },
            9 => p.push(Fence),
            10 => p.push(Pref { base: Reg::T8, off: 0 }),
            11 => {
                // Empty range: the master skips to the join.
                p.push(Li { rt: Reg::A0, imm: 5 });
                p.push(Li { rt: Reg::A1, imm: g.int_in(0, 5) as i32 });
                p.push(Spawn { lo: Reg::A0, hi: Reg::A1 });
                p.push(Nop);
                p.push(Join);
            }
            // Word accesses near the base: master-cache hits after the first.
            12 => p.push(Lw { rt: Reg::T2, base: Reg::S0, off: 4 * g.int_in(0, 16) as i32 }),
            13 => p.push(Sw { rt: Reg::T3, base: Reg::S0, off: 4 * g.int_in(0, 16) as i32 }),
            14 | 15 => {
                // A stride past the master cache: mostly misses.
                let stride = 4 * g.int_in(9, 80) as i32;
                p.push(Addi { rt: Reg::T7, rs: Reg::T7, imm: stride });
                p.push(Andi { rt: Reg::T7, rs: Reg::T7, imm: (SERIAL_WORDS * 4 - 4) as u32 });
                p.push(Add { rd: Reg::T8, rs: Reg::T7, rt: Reg::S0 });
                match g.usize_in(0, 4) {
                    0 => p.push(Sw { rt: Reg::T3, base: Reg::T8, off: 0 }),
                    1 => p.push(Swnb { rt: Reg::T4, base: Reg::T8, off: 0 }),
                    _ => {
                        p.push(Lw { rt: Reg::T2, base: Reg::T8, off: 0 });
                        p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
                    }
                }
            }
            16 => {
                let off = g.int_in(0, 4) as i32;
                match g.usize_in(0, 3) {
                    0 => p.push(Lb { rt: Reg::T2, base: Reg::T8, off }),
                    1 => p.push(Lbu { rt: Reg::T2, base: Reg::T8, off }),
                    _ => p.push(Sb { rt: Reg::T3, base: Reg::T8, off }),
                }
            }
            17 => {
                let off = 4 * g.int_in(0, 16) as i32;
                if g.bool_p(0.5) {
                    p.push(Fsw { ft: FReg(3), base: Reg::S2, off });
                } else {
                    p.push(Flw { ft: FReg(1), base: Reg::S2, off });
                }
            }
            18 => {
                p.push(Li { rt: Reg::T4, imm: g.int_in(-3, 4) as i32 });
                p.push(Psm { rt: Reg::T4, base: Reg::S1, off: 4 * g.int_in(0, 8) as i32 });
            }
            _ if top => {
                // A countdown loop: long bursts through folded ops.
                let l = format!("s{}", *tag);
                *tag += 1;
                p.push(Li { rt: Reg::T6, imm: g.int_in(1, 13) as i32 });
                p.label(l.clone());
                let n = g.usize_in(1, 5);
                serial_ops(p, g, n, false, tag);
                p.push(Addi { rt: Reg::T6, rs: Reg::T6, imm: -1 });
                p.push(Bgtz { rs: Reg::T6, target: Target::label(l) });
            }
            _ => p.push(Nop),
        }
    }
}

/// A random program of 1–3 serial sections, optionally with short
/// parallel sections between them (so a burst also starts at a join and
/// ends on a spawn), optionally ending early in a trap.
fn gen_serial_program(g: &mut Gen) -> Executable {
    use Instr::*;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..SERIAL_WORDS as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let f = mm.push("F", vec![0u32; 16]);
    let mut p = AsmProgram::new();
    p.push(Li { rt: Reg::S0, imm: a as i32 });
    p.push(Li { rt: Reg::S1, imm: c as i32 });
    p.push(Li { rt: Reg::S2, imm: f as i32 });
    p.push(Move { rd: Reg::T8, rs: Reg::S0 });
    p.push(Li { rt: Reg::T3, imm: g.int_in(1, 100) as i32 });
    p.push(Li { rt: Reg::T4, imm: g.int_in(1, 9) as i32 });
    p.push(Li { rt: Reg::T5, imm: g.int_in(-9, 0) as i32 });
    p.push(Fli { fd: FReg(1), imm: 0.5 });
    p.push(Fli { fd: FReg(2), imm: 1.5 });
    let mut tag = 0u32;
    let sections = g.usize_in(1, 4);
    let trap_in = g.bool_p(0.1).then(|| g.usize_in(0, sections));
    for s in 0..sections {
        let n = g.usize_in(3, 20);
        serial_ops(&mut p, g, n, true, &mut tag);
        if trap_in == Some(s) {
            if g.bool_p(0.5) {
                p.push(Lw { rt: Reg::T2, base: Reg::S0, off: 2 });
            } else {
                p.push(Li { rt: Reg::T0, imm: 2 });
                p.push(Ps { rt: Reg::T0, gr: GlobalReg(1) });
            }
        }
        if s + 1 < sections && g.bool_p(0.5) {
            let vt = format!("vt{s}");
            p.push(Li { rt: Reg::A0, imm: 0 });
            p.push(Li { rt: Reg::A1, imm: g.int_in(0, 8) as i32 });
            p.push(Spawn { lo: Reg::A0, hi: Reg::A1 });
            p.label(vt.clone());
            p.push(Li { rt: Reg::T0, imm: 1 });
            p.push(Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
            p.push(Chkid { rt: Reg::T0 });
            p.push(Sll { rd: Reg::T1, rt: Reg::T0, sh: 2 });
            p.push(Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
            p.push(Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
            p.push(Mul { rd: Reg::T2, rs: Reg::T2, rt: Reg::T0 });
            p.push(Swnb { rt: Reg::T2, base: Reg::T1, off: 0 });
            p.push(J { target: Target::label(vt) });
            p.push(Join);
        }
    }
    p.push(Print { rs: Reg::T3 });
    p.push(Halt);
    p.link(mm).unwrap()
}

#[derive(Debug, Clone, Copy)]
enum Limit {
    Cycles(u64),
    Instrs(u64),
}

/// What a serial case exercises besides the issue model itself.
#[derive(Debug, Clone, Copy)]
struct SerialSpec {
    dvfs: Option<DvfsSpec>,
    /// Sampling tick interval (cycles), shorter than one round trip.
    sampler: Option<u64>,
    limit: Option<Limit>,
    ckpt_at: Option<u64>,
}

/// Plug-ins and limits live outside the checkpoint: a resumed simulator
/// is armed again, identically for both issue models.
fn arm(sim: &mut CycleSim, spec: &SerialSpec) {
    attach(sim, &CaseSpec { dvfs: spec.dvfs, sampler: spec.sampler, ckpt_at: None });
    match spec.limit {
        Some(Limit::Cycles(c)) => sim.set_cycle_limit(c),
        Some(Limit::Instrs(n)) => sim.set_instr_limit(n),
        None => {}
    }
    sim.enable_host_profiling();
}

/// The issue records `(time, pc, by the master?)` of an undisturbed
/// per-instruction run, in issue order — where the folded ops and the
/// round trips are.
fn issue_times(exe: &Executable, cfg: &XmtConfig) -> Vec<(u64, u32, bool)> {
    let mut cfg = cfg.clone();
    cfg.issue_model = IssueModel::PerInstr;
    let mut sim = CycleSim::new(exe.clone(), cfg);
    sim.attach_tracer(Tracer::new(TraceLevel::Functional));
    let _ = sim.run(); // a trap still leaves the records up to it
    let records = sim.tracer.as_ref().expect("attached above").records();
    records
        .iter()
        .filter_map(|r| match r {
            TraceEvent::Issue { time, tcu, pc } => Some((*time, *pc, tcu.is_none())),
            _ => None,
        })
        .collect()
}

/// Draw the case around the reference run: a run limit landing inside a
/// round trip or exactly on a folded multi-cycle op, a sampling tick
/// shorter than a round trip or a DVFS retune, a checkpoint cycle mid-run.
fn gen_serial_spec(g: &mut Gen, exe: &Executable, cfg: &XmtConfig) -> SerialSpec {
    let issues = issue_times(exe, cfg);
    let cp = cfg.period_ps[ClockDomain::Cluster as usize];
    let cycle_of = |i: usize| issues[i].0 / cp;
    let n = issues.len();
    let limit = (n >= 2 && g.bool_p(0.5)).then(|| {
        let i = g.usize_in(0, n - 1);
        // The first of each at or (cyclically) after a random instruction,
        // among the master's (the fold suite aims at TCU instructions).
        let from_i = |k: usize| (i + k) % (n - 1);
        let serial = |k: &usize| issues[*k].2 && issues[*k + 1].2;
        let folded = (0..n - 1).map(from_i).filter(serial).find(|&k| {
            let fu = exe.text[issues[k].1 as usize].fu_kind();
            matches!(fu, FuKind::Mdu | FuKind::Fpu)
        });
        let trip = (0..n - 1)
            .map(from_i)
            .filter(serial)
            .find(|&k| cycle_of(k + 1) > cycle_of(k) + 8);
        match (g.usize_in(0, 4), folded, trip) {
            // Stop with the folded op the next / the last instruction.
            (0, Some(k), _) => Limit::Instrs(k as u64 + g.int_in(0, 2) as u64),
            // The cycle limit trips on the folded op's own step.
            (1, Some(k), _) => Limit::Cycles(cycle_of(k).saturating_sub(1)),
            // … and somewhere inside a round trip.
            (2, _, Some(k)) => {
                Limit::Cycles(g.int_in(cycle_of(k) as i64, cycle_of(k + 1) as i64) as u64)
            }
            (3, _, Some(k)) => Limit::Instrs(k as u64 + 1),
            _ => Limit::Cycles(cycle_of(i)),
        }
    });
    let (dvfs, sampler) = match g.usize_in(0, 3) {
        0 => (None, None),
        1 => (None, Some(g.int_in(2, 40) as u64)),
        _ => {
            let mut d = gen_dvfs(g);
            if let Some(d) = d.as_mut() {
                d.interval_cycles = g.int_in(8, 128) as u64;
            }
            (d, None)
        }
    };
    let last = issues.last().map_or(1, |r| r.0 / cp + 1);
    SerialSpec {
        dvfs,
        sampler,
        limit,
        ckpt_at: g.bool_p(0.4).then(|| g.int_in(1, last as i64 + 1) as u64),
    }
}

/// Everything two serial runs must agree on: outcome (summary without
/// `events`, or the error value), where the clock stopped, statistics,
/// machine and master state, and the checkpoint's bytes if one was taken.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<(u64, u64, u64), SimError>,
    cycles: u64,
    stats: String,
    machine: String,
    master: String,
    checkpoint: Option<String>,
}

fn observe_serial(
    exe: &Executable,
    cfg: &XmtConfig,
    model: IssueModel,
    spec: &SerialSpec,
) -> (Observed, u64, HostProfile) {
    let mut cfg = cfg.clone();
    cfg.issue_model = model;
    let mut sim = CycleSim::new(exe.clone(), cfg.clone());
    arm(&mut sim, spec);
    let mut checkpoint = None;
    let first = match spec.ckpt_at {
        None => sim.run().map(Some),
        Some(cycle) => sim.run_to_checkpoint_anytime(cycle).map(|o| match o {
            CheckpointOutcome::Done(s) => Some(s),
            CheckpointOutcome::Checkpoint(ck) => {
                checkpoint = Some(ck.to_json());
                None
            }
        }),
    };
    let result = match (first, &checkpoint) {
        (Ok(None), Some(json)) => {
            let round = Checkpoint::from_json(json).expect("checkpoint parses");
            sim = CycleSim::resume(exe.clone(), cfg, round);
            arm(&mut sim, spec);
            sim.run()
        }
        (first, _) => first.map(|s| s.expect("no checkpoint was taken")),
    };
    let events = result.as_ref().map_or(0, |s| s.events);
    let observed = Observed {
        outcome: result.map(|s| (s.cycles, s.time_ps, s.instructions)),
        cycles: sim.cycles(),
        stats: sim.stats.to_json_string(),
        machine: sim.machine.to_json_string(),
        master: sim.master.to_json_string(),
        checkpoint,
    };
    (observed, events, sim.host_profile().expect("armed").clone())
}

/// 256 random serial-section cases: the master's burst — folded ops,
/// inline round trips, materialised stages — against the per-instruction
/// oracle, bit for bit, and the event books balance.
#[test]
fn serial_sections_match_perinstr_oracle() {
    let mut ran = 0u32;
    let (mut inline, mut event, mut errors, mut checkpoints) = (0u64, 0u64, 0u32, 0u32);
    run("serial_sections_match_perinstr_oracle", Config::default(), |g: &mut Gen| {
        ran += 1;
        let exe = gen_serial_program(g);
        let mut cfg = gen_config(g);
        cfg.master_hit_latency = g.int_in(1, 4) as u32;
        let spec = gen_serial_spec(g, &exe, &cfg);
        let (burst, burst_events, hb) = observe_serial(&exe, &cfg, IssueModel::Burst, &spec);
        let (perinstr, perinstr_events, hp) =
            observe_serial(&exe, &cfg, IssueModel::PerInstr, &spec);
        assert_eq!(
            burst, perinstr,
            "burst/per-instr divergence under icn {:?} timing {:?} case {:?}",
            cfg.icn_model, cfg.icn_timing, spec
        );
        assert_eq!(hp.master_inline_trips, 0, "the oracle makes an event of every stage");
        let express = cfg.icn_model == IcnModel::Express;
        assert!(express || hb.master_inline_trips == 0, "per-hop packages are walked by events");
        assert_eq!((hp.completions_continued, hp.issues_continued), (0, 0), "oracle steps");
        // Each burst of L instructions replaces L step events with one,
        // a step run in place by its completion or continued past a
        // non-blocking first instruction elides one more, and a round
        // trip walked whole on the stack elides its four memory events
        // (two leg ends, the service, the completion). A TCU's first round
        // taken in closed form elides its burst's one event too, and an
        // idle TCU's `chkid` step. A return leg that ended in its
        // completion elides its end in either run, so both sides count it
        // back. A trip cut short by a clip elides fewer, a resumed run
        // counts from the checkpoint, an error leaves no summary.
        let whole_trips = !express || hb.master_event_trips == 0;
        if burst.outcome.is_ok() && burst.checkpoint.is_none() && whole_trips {
            assert_eq!(
                perinstr_events + hp.legs_folded - (burst_events + hb.legs_folded),
                hb.burst_instrs - hb.bursts
                    + hb.completions_continued
                    + hb.issues_continued
                    + 4 * hb.master_inline_trips
                    + hb.first_rounds
                    + hb.idle_parked,
                "event books must balance under {:?} case {:?}",
                cfg.icn_model,
                spec
            );
        }
        inline += hb.master_inline_trips;
        event += hb.master_event_trips;
        errors += burst.outcome.is_err() as u32;
        checkpoints += burst.checkpoint.is_some() as u32;
    });
    // scripts/verify.sh greps for this line to prove the suite really ran.
    eprintln!(
        "serial_sections: ran {ran} cases ({inline} inline + {event} event round trips under \
         burst, {errors} ended in an error, {checkpoints} checkpointed mid-run)"
    );
    assert!(inline > 0 && event > 0 && errors > 0 && checkpoints > 0, "vacuous sweep");
}

/// The burst path does what it is for: on a compute-bound workload it
/// processes far fewer events than per-instruction stepping, and the
/// host-profile burst counters account for every elided step event.
#[test]
fn burst_elides_step_events() {
    let mut p = AsmProgram::new();
    p.push(Instr::Li { rt: Reg::A0, imm: 0 });
    p.push(Instr::Li { rt: Reg::A1, imm: 31 });
    p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
    p.label("vt");
    p.push(Instr::Li { rt: Reg::T0, imm: 1 });
    p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
    p.push(Instr::Chkid { rt: Reg::T0 });
    p.push(Instr::Li { rt: Reg::T6, imm: 20 });
    p.label("l");
    for _ in 0..28 {
        p.push(Instr::Addi { rt: Reg::T3, rs: Reg::T3, imm: 1 });
    }
    p.push(Instr::Addi { rt: Reg::T6, rs: Reg::T6, imm: -1 });
    p.push(Instr::Bgtz { rs: Reg::T6, target: Target::label("l") });
    p.push(Instr::J { target: Target::label("vt") });
    p.push(Instr::Join);
    p.push(Instr::Halt);
    let exe = p.link(MemoryMap::new()).unwrap();

    let run_model = |model: IssueModel| {
        let mut cfg = XmtConfig::tiny();
        cfg.issue_model = model;
        let mut sim = CycleSim::new(exe.clone(), cfg);
        sim.enable_host_profiling();
        let s = sim.run().unwrap();
        let hp = sim.host_profile().unwrap().clone();
        s_and(s, hp)
    };
    fn s_and(
        s: xmtsim::cycle::RunSummary,
        hp: xmtsim::cycle::HostProfile,
    ) -> (xmtsim::cycle::RunSummary, xmtsim::cycle::HostProfile) {
        (s, hp)
    }
    let (sb, hb) = run_model(IssueModel::Burst);
    let (sp, hp) = run_model(IssueModel::PerInstr);

    assert_eq!((sb.cycles, sb.time_ps, sb.instructions), (sp.cycles, sp.time_ps, sp.instructions));
    assert_eq!((hp.bursts, hp.burst_instrs), (0, 0), "oracle steps per instruction");
    assert!(hb.bursts > 0, "burst path issued compute bursts");
    // Each burst of L instructions replaces L step events with 1; a first
    // round taken in closed form elides its TCU's burst event, and the
    // `chkid` step of a TCU that got no thread.
    assert!(hb.first_rounds > 0, "{hb:?}");
    let elided = hb.burst_instrs - hb.bursts + hb.first_rounds + hb.idle_parked;
    assert_eq!(
        sb.events + elided,
        sp.events,
        "event books must balance: burst {} + elided {elided} != per-instr {}",
        sb.events,
        sp.events
    );
    assert!(
        sp.events >= 3 * sb.events,
        "compute-bound events should collapse: per-instr {} vs burst {}",
        sp.events,
        sb.events
    );
    assert!(hb.mean_burst_len() > 4.0, "mean burst length {:.1}", hb.mean_burst_len());
}

// ---------------------------------------------------------------------
// Fold boundaries: the TCU side's folds, aimed at where they could show
// ---------------------------------------------------------------------

/// A random program of 1–3 parallel sections whose threads mix what the
/// TCU-side folds (DESIGN §16) touch: blocking loads (the completion runs
/// the TCU's step in place), `swnb` and `pref` (their acknowledgement's
/// return leg ends in its completion; the step continues past them), a
/// load right behind its `pref` (a prefetch-buffer wait) or some way
/// behind it (a hit), `lwro` (read-only cache hits), `psm`, `fence`, a
/// shared-FU `mul` and ALU runs — with master loads between sections.
fn gen_fold_program(g: &mut Gen) -> Executable {
    use Instr::*;
    let words = 1usize << g.usize_in(4, 7);
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let mut p = AsmProgram::new();
    p.push(Li { rt: Reg::S0, imm: a as i32 });
    p.push(Li { rt: Reg::S1, imm: c as i32 });
    for s in 0..g.usize_in(1, 3) {
        for _ in 0..g.usize_in(0, 3) {
            p.push(Lw { rt: Reg::T2, base: Reg::S0, off: 4 * g.int_in(0, mask as i64) as i32 });
            p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
        }
        p.push(Li { rt: Reg::A0, imm: 0 });
        p.push(Li { rt: Reg::A1, imm: g.int_in(0, 15) as i32 });
        p.push(Spawn { lo: Reg::A0, hi: Reg::A1 });
        let vt = format!("vt{s}");
        p.label(vt.clone());
        p.push(Li { rt: Reg::T0, imm: 1 });
        p.push(Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Chkid { rt: Reg::T0 });
        p.push(Andi { rt: Reg::T1, rs: Reg::T0, imm: mask });
        p.push(Sll { rd: Reg::T1, rt: Reg::T1, sh: 2 });
        p.push(Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        for b in 0..g.usize_in(1, 5) {
            match g.usize_in(0, 10) {
                0 => {
                    p.push(Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                    p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
                }
                1 => p.push(Swnb { rt: Reg::T0, base: Reg::T1, off: 0 }),
                2 => {
                    p.push(Pref { base: Reg::T1, off: 0 });
                    p.push(Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                }
                3 => {
                    p.push(Pref { base: Reg::T1, off: 0 });
                    let n = g.usize_in(3, 20);
                    straight_line(&mut p, g, n);
                    p.push(Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                }
                4 => p.push(Lwro { rt: Reg::T5, base: Reg::S0, off: 4 * g.int_in(0, 3) as i32 }),
                5 => {
                    p.push(Li { rt: Reg::T4, imm: 1 });
                    p.push(Psm { rt: Reg::T4, base: Reg::S1, off: 4 * s as i32 });
                }
                6 => p.push(Fence),
                7 => {
                    for _ in 0..g.usize_in(1, 3) {
                        p.push(Mul { rd: Reg::T3, rs: Reg::T3, rt: Reg::T0 });
                    }
                }
                8 => {
                    // `ps` order across TCUs shows in the values handed out.
                    p.push(Li { rt: Reg::T4, imm: 1 });
                    p.push(Ps { rt: Reg::T4, gr: GlobalReg(1) });
                    p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T4 });
                }
                9 => {
                    let n = g.usize_in(1, 20);
                    straight_line(&mut p, g, n);
                }
                _ => {
                    let l = format!("l{s}_{b}");
                    p.push(Li { rt: Reg::T6, imm: g.int_in(1, 8) as i32 });
                    p.label(l.clone());
                    p.push(Addi { rt: Reg::T3, rs: Reg::T3, imm: 1 });
                    p.push(Addi { rt: Reg::T6, rs: Reg::T6, imm: -1 });
                    p.push(Bgtz { rs: Reg::T6, target: Target::label(l) });
                }
            }
        }
        p.push(Swnb { rt: Reg::T3, base: Reg::T1, off: 0 });
        p.push(J { target: Target::label(vt) });
        p.push(Join);
    }
    p.push(Print { rs: Reg::T3 });
    p.push(Halt);
    p.link(mm).unwrap()
}

/// A small machine; one case in four has a single TCU.
fn gen_fold_config(g: &mut Gen) -> XmtConfig {
    let mut cfg = gen_config(g);
    if g.bool_p(0.25) {
        cfg.clusters = 1;
        cfg.tcus_per_cluster = 1;
    }
    if g.bool_p(0.6) {
        // Every instant a multiple of the 1 ns periods: ticks and limits
        // can land exactly on a leg's end.
        cfg.icn_timing = IcnTiming::Synchronous;
    }
    if g.bool_p(0.15) {
        // Zero-cycle `ps`, `mul`, RO-cache hits: one TCU can issue twice
        // at one instant, and the in-place resume must stand down.
        cfg.ps_latency = 0;
        cfg.mul_latency = 0;
        cfg.ro_hit_latency = 0;
    }
    cfg
}

/// Where a case aims, drawn at an instant of the oracle's run.
#[derive(Debug, Clone, Copy)]
enum Aim {
    /// A sampling tick every `iv` cycles — a do-nothing one, or one that
    /// retunes `dom` at its first tick.
    Tick { iv: u64, retune: Option<ClockDomain> },
    /// `set_cycle_limit`.
    Cycles(u64),
    /// `run_to_checkpoint_anytime`, JSON round trip, resume.
    Checkpoint(u64),
}

#[derive(Debug, Clone, Copy)]
struct FoldSpec {
    /// Stop at this instruction count first, then lift the limit and aim.
    stop_at: Option<u64>,
    aim: Aim,
}

/// The per-instruction oracle's cycle-accurate trace over the per-hop
/// network, and its instruction count.
fn oracle_trace(exe: &Executable, cfg: &XmtConfig) -> (Vec<TraceEvent>, u64) {
    let mut c = cfg.clone();
    c.issue_model = IssueModel::PerInstr;
    c.icn_model = IcnModel::PerHop;
    let mut sim = CycleSim::new(exe.clone(), c);
    sim.attach_tracer(Tracer::new(TraceLevel::CycleAccurate));
    let _ = sim.run();
    let records = sim.tracer.as_ref().expect("attached above").records().to_vec();
    let issued = records.iter().filter(|r| matches!(r, TraceEvent::Issue { .. })).count();
    (records, issued as u64)
}

/// Aim at instant `x`: a tick interval, a cycle limit tripping there or
/// one cycle later, or a checkpoint target.
fn aim_at(g: &mut Gen, x: u64, cp: u64) -> Aim {
    let cycle = (x / cp).max(1);
    match g.usize_in(0, 3) {
        0 => Aim::Tick {
            iv: cycle,
            retune: g.bool_p(0.5).then(|| *g.choose(&[ClockDomain::Cluster, ClockDomain::Icn])),
        },
        1 => Aim::Cycles(cycle - g.usize_in(0, 2) as u64),
        _ => Aim::Checkpoint(cycle + g.usize_in(0, 2) as u64),
    }
}

/// Draw the case from the oracle's own trace: the instant of a TCU
/// response's completion `c`, of its return leg's end `c − cp`, or of a
/// blocking completion (where the TCU resumes), aimed at; and, one case
/// in three, an instruction limit first, at any instruction. Also returns
/// the program's instruction count.
fn gen_fold_spec(g: &mut Gen, exe: &Executable, cfg: &XmtConfig) -> (FoldSpec, u64) {
    let (records, n) = oracle_trace(exe, cfg);
    let cp = cfg.period_ps[ClockDomain::Cluster as usize];
    let mut instants = Vec::new();
    for r in records {
        match r {
            TraceEvent::Complete { time, tcu, pc, .. } if tcu != u32::MAX => {
                let ins = &exe.text[pc as usize];
                let blocking = ins.is_mem_read() && !matches!(ins, Instr::Pref { .. });
                instants.push(time - cp);
                instants.push(time);
                if blocking {
                    instants.push(time);
                }
            }
            _ => {}
        }
    }
    let x = if instants.is_empty() { cp } else { *g.choose(&instants) };
    let aim = aim_at(g, x, cp);
    let stop_at = (n >= 2 && g.bool_p(0.35)).then(|| g.int_in(1, n as i64) as u64);
    (FoldSpec { stop_at, aim }, n)
}

/// Everything a fold case must agree on: the first stop and the final
/// outcome (summary without `events`, or the error), where the clock
/// stopped, statistics, machine, master, every TCU and the checkpoint's
/// bytes.
#[derive(Debug, PartialEq)]
struct FoldObserved {
    stop: Option<Result<(u64, u64, u64), SimError>>,
    outcome: Result<(u64, u64, u64), SimError>,
    cycles: u64,
    stats: String,
    machine: String,
    master: String,
    tcus: String,
    checkpoint: Option<String>,
}

/// Run a fold case under `model`. `lift` is the instruction limit in force
/// whenever the case sets none: `u64::MAX` — no limit at all until a stop
/// has set one — or, for the same-network oracle, one just past the
/// program's end, which never stops the run but leaves no
/// instruction-limit headroom, so no return leg folds.
fn observe_fold(
    exe: &Executable,
    cfg: &XmtConfig,
    (issue, icn): (IssueModel, IcnModel),
    spec: &FoldSpec,
    lift: u64,
) -> (FoldObserved, HostProfile) {
    let mut cfg = cfg.clone();
    cfg.issue_model = issue;
    cfg.icn_model = icn;
    let triple = |s: RunSummary| (s.cycles, s.time_ps, s.instructions);
    let limit = |sim: &mut CycleSim| {
        if lift != u64::MAX {
            sim.set_instr_limit(lift);
        }
    };
    let mut sim = CycleSim::new(exe.clone(), cfg.clone());
    sim.enable_host_profiling();
    limit(&mut sim);
    if let Aim::Tick { iv, retune } = spec.aim {
        match retune {
            Some(dom) => {
                let dvfs = DvfsSpec { at_sample: 1, dom, factor_pct: 50, interval_cycles: iv };
                sim.add_activity(Box::new(Retune { spec: dvfs, seen: 0, fired: false }), iv)
            }
            None => sim.add_activity(Box::new(Tick), iv),
        }
    }
    let stop = spec.stop_at.map(|n| {
        sim.set_instr_limit(n);
        let stop = sim.run().map(triple);
        sim.set_instr_limit(lift);
        stop
    });
    let mut checkpoint = None;
    let outcome = match spec.aim {
        Aim::Cycles(limit) => {
            sim.set_cycle_limit(limit);
            sim.run()
        }
        Aim::Checkpoint(target) => match sim.run_to_checkpoint_anytime(target) {
            Ok(CheckpointOutcome::Checkpoint(ck)) => {
                let json = ck.to_json();
                let round = Checkpoint::from_json(&json).expect("checkpoint parses");
                checkpoint = Some(json);
                sim = CycleSim::resume(exe.clone(), cfg, round);
                sim.enable_host_profiling();
                limit(&mut sim);
                sim.run()
            }
            Ok(CheckpointOutcome::Done(s)) => Ok(s),
            Err(e) => Err(e),
        },
        Aim::Tick { .. } => sim.run(),
    };
    let observed = FoldObserved {
        stop,
        outcome: outcome.map(triple),
        cycles: sim.cycles(),
        stats: sim.stats.to_json_string(),
        machine: sim.machine.to_json_string(),
        master: sim.master.to_json_string(),
        tcus: sim.tcus().to_vec().to_json_string(),
        checkpoint,
    };
    (observed, sim.host_profile().expect("enabled").clone())
}

/// Hold burst issue over the express network to both oracles. Against
/// per-instruction issue on the same network with no return leg folded
/// (an instruction limit just past the program's end takes the fold's
/// headroom away without ever stopping the run) it must match on
/// everything observable, the error and the checkpoint's bytes included.
/// Against the per-hop walk it must match wherever the run goes on to
/// the end; where a cycle limit cuts it, the express network already
/// differed from the per-hop walk before any fold (its elided hop groups
/// are instants the run loop's checks could fire at). Returns the
/// same-network oracle's observation and the burst run's host profile.
fn match_oracles(
    exe: &Executable,
    cfg: &XmtConfig,
    spec: &FoldSpec,
    total: u64,
) -> (FoldObserved, HostProfile) {
    let (fast, hp) =
        observe_fold(exe, cfg, (IssueModel::Burst, IcnModel::Express), spec, u64::MAX);
    let (oracle, ho) =
        observe_fold(exe, cfg, (IssueModel::PerInstr, IcnModel::Express), spec, total + 1);
    assert_eq!(ho.legs_folded, 0, "the same-network oracle folds no leg");
    assert_eq!(
        fast, oracle,
        "burst × express / per-instr × express divergence under timing {:?} case {:?}",
        cfg.icn_timing, spec
    );
    if !matches!(spec.aim, Aim::Cycles(_)) {
        let (per_hop, _) =
            observe_fold(exe, cfg, (IssueModel::PerInstr, IcnModel::PerHop), spec, u64::MAX);
        let end = |o: FoldObserved| {
            (o.stop, o.outcome, o.cycles, o.stats, o.machine, o.master, o.tcus)
        };
        assert!(
            end(fast) == end(per_hop),
            "burst × express / per-instr × per-hop divergence under timing {:?} case {:?}",
            cfg.icn_timing,
            spec
        );
    }
    (oracle, hp)
}

/// 256 random cases aimed at the TCU-side folds' boundaries (DESIGN §16):
/// sampling ticks, DVFS retunes, cycle limits and mid-flight checkpoint
/// targets on a return leg's end, one cycle later, or a blocking
/// completion's instant, and the re-targeting sequence — an instruction-
/// limit stop (on any TCU's instruction or the master's), then a cycle
/// limit or a checkpoint target, then the rest of the run — held to both
/// oracles by [`match_oracles`].
#[test]
fn fold_boundaries_match_the_oracle() {
    let (mut ran, mut folded, mut resumed, mut continued) = (0u32, 0u64, 0u64, 0u64);
    let (mut checkpoints, mut stops, mut errors) = (0u32, 0u32, 0u32);
    run("fold_boundaries_match_the_oracle", Config::default(), |g: &mut Gen| {
        ran += 1;
        let exe = gen_fold_program(g);
        let cfg = gen_fold_config(g);
        let (spec, total) = gen_fold_spec(g, &exe, &cfg);
        let (oracle, hp) = match_oracles(&exe, &cfg, &spec, total);
        folded += hp.legs_folded;
        resumed += hp.completions_continued;
        continued += hp.issues_continued;
        checkpoints += oracle.checkpoint.is_some() as u32;
        stops += oracle.stop.is_some() as u32;
        errors += oracle.outcome.is_err() as u32;
    });
    // scripts/verify.sh greps for this line to prove the suite really ran.
    eprintln!(
        "fold_boundaries: ran {ran} cases ({folded} legs folded, {resumed} completions and \
         {continued} issues continued under burst × express; {checkpoints} checkpointed \
         mid-run, {stops} stopped at an instruction limit first, {errors} ended in an error)"
    );
    assert!(
        folded > 0 && resumed > 0 && continued > 0 && checkpoints > 0 && stops > 0 && errors > 0,
        "vacuous sweep"
    );
}

// ---------------------------------------------------------------------
// First rounds: a section's opening, taken in closed form
// ---------------------------------------------------------------------

/// How a generated spawn block opens: the way the closed form takes
/// (DESIGN §17) — local instructions, `ps t0, gr` with an increment of 0
/// or 1, `chkid t0` — or a way it must refuse.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Opening {
    Canonical,
    /// An instruction between the `ps` and the `chkid`.
    NoChkid,
    /// The `chkid` checks another register: the previous round's id.
    OtherRegister,
    /// An increment of 2: the first `ps` traps.
    TrappingIncrement,
    /// The block starts with a shared-FU `mul`.
    NonLocalFirst,
}

/// A random program of 1–2 parallel sections on a machine of `tcus` TCUs,
/// mostly fewer threads than TCUs, every block opening as `opening` says:
/// 0–4 local instructions (a taken branch among them, at times) with the
/// one setting the increment, which the loop's tail sets instead when
/// there are none; the ids drawn from `gr0`, or from another global
/// register the master seeds — past `hi` one time in eight, so every TCU
/// parks at once; an increment of 0 in a section's first round one time
/// in three. The bodies store, load, `ps` another register and print.
fn gen_first_round_program(g: &mut Gen, tcus: usize, opening: Opening) -> Executable {
    use Instr::*;
    let words = 1usize << g.usize_in(4, 6);
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let mut p = AsmProgram::new();
    p.push(Li { rt: Reg::S0, imm: a as i32 });
    for s in 0..g.usize_in(1, 3) {
        let n = g.usize_in(0, 6);
        straight_line(&mut p, g, n);
        let threads =
            if g.bool_p(0.8) { g.usize_in(1, tcus + 1) } else { g.usize_in(tcus + 1, 2 * tcus + 1) };
        let lo = g.int_in(0, 3) as i32;
        let hi = lo + threads as i32 - 1;
        p.push(Li { rt: Reg::A0, imm: lo });
        p.push(Li { rt: Reg::A1, imm: hi });
        let gr = if g.bool_p(0.5) {
            GlobalReg::THREAD_ALLOC
        } else {
            let gr = GlobalReg(g.int_in(1, 4) as u8);
            p.push(Li { rt: Reg::T4, imm: if g.bool_p(0.125) { hi + 1 } else { lo } });
            p.push(Grput { gr, rs: Reg::T4 });
            gr
        };
        // `S2` is 0 until a thread of this section finished its body.
        let inc = match opening {
            Opening::TrappingIncrement => Li { rt: Reg::T0, imm: 2 },
            _ if g.bool_p(0.3) => Sltu { rd: Reg::T0, rs: Reg::Zero, rt: Reg::S2 },
            _ => Li { rt: Reg::T0, imm: 1 },
        };
        p.push(Li { rt: Reg::S2, imm: 0 });
        p.push(Li { rt: Reg::T8, imm: lo });
        let prefix = g.usize_in(0, 5);
        if prefix == 0 {
            p.push(inc.clone());
        }
        p.push(Spawn { lo: Reg::A0, hi: Reg::A1 });
        let vt = format!("vt{s}");
        p.label(vt.clone());
        if opening == Opening::NonLocalFirst {
            p.push(Mul { rd: Reg::T3, rs: Reg::T3, rt: Reg::T4 });
        }
        let setter = g.usize_in(0, prefix.max(1));
        for k in 0..prefix {
            if k == setter {
                p.push(inc.clone());
            } else if g.bool_p(0.25) {
                let next = format!("p{s}_{k}");
                p.push(Beq { rs: Reg::Zero, rt: Reg::Zero, target: Target::label(next.clone()) });
                p.label(next);
            } else {
                straight_line(&mut p, g, 1);
            }
        }
        p.push(Ps { rt: Reg::T0, gr });
        if opening == Opening::NoChkid {
            p.push(Addi { rt: Reg::T3, rs: Reg::T3, imm: 1 });
        }
        let checked = if opening == Opening::OtherRegister { Reg::T8 } else { Reg::T0 };
        p.push(Chkid { rt: checked });
        p.push(Andi { rt: Reg::T1, rs: Reg::T0, imm: (words - 1) as u32 });
        p.push(Sll { rd: Reg::T1, rt: Reg::T1, sh: 2 });
        p.push(Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        for _ in 0..g.usize_in(1, 4) {
            match g.usize_in(0, 6) {
                0 => {
                    p.push(Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                    p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
                }
                1 => p.push(Swnb { rt: Reg::T0, base: Reg::T1, off: 0 }),
                2 => {
                    p.push(Li { rt: Reg::T4, imm: 1 });
                    p.push(Ps { rt: Reg::T4, gr: GlobalReg(7) });
                    p.push(Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T4 });
                }
                3 => p.push(Print { rs: Reg::T0 }),
                4 => p.push(Mul { rd: Reg::T3, rs: Reg::T3, rt: Reg::T0 }),
                _ => {
                    let n = g.usize_in(1, 8);
                    straight_line(&mut p, g, n);
                }
            }
        }
        p.push(Swnb { rt: Reg::T3, base: Reg::T1, off: 0 });
        p.push(Li { rt: Reg::S2, imm: 1 });
        p.push(Move { rd: Reg::T8, rs: Reg::T0 });
        if prefix == 0 {
            p.push(inc);
        }
        p.push(J { target: Target::label(vt) });
        p.push(Join);
    }
    p.push(Print { rs: Reg::T3 });
    p.push(Halt);
    p.link(mm).unwrap()
}

/// Draw the case from the oracle's trace: aim at an instant a TCU issues
/// a block's first instruction (`T_b`), its first `ps` (`T_b + d`) or the
/// instruction after that (`T_p`), in any round; and, one case in three,
/// stop first at an instruction limit landing among the instructions
/// issued at another such instant. Also returns the program's
/// instruction count.
fn gen_first_round_spec(g: &mut Gen, exe: &Executable, cfg: &XmtConfig) -> (FoldSpec, u64) {
    let mut marks = Vec::new();
    for (pc, ins) in exe.text.iter().enumerate() {
        if matches!(ins, Instr::Spawn { .. }) {
            let ps = (pc..exe.text.len()).find(|&k| matches!(exe.text[k], Instr::Ps { .. }));
            let ps = ps.expect("every block has a `ps`") as u32;
            marks.extend([pc as u32 + 1, ps, ps + 1]);
        }
    }
    let (records, n) = oracle_trace(exe, cfg);
    let issues: Vec<(u64, bool)> = records
        .iter()
        .filter_map(|r| match *r {
            TraceEvent::Issue { time, tcu, pc } => Some((time, tcu.is_some() && marks.contains(&pc))),
            _ => None,
        })
        .collect();
    let instants: Vec<u64> = issues.iter().filter(|i| i.1).map(|i| i.0).collect();
    let cp = cfg.period_ps[ClockDomain::Cluster as usize];
    let x = if instants.is_empty() { cp } else { *g.choose(&instants) };
    let aim = aim_at(g, x, cp);
    let stop_at = (n >= 2 && !instants.is_empty() && g.bool_p(0.35)).then(|| {
        let y = *g.choose(&instants);
        let before = issues.iter().take_while(|i| i.0 < y).count() as u64;
        (before + g.int_in(0, 3) as u64).clamp(1, n - 1)
    });
    (FoldSpec { stop_at, aim }, n)
}

/// 256 random cases of sections opening — the canonical way, or one of
/// the ways the closed form must refuse — on small machines (a single TCU
/// one time in four; a zero-cycle `ps` at times, so that `T_p` is
/// `T_b + d`), with sampling ticks, DVFS retunes, cycle limits, mid-flight
/// checkpoint targets and instruction-limit stops aimed at a round's
/// `T_b`, `T_b + d` and `T_p`, held to both oracles by [`match_oracles`]
/// on the outcome or error, clock, `Stats`, machine with its global
/// registers, every TCU and the checkpoint's bytes.
#[test]
fn first_round_matches_the_oracle() {
    let (mut ran, mut rounds, mut idle, mut refused) = (0u32, 0u64, 0u64, 0u32);
    let (mut checkpoints, mut stops, mut errors) = (0u32, 0u32, 0u32);
    run("first_round_matches_the_oracle", Config::default(), |g: &mut Gen| {
        ran += 1;
        let cfg = gen_fold_config(g);
        let opening = if g.bool_p(0.6) {
            Opening::Canonical
        } else {
            *g.choose(&[
                Opening::NoChkid,
                Opening::OtherRegister,
                Opening::TrappingIncrement,
                Opening::NonLocalFirst,
            ])
        };
        let exe = gen_first_round_program(g, cfg.n_tcus() as usize, opening);
        let (spec, total) = gen_first_round_spec(g, &exe, &cfg);
        let (oracle, hp) = match_oracles(&exe, &cfg, &spec, total);
        if opening != Opening::Canonical {
            assert_eq!(hp.first_rounds, 0, "a {opening:?} opening taken in closed form");
        }
        rounds += hp.first_rounds;
        idle += hp.idle_parked;
        refused += (opening == Opening::Canonical && hp.first_rounds == 0) as u32;
        checkpoints += oracle.checkpoint.is_some() as u32;
        stops += oracle.stop.is_some() as u32;
        errors += oracle.outcome.is_err() as u32;
    });
    // scripts/verify.sh greps for this line to prove the suite really ran.
    eprintln!(
        "first_round: ran {ran} cases ({rounds} TCU first rounds in closed form, {idle} of them \
         parked idle; {refused} canonical cases took none; {checkpoints} checkpointed mid-run, \
         {stops} stopped at an instruction limit first, {errors} ended in an error)"
    );
    assert!(
        rounds > 0 && idle > 0 && refused > 0 && checkpoints > 0 && stops > 0 && errors > 0,
        "vacuous sweep"
    );
}

/// Why the in-place resume stands down on a machine with a zero-cycle
/// operation: there a TCU can schedule its own next step for the instant
/// it is at, into the same group as the step a completion makes — and
/// that group runs in TCU order. Thread 0 issues two zero-latency `ps` at
/// some instant, thread 1's load completes at it and its `ps` follows;
/// the per-instruction oracle hands out thread 0's second value before
/// thread 1's. Every padding (hence every alignment of the two) must
/// match it.
#[test]
fn zero_latency_ps_keeps_the_resumed_step_in_its_group() {
    use Instr::*;
    let mut cfg = XmtConfig::tiny();
    (cfg.clusters, cfg.tcus_per_cluster, cfg.ps_latency) = (1, 2, 0);
    for pad in 0..120 {
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![1]);
        let b = mm.push("B", vec![0; 3]);
        let mut p = AsmProgram::new();
        p.push(Li { rt: Reg::A0, imm: 0 });
        p.push(Li { rt: Reg::A1, imm: 1 });
        p.push(Li { rt: Reg::S0, imm: a as i32 });
        p.push(Li { rt: Reg::S1, imm: b as i32 });
        p.push(Spawn { lo: Reg::A0, hi: Reg::A1 });
        p.label("vt");
        p.push(Li { rt: Reg::T0, imm: 1 });
        p.push(Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Chkid { rt: Reg::T0 });
        p.push(Bne { rs: Reg::T0, rt: Reg::Zero, target: Target::label("one") });
        for _ in 0..pad {
            p.push(Addi { rt: Reg::T5, rs: Reg::T5, imm: 1 });
        }
        p.push(Li { rt: Reg::T4, imm: 1 });
        p.push(Li { rt: Reg::T6, imm: 1 });
        p.push(Ps { rt: Reg::T4, gr: GlobalReg(1) });
        p.push(Ps { rt: Reg::T6, gr: GlobalReg(1) });
        p.push(Swnb { rt: Reg::T4, base: Reg::S1, off: 0 });
        p.push(Swnb { rt: Reg::T6, base: Reg::S1, off: 4 });
        p.push(J { target: Target::label("vt") });
        p.label("one");
        p.push(Lw { rt: Reg::T2, base: Reg::S0, off: 0 });
        p.push(Ps { rt: Reg::T2, gr: GlobalReg(1) });
        p.push(Swnb { rt: Reg::T2, base: Reg::S1, off: 8 });
        p.push(J { target: Target::label("vt") });
        p.push(Join);
        p.push(Halt);
        let exe = p.link(mm).unwrap();
        let run = |model: IssueModel| {
            let mut c = cfg.clone();
            c.issue_model = model;
            let mut sim = CycleSim::new(exe.clone(), c);
            let s = sim.run().unwrap();
            let handed = sim.machine.read_symbol(sim.executable(), "B", 3).unwrap();
            ((s.cycles, s.instructions), handed, sim.stats.to_json_string())
        };
        assert_eq!(run(IssueModel::Burst), run(IssueModel::PerInstr), "padding {pad}");
    }
}
