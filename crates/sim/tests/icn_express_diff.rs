//! Differential property suite for the two ICN package-movement models.
//!
//! The closed-form *express* path (one end-of-leg event per network leg)
//! must be bit-identical to the per-hop *oracle* (one event per switch
//! traversal) on every architecturally observable quantity: simulated
//! cycles, simulated time, instruction count, the full statistics record,
//! program output and the final machine state (memory, global registers).
//! The only permitted difference is the host-side event count in
//! [`RunSummary::events`] — eliding hop events is the whole point.
//!
//! Cases sweep random programs (loads, non-blocking stores, prefix-sum-to-
//! memory, prefetch + consume, fences, MDU work), random small topologies,
//! both switch timing disciplines (synchronous and self-timed with jitter),
//! both prefetch-buffer eviction policies, and mid-run DVFS retuning
//! driven by an activity plug-in — the hardest case for the express path, which must
//! re-derive in-flight legs exactly as the per-hop walk would have
//! re-decided each remaining hop. A second generator saturates the TCU
//! prefetch buffers, where fill and eviction order decide which loads hit.

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::ToJson;
use xmt_isa::{AsmProgram, Executable, GlobalReg, Instr, MemoryMap, Reg, Target};
use xmtsim::config::{ClockDomain, IcnTiming, PrefetchPolicy};
use xmtsim::stats::{ActivityPlugin, ActivitySample, RuntimeCtl};
use xmtsim::{CycleSim, IcnModel, XmtConfig};

/// A deterministic mid-run clock retune: at activity sample
/// `at_sample`, scale `dom`'s frequency by `factor_pct`%. Constructed
/// identically for both simulators so the DVFS schedule is shared.
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

fn gen_config(g: &mut Gen) -> XmtConfig {
    let mut cfg = XmtConfig::tiny();
    cfg.clusters = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.tcus_per_cluster = g.usize_in(1, 2) as u32;
    cfg.cache_modules = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.dram_channels = g.usize_in(1, 2) as u32;
    // 0 = derived from the topology; otherwise an explicit hop count.
    cfg.icn_latency = g.usize_in(0, 6) as u32;
    cfg.icn_timing = if g.bool_p(0.5) {
        IcnTiming::Synchronous
    } else {
        IcnTiming::Asynchronous {
            hop_ps: g.int_in(300, 1500) as u64,
            jitter_ps: g.int_in(0, 900) as u64,
        }
    };
    cfg.prefetch_policy = if g.bool_p(0.5) { PrefetchPolicy::Fifo } else { PrefetchPolicy::Lru };
    // The MSHR-chain edge case: zero hit latency makes a service end at
    // its arrival instant, so same-instant arrivals to one line must
    // still chain in leg-end order.
    if g.bool_p(0.25) {
        cfg.cache_hit_latency = 0;
    }
    cfg
}

/// A random terminating program of 1–2 spawn sections whose virtual
/// threads mix every memory-traffic shape the ICN carries.
fn gen_program(g: &mut Gen) -> Executable {
    let words = 1usize << g.usize_in(4, 7); // 16..128, power of two
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let c = mm.push("C", vec![0u32; 8]);
    let mut p = AsmProgram::new();
    let sections = g.usize_in(1, 2);
    for s in 0..sections {
        let threads = g.usize_in(1, 24) as i32;
        let stride_sh = g.usize_in(0, 3) as u8;
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
        // T1 = &A[($ << stride) & mask]
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T0, sh: stride_sh });
        p.push(Instr::Andi { rt: Reg::T1, rs: Reg::T1, imm: mask });
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T1, sh: 2 });
        p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        for _ in 0..g.usize_in(2, 6) {
            match g.usize_in(0, 6) {
                0 => {
                    // Round-trip load, accumulated so the value matters.
                    p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                    p.push(Instr::Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
                }
                1 => p.push(Instr::Swnb { rt: Reg::T0, base: Reg::T1, off: 0 }),
                2 => {
                    // Prefix-sum to memory: value-carrying round trip.
                    p.push(Instr::Li { rt: Reg::T4, imm: 1 });
                    p.push(Instr::Psm { rt: Reg::T4, base: Reg::S1, off: 4 * s as i32 });
                }
                3 => {
                    // Prefetch-buffer fill + consume: hit-or-wait timing
                    // depends on exact fill order under either policy.
                    p.push(Instr::Pref { base: Reg::T1, off: 0 });
                    p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
                }
                4 => p.push(Instr::Fence),
                5 => p.push(Instr::Mul { rd: Reg::T3, rs: Reg::T0, rt: Reg::T0 }),
                _ => {
                    let off = 4 * g.int_in(0, 3) as i32;
                    p.push(Instr::Lw { rt: Reg::T5, base: Reg::S0, off });
                }
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

/// Everything two runs must agree on, as one comparable tuple.
/// `RunSummary::events` is deliberately absent.
fn observe(
    exe: Executable,
    cfg: &XmtConfig,
    model: IcnModel,
    dvfs: Option<DvfsSpec>,
) -> (u64, u64, u64, String, String) {
    let mut cfg = cfg.clone();
    cfg.icn_model = model;
    let mut sim = CycleSim::new(exe, cfg);
    if let Some(spec) = dvfs {
        sim.add_activity(
            Box::new(Retune { spec, seen: 0, fired: false }),
            spec.interval_cycles,
        );
    }
    let s = sim.run().expect("program runs to halt");
    (
        s.cycles,
        s.time_ps,
        s.instructions,
        sim.stats.to_json_string(),
        sim.machine.to_json_string(),
    )
}

/// The property itself: the express path and the per-hop oracle are
/// bit-identical on `exe` under `cfg` and the shared DVFS schedule.
fn assert_express_matches_perhop(exe: &Executable, cfg: &XmtConfig, dvfs: Option<DvfsSpec>) {
    let express = observe(exe.clone(), cfg, IcnModel::Express, dvfs);
    let perhop = observe(exe.clone(), cfg, IcnModel::PerHop, dvfs);
    assert_eq!(
        express, perhop,
        "express/per-hop divergence under cfg {:?} policy {:?} dvfs {:?}",
        cfg.icn_timing, cfg.prefetch_policy, dvfs
    );
}

/// The tentpole property: 256 random (program, topology, timing, DVFS)
/// cases where the express path and the per-hop oracle are
/// bit-identical.
#[test]
fn icn_express_matches_perhop_oracle() {
    let mut ran = 0u32;
    run("icn_express_matches_perhop_oracle", Config::default(), |g: &mut Gen| {
        ran += 1;
        let exe = gen_program(g);
        let cfg = gen_config(g);
        let dvfs = gen_dvfs(g);
        assert_express_matches_perhop(&exe, &cfg, dvfs);
    });
    // scripts/verify.sh greps for this line to prove the suite really ran.
    eprintln!("icn_express_diff: ran {ran} cases");
    assert!(ran >= 1);
}

/// A prefetch-saturating program: every thread prefetches more lines
/// than one buffer holds and consumes most of them, so fills contend for
/// buffer slots and a wrong fill or eviction order changes which loads
/// hit.
fn gen_prefetch_saturation(g: &mut Gen) -> Executable {
    let words = 128usize;
    let mask = (words - 1) as u32;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", (0..words as u32).collect());
    let mut p = AsmProgram::new();
    let threads = g.usize_in(4, 16) as i32;
    let bursts = g.usize_in(3, 8);
    p.push(Instr::Li { rt: Reg::A0, imm: 0 });
    p.push(Instr::Li { rt: Reg::A1, imm: threads - 1 });
    p.push(Instr::Li { rt: Reg::S0, imm: a as i32 });
    p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
    p.label("vt");
    p.push(Instr::Li { rt: Reg::T0, imm: 1 });
    p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
    p.push(Instr::Chkid { rt: Reg::T0 });
    for k in 0..bursts {
        // Distinct line per burst.
        let stride = 1 + g.usize_in(0, 5) as u32;
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T0, sh: 3 });
        p.push(Instr::Addi {
            rt: Reg::T1,
            rs: Reg::T1,
            imm: ((k as u32 * stride) & mask) as i32,
        });
        p.push(Instr::Andi { rt: Reg::T1, rs: Reg::T1, imm: mask });
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T1, sh: 2 });
        p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        p.push(Instr::Pref { base: Reg::T1, off: 0 });
        if g.bool_p(0.7) {
            p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
            p.push(Instr::Add { rd: Reg::T3, rs: Reg::T3, rt: Reg::T2 });
        }
    }
    p.push(Instr::Swnb { rt: Reg::T3, base: Reg::T1, off: 0 });
    p.push(Instr::J { target: Target::label("vt") });
    p.push(Instr::Join);
    p.push(Instr::Halt);
    p.link(mm).unwrap()
}

/// The same property on prefetch-saturating programs, under *both*
/// eviction policies — and the programs really prefetched.
#[test]
fn prefetch_fill_and_evict_order_matches_perhop_oracle() {
    run(
        "prefetch_fill_and_evict_order_matches_perhop_oracle",
        Config::with_cases(64),
        |g: &mut Gen| {
            let exe = gen_prefetch_saturation(g);
            for policy in [PrefetchPolicy::Fifo, PrefetchPolicy::Lru] {
                let mut cfg = XmtConfig::tiny();
                cfg.prefetch_policy = policy;
                assert_express_matches_perhop(&exe, &cfg, None);
            }
            let mut sim = CycleSim::new(exe, XmtConfig::tiny());
            sim.run().unwrap();
            assert!(sim.stats.prefetches > 0, "workload never prefetched");
        },
    );
}

/// The express path does what it is for: on a memory-bound workload it
/// processes far fewer events than the per-hop walk, while the paper's
/// host-side leg counters account for every elided hop — and
/// `legs_folded` for every return leg that ended in its completion
/// instead of an `ExpressEnd` (all of them: nothing clips this run).
#[test]
fn express_elides_hop_events() {
    let words = 256usize;
    let mut mm = MemoryMap::new();
    let a = mm.push("A", vec![0u32; words]);
    let mut p = AsmProgram::new();
    p.push(Instr::Li { rt: Reg::A0, imm: 0 });
    p.push(Instr::Li { rt: Reg::A1, imm: words as i32 - 1 });
    p.push(Instr::Li { rt: Reg::S0, imm: a as i32 });
    p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
    p.label("vt");
    p.push(Instr::Li { rt: Reg::T0, imm: 1 });
    p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
    p.push(Instr::Chkid { rt: Reg::T0 });
    p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T0, sh: 2 });
    p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
    p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
    p.push(Instr::Addi { rt: Reg::T2, rs: Reg::T2, imm: 7 });
    p.push(Instr::Swnb { rt: Reg::T2, base: Reg::T1, off: 0 });
    p.push(Instr::J { target: Target::label("vt") });
    p.push(Instr::Join);
    p.push(Instr::Halt);
    let exe = p.link(mm).unwrap();

    let mut cfg = XmtConfig::tiny();
    cfg.icn_latency = 6; // six switches each way
    let run_model = |model: IcnModel| {
        let mut c = cfg.clone();
        c.icn_model = model;
        let mut sim = CycleSim::new(exe.clone(), c);
        sim.enable_host_profiling();
        let s = sim.run().unwrap();
        let hp = sim.host_profile().unwrap();
        (s, hp.express_legs, hp.hops_elided, sim.stats.icn_packages, hp.legs_folded)
    };
    let (se, legs, elided, pkgs, folded) = run_model(IcnModel::Express);
    let (sp, legs_ph, elided_ph, _, folded_ph) = run_model(IcnModel::PerHop);

    assert_eq!((se.cycles, se.time_ps, se.instructions), (sp.cycles, sp.time_ps, sp.instructions));
    assert_eq!((legs_ph, elided_ph, folded_ph), (0, 0, 0), "oracle takes the per-hop walk");
    assert!(legs > 0, "express path handled the network legs");
    // Each one-way leg of h hops collapses to 1 event: h-1 hops elided.
    assert_eq!(elided, legs * (cfg.icn_oneway() as u64 - 1));
    assert_eq!(legs, pkgs, "one express leg per injected package");
    assert_eq!(2 * folded, legs, "every return leg folds: half the legs");
    assert!(
        se.events + elided + folded == sp.events,
        "event books must balance: express {} + elided {} + folded {} != per-hop {}",
        se.events,
        elided,
        folded,
        sp.events
    );
}
