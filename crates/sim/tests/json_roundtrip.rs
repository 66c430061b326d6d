//! JSON round-trip property tests for every serializable simulator type:
//! `decode(encode(x)) == x` through the in-tree `xmt-harness` JSON module.
//! These types form the checkpoint interchange format (paper §III-E), so
//! a lossy encoding here silently corrupts resumed runs.
//!
//! Deliberate edge coverage: `u64::MAX` counters, empty maps/vectors,
//! extreme-but-finite floats (the encoder rejects NaN/inf by design, and
//! uses shortest-decimal formatting so finite values round-trip exactly).

use xmt_harness::prop::{run, Config, Gen};
use xmt_harness::{FromJson, ToJson};
use xmt_isa::reg::{FReg, GlobalReg, Reg};
use xmtsim::config::{IcnTiming, PrefetchPolicy, XmtConfig};
use xmtsim::machine::{Machine, Memory, Output, OutputItem, RegFile, ThreadCtx};
use xmtsim::power::{PowerBreakdown, PowerModel, PowerWeights, ThermalGrid, ThermalRecord};
use xmtsim::stats::{SpawnRecord, Stats};
use xmtsim::trace::{TraceEvent, TraceLevel, Tracer};

fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(x: &T) {
    let encoded = x.to_json_string();
    let back = T::from_json_str(&encoded).unwrap_or_else(|e| panic!("{e}\n{encoded}"));
    assert_eq!(&back, x, "decode(encode(x)) != x for {encoded}");
}

/// A u64 that is often an extreme value — counters in `Stats` and times in
/// `SpawnRecord` must survive the full range (JSON encoders that go
/// through f64 would corrupt anything above 2^53).
fn edgy_u64(g: &mut Gen) -> u64 {
    match g.usize_in(0, 5) {
        0 => 0,
        1 => u64::MAX,
        2 => (1 << 53) + 1,
        _ => g.u64(),
    }
}

/// A finite f64 with occasional extremes (subnormals, ±MAX, -0.0).
fn finite_f64(g: &mut Gen) -> f64 {
    match g.usize_in(0, 8) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::MAX,
        3 => f64::MIN_POSITIVE,
        4 => 5e-324, // smallest subnormal
        _ => {
            let v = f64::from_bits(g.u64());
            if v.is_finite() { v } else { 0.0 }
        }
    }
}

fn finite_f32(g: &mut Gen) -> f32 {
    let v = f32::from_bits(g.u32());
    if v.is_finite() { v } else { 0.0 }
}

fn any_stats(g: &mut Gen) -> Stats {
    let mut s = Stats::default();
    s.instructions = edgy_u64(g);
    s.master_instructions = edgy_u64(g);
    s.tcu_instructions = edgy_u64(g);
    for slot in s.by_fu.iter_mut() {
        *slot = edgy_u64(g);
    }
    // Empty vectors must round-trip too, so lengths start at 0.
    s.per_cluster = g.vec_of(0, 9, edgy_u64);
    s.spawns = edgy_u64(g);
    s.virtual_threads = edgy_u64(g);
    s.spawn_records = g.vec_of(0, 6, |g| SpawnRecord {
        threads: edgy_u64(g),
        start_ps: edgy_u64(g),
        end_ps: edgy_u64(g),
    });
    s.module_accesses = g.vec_of(0, 9, edgy_u64);
    s.cache_hits = edgy_u64(g);
    s.cache_misses = edgy_u64(g);
    s.master_hits = edgy_u64(g);
    s.master_misses = edgy_u64(g);
    s.ro_hits = edgy_u64(g);
    s.ro_misses = edgy_u64(g);
    s.prefetch_hits = edgy_u64(g);
    s.prefetches = edgy_u64(g);
    s.dram_accesses = edgy_u64(g);
    s.icn_packages = edgy_u64(g);
    s.psm_ops = edgy_u64(g);
    s.ps_ops = edgy_u64(g);
    s.mem_wait_ps = edgy_u64(g);
    s.fence_wait_ps = edgy_u64(g);
    s
}

fn any_config(g: &mut Gen) -> XmtConfig {
    let mut c = if g.bool_p(0.5) { XmtConfig::tiny() } else { XmtConfig::fpga64() };
    c.clusters = g.int_in(1, 1025) as u32;
    c.tcus_per_cluster = g.int_in(1, 65) as u32;
    c.cache_modules = g.int_in(1, 129) as u32;
    c.dram_channels = g.int_in(1, 17) as u32;
    for p in c.period_ps.iter_mut() {
        *p = g.int_in(1, 1_000_000) as u64;
    }
    c.icn_timing = if g.bool_p(0.5) {
        IcnTiming::Synchronous
    } else {
        IcnTiming::Asynchronous { hop_ps: edgy_u64(g), jitter_ps: edgy_u64(g) }
    };
    c.prefetch_policy =
        if g.bool_p(0.5) { PrefetchPolicy::Fifo } else { PrefetchPolicy::Lru };
    c.cache_hit_latency = g.u32();
    c.dram_latency = g.u32();
    c
}

#[test]
fn stats_json_roundtrip() {
    run("stats_json_roundtrip", Config::default(), |g| {
        roundtrip(&any_stats(g));
    });
}

#[test]
fn config_json_roundtrip() {
    run("config_json_roundtrip", Config::default(), |g| {
        roundtrip(&any_config(g));
    });
}

#[test]
fn trace_json_roundtrip() {
    run("trace_json_roundtrip", Config::default(), |g| {
        let level =
            if g.bool_p(0.5) { TraceLevel::Functional } else { TraceLevel::CycleAccurate };
        let mut t = Tracer::new(level);
        // Exercise both filtered (Some(set), possibly empty) and
        // unfiltered (None) tracers — the BTreeSet inside Option is the
        // trickiest shape in the trace format.
        if g.bool_p(0.5) {
            t = t.with_tcus(g.vec_of(0, 5, |g| g.u32()));
        }
        if g.bool_p(0.3) {
            t = t.with_pcs(g.vec_of(0, 5, |g| g.u32()));
        }
        let events = g.vec_of(0, 30, |g| match g.usize_in(0, 3) {
            0 => TraceEvent::Issue {
                time: edgy_u64(g),
                tcu: if g.bool_p(0.8) { Some(g.u32()) } else { None },
                pc: g.u32(),
            },
            1 => TraceEvent::Service {
                time: edgy_u64(g),
                tcu: g.u32(),
                addr: g.u32(),
                pc: g.u32(),
            },
            _ => TraceEvent::Complete {
                time: edgy_u64(g),
                tcu: g.u32(),
                addr: g.u32(),
                pc: g.u32(),
            },
        });
        for ev in &events {
            roundtrip(ev);
            t.record(ev.clone());
        }
        // Tracer has no PartialEq; check the encoding is a fixpoint
        // instead: encode(decode(encode(t))) == encode(t).
        let encoded = t.to_json_string();
        let back = Tracer::from_json_str(&encoded)
            .unwrap_or_else(|e| panic!("{e}\n{encoded}"));
        assert_eq!(back.to_json_string(), encoded);
        assert_eq!(back.records(), t.records());
    });
}

#[test]
fn machine_json_roundtrip() {
    run("machine_json_roundtrip", Config::default(), |g| {
        // Memory: a sparse page map, including the empty map and writes
        // near the top of the address space.
        let mut mem = Memory::new();
        let writes = g.vec_of(0, 40, |g| {
            let addr = match g.usize_in(0, 4) {
                0 => u32::MAX - g.usize_in(0, 64) as u32,
                _ => g.int_in(0, 1 << 20) as u32,
            };
            (addr, g.u32())
        });
        for &(addr, val) in &writes {
            mem.write_u8(addr, val as u8);
        }
        roundtrip(&mem);

        let mut regs = RegFile::default();
        regs.set(Reg::T0, u32::MAX);
        regs.set(Reg::Sp, g.u32());
        regs.setf(FReg(0), finite_f32(g));
        let ctx = ThreadCtx { regs, pc: g.u32() };
        roundtrip(&ctx);

        let mut output = Output::default();
        let items = g.vec_of(0, 10, |g| match g.usize_in(0, 3) {
            0 => OutputItem::Int(g.u32() as i32),
            1 => OutputItem::Float(finite_f32(g)),
            _ => OutputItem::Char(char::from_u32(g.u32() % 0xD800).unwrap_or('?')),
        });
        output.items = items;
        roundtrip(&output);

        let mut m = Machine { mem, gregs: Default::default(), output, halted: g.bool_p(0.5) };
        for slot in m.gregs.iter_mut() {
            *slot = g.u32();
        }
        m.gregs[0] = u32::MAX;
        let _ = GlobalReg::COUNT; // gregs array length is tied to this
        roundtrip(&m);
    });
}

#[test]
fn power_json_roundtrip() {
    run("power_json_roundtrip", Config::default(), |g| {
        let weights = PowerWeights {
            pj_per_instr: finite_f64(g),
            pj_per_fp: finite_f64(g),
            pj_per_icn: finite_f64(g),
            pj_per_cache: finite_f64(g),
            pj_per_dram: finite_f64(g),
            leak_cluster_w: finite_f64(g),
            leak_icn_w: finite_f64(g),
            leak_cache_w: finite_f64(g),
        };
        roundtrip(&weights);
        roundtrip(&PowerModel { weights });
        roundtrip(&PowerBreakdown {
            cluster_w: finite_f64(g),
            icn_w: finite_f64(g),
            cache_w: finite_f64(g),
            dram_w: finite_f64(g),
        });

        let mut grid = ThermalGrid::new(g.int_in(1, 17) as u32);
        for t in grid.temp_c.iter_mut() {
            *t = finite_f64(g);
        }
        grid.ambient_c = finite_f64(g);
        roundtrip(&grid);

        roundtrip(&ThermalRecord {
            time_ps: edgy_u64(g),
            power_w: finite_f64(g),
            max_temp_c: finite_f64(g),
            cluster_period_ps: edgy_u64(g),
        });
    });
}

/// A checkpoint captured from a real mid-run simulator must round-trip —
/// this is the composite type that embeds nearly everything above, plus
/// the private scheduler state (free-lists, cache tags, prefetch
/// buffers).
#[test]
fn live_checkpoint_json_roundtrip() {
    let src = "
        int A[64]; int N = 64;
        void main() {
            spawn(0, N - 1) { A[$] = $ * 3; }
            spawn(0, N - 1) { A[$] = A[$] + 1; }
        }
    ";
    let out = xmtc::compile_default(src).unwrap();
    let exe = out.asm.link(out.memmap).unwrap();
    let cfg = XmtConfig::tiny();

    let mut reference = xmtsim::CycleSim::new(exe.clone(), cfg.clone());
    let total = reference.run().unwrap().cycles;

    let mut sim = xmtsim::CycleSim::new(exe, cfg);
    let ckpt = match sim.run_to_checkpoint(total / 2).unwrap() {
        xmtsim::checkpoint::CheckpointOutcome::Checkpoint(c) => c,
        xmtsim::checkpoint::CheckpointOutcome::Done(_) => panic!("ended early"),
    };
    let json = ckpt.to_json();
    let back = xmtsim::checkpoint::Checkpoint::from_json(&json).unwrap();
    assert_eq!(*ckpt, back);
    // Encoding is canonical: encode(decode(encode(x))) == encode(x).
    assert_eq!(back.to_json(), json);
}

/// Regression: a hand-edited config with `dram_channels: 0` used to pass
/// construction and divide by zero at the first cache miss. It loads from
/// JSON, and the simulator refuses it by name.
#[test]
fn zero_dram_channels_is_a_load_error_not_a_panic() {
    let mut cfg = XmtConfig::tiny();
    cfg.dram_channels = 0;
    let parsed = XmtConfig::from_json_str(&cfg.to_json_string()).unwrap();
    let mut p = xmt_isa::AsmProgram::new();
    p.push(xmt_isa::Instr::Halt);
    let exe = p.link(xmt_isa::MemoryMap::new()).unwrap();
    match xmtsim::CycleSim::try_new(exe, parsed) {
        Err(e) => assert!(e.contains("dram_channels"), "error should name the field: {e}"),
        Ok(_) => panic!("dram_channels = 0 must be rejected at construction"),
    }
}
