//! Shape assertions for the paper's quantitative claims, run at small
//! scale so they execute on every `cargo test`. The bench binaries print
//! the full tables; these tests pin the *direction* of each result so a
//! regression in any subsystem (compiler pass, timing model, scheduler)
//! that flips a paper-level conclusion fails CI.

use xmtc::Options;
use xmtsim::XmtConfig;
use xmt_workloads::micro::{build, MicroGroup, MicroParams};
use xmt_workloads::suite::{self, Variant};

/// E1 (Table I shape): compute-intensive simulation retires many more
/// simulated instructions per host event than memory-intensive
/// simulation, and serial compute covers the most cycles per event.
/// Events per instruction is what Table I's throughput gap *is* (see
/// EXPERIMENTS.md E1), so the shape is pinned on those exact counts, not
/// on host time.
#[test]
fn table1_shape_holds() {
    let mut cfg = XmtConfig::chip1024();
    // Table I characterizes the cost of the per-switch ICN walk; the
    // express path exists precisely to shrink this gap (see
    // `icn_express` tests/bench for that claim), so the shape is pinned
    // on the reference model.
    cfg.icn_model = xmtsim::IcnModel::PerHop;
    // Same reasoning for the issue model: compute-burst issue elides the
    // per-instruction step events whose cost Table I measures, so the
    // shape is pinned on per-instruction stepping.
    cfg.issue_model = xmtsim::IssueModel::PerInstr;
    let p = MicroParams { threads: 1024, iters: 12, data_words: 1 << 14 };
    let mut rates = std::collections::HashMap::new();
    for g in MicroGroup::ALL {
        let compiled = build(g, &p, &Options::default()).unwrap();
        let r = compiled.simulator(&cfg).run().unwrap();
        let events = r.events as f64;
        rates.insert(g, (r.instructions as f64 / events, r.cycles as f64 / events));
    }
    let (pm_i, pm_c) = rates[&MicroGroup::ParallelMemory];
    let (pc_i, _pc_c) = rates[&MicroGroup::ParallelCompute];
    let (sm_i, _sm_c) = rates[&MicroGroup::SerialMemory];
    let (sc_i, sc_c) = rates[&MicroGroup::SerialCompute];
    // The paper measured ~23x on its per-switch Java ICN model; our
    // transaction-level ICN is lighter, so the gap is smaller but must
    // point the same way (see EXPERIMENTS.md).
    assert!(
        pc_i > 1.8 * pm_i,
        "parallel compute instr/event ({pc_i:.3}) ≫ parallel memory ({pm_i:.3})"
    );
    assert!(
        sc_i > 1.8 * sm_i,
        "serial compute instr/event ({sc_i:.3}) ≫ serial memory ({sm_i:.3})"
    );
    assert!(
        sc_c > 5.0 * pm_c,
        "serial compute cycles/event ({sc_c:.3}) ≫ parallel memory ({pm_c:.4})"
    );
}

/// E2 shape: the memory-system model dominates the simulator's work on
/// memory-bound code, and much less so on compute-bound code — pinned on
/// the exact share of events that are memory-system events.
#[test]
fn icn_dominates_memory_bound_simulation() {
    let cfg = XmtConfig::chip1024();
    let p = MicroParams { threads: 1024, iters: 12, data_words: 1 << 14 };
    let share = |g: MicroGroup| {
        let compiled = build(g, &p, &Options::default()).unwrap();
        let mut sim = compiled.simulator(&cfg);
        sim.enable_host_profiling();
        let events = sim.run().unwrap().events;
        sim.host_profile().unwrap().memory_events as f64 / events as f64
    };
    let mem = share(MicroGroup::ParallelMemory);
    let cpu = share(MicroGroup::ParallelCompute);
    assert!(
        mem > 0.30,
        "memory-bound: substantial share of events in the ICN model ({mem:.2})"
    );
    assert!(mem > cpu, "memory-bound share ({mem:.2}) > compute-bound ({cpu:.2})");
}

/// E8 shape: parallel XMTC beats serial XMTC broadly, and the irregular
/// graph workloads (the paper's flagship) win big on 64 TCUs.
#[test]
fn speedups_shape_holds() {
    let opts = Options::default();
    let cfg = XmtConfig::fpga64();
    let speedup = |par: &xmt_workloads::Workload, ser: &xmt_workloads::Workload| {
        let p = par.run_and_verify(&cfg).unwrap().cycles;
        let s = ser.run_and_verify(&cfg).unwrap().cycles;
        s as f64 / p as f64
    };
    let bfs = speedup(
        &suite::bfs(512, 2048, 1, Variant::Parallel, &opts).unwrap(),
        &suite::bfs(512, 2048, 1, Variant::Serial, &opts).unwrap(),
    );
    assert!(bfs > 3.0, "BFS parallel speedup on 64 TCUs: {bfs:.1}x");
    let rank = speedup(
        &suite::ranksort(256, 2, Variant::Parallel, &opts).unwrap(),
        &suite::ranksort(256, 2, Variant::Serial, &opts).unwrap(),
    );
    // Rank sort's lock-step scans of one shared array hit cache-module
    // hotspots, capping its scaling — still a solid win.
    assert!(rank > 4.0, "rank sort speedup: {rank:.1}x");
    let fft = speedup(
        &suite::fft(256, 3, Variant::Parallel, &opts).unwrap(),
        &suite::fft(256, 3, Variant::Serial, &opts).unwrap(),
    );
    assert!(fft > 2.0, "FFT speedup: {fft:.1}x");
}

/// E9 shape: the crossover where parallel beats serial sits at a *small*
/// problem size (low-overhead thread start, paper §II-B / [24]).
#[test]
fn small_parallelism_crossover_is_small() {
    let opts = Options::default();
    let cfg = XmtConfig::fpga64();
    let mut crossover = None;
    for n in [2usize, 4, 8, 16, 32, 64, 128] {
        let par = suite::vecadd(n, 4, Variant::Parallel, &opts).unwrap();
        let ser = suite::vecadd(n, 4, Variant::Serial, &opts).unwrap();
        let pc = par.run_and_verify(&cfg).unwrap().cycles;
        let sc = ser.run_and_verify(&cfg).unwrap().cycles;
        if sc >= pc {
            crossover = Some(n);
            break;
        }
    }
    let n = crossover.expect("parallel wins somewhere in 2..=128");
    assert!(
        n <= 64,
        "crossover at N = {n}: XMT must profit from small parallelism"
    );
}

/// E10 shape: prefetch buffers cut cycles on a multi-stream kernel, with
/// the bulk of the benefit from the first few entries.
#[test]
fn prefetch_sweep_shape_holds() {
    let src = "
        int A[512]; int B[512]; int C[512]; int D[512]; int O[512]; int N = 512;
        void main() { spawn(0, N-1) { O[$] = A[$] + B[$] + C[$] + D[$]; } }
    ";
    let compiled = xmt_core::Toolchain::new().compile(src).unwrap();
    let cycles_with = |entries: u32| {
        let mut cfg = XmtConfig::fpga64();
        cfg.prefetch_entries = entries;
        compiled.simulator(&cfg).run().unwrap().cycles
    };
    let none = cycles_with(0);
    let four = cycles_with(4);
    let sixteen = cycles_with(16);
    assert!(four < none, "4 entries beat none: {four} vs {none}");
    let gain_first = none as f64 - four as f64;
    let gain_rest = four as f64 - sixteen as f64;
    assert!(
        gain_first > gain_rest,
        "diminishing returns: first entries ({gain_first}) > extra ({gain_rest})"
    );
}

/// E11 shape: clustering trades per-thread scheduling overhead for loop
/// bookkeeping. Where thread allocation is expensive (a deep/contended
/// prefix-sum tree, modeled by a higher ps latency), moderate clustering
/// wins; at any ps cost, an absurd factor destroys load balance. (With
/// the default pipelined 6-cycle ps, thread starts are as cheap as loop
/// iterations and clustering buys nothing — see EXPERIMENTS.md.)
#[test]
fn clustering_sweep_shape_holds() {
    let mut cfg = XmtConfig::fpga64();
    cfg.ps_latency = 40; // deep/contended thread-allocation tree
    let cycles_with = |factor: Option<u32>| {
        let mut opts = Options::default();
        opts.clustering = factor;
        suite::fine_grained(4096, &opts)
            .unwrap()
            .run_and_verify(&cfg)
            .unwrap()
            .cycles
    };
    let unclustered = cycles_with(None);
    let moderate = cycles_with(Some(8));
    let extreme = cycles_with(Some(4096));
    assert!(
        moderate < unclustered,
        "moderate clustering wins under costly thread starts: {moderate} vs {unclustered}"
    );
    assert!(
        extreme > moderate,
        "one mega-thread destroys load balance: {extreme} vs {moderate}"
    );
    // And clustering always cuts the ps-unit traffic.
    let mut opts = Options::default();
    opts.clustering = Some(8);
    let w = suite::fine_grained(4096, &opts).unwrap();
    let r = w.run_and_verify(&XmtConfig::fpga64()).unwrap();
    assert!(r.stats.virtual_threads == 512);
}

/// E13 shape: functional mode is at least an order of magnitude faster in
/// host time.
#[test]
fn functional_mode_is_much_faster() {
    let w = suite::vecadd(4096, 6, Variant::Parallel, &Options::default()).unwrap();
    let cfg = XmtConfig::fpga64();
    let t0 = std::time::Instant::now();
    w.run_and_verify(&cfg).unwrap();
    let cyc = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    w.run_functional_and_verify().unwrap();
    let fun = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(
        cyc / fun > 5.0,
        "functional mode speedup over cycle-accurate: {:.1}x",
        cyc / fun
    );
}

/// The 1024-TCU chip beats the 64-TCU FPGA on an abundant-parallelism
/// workload (the scaling story of §II-B).
#[test]
fn bigger_chip_scales() {
    // The 1024-TCU chip brings both more TCUs and more DRAM channels; a
    // streaming kernel with abundant parallelism uses both.
    let opts = Options::default();
    let w = suite::vecadd(8192, 7, Variant::Parallel, &opts).unwrap();
    let c64 = w.run_and_verify(&XmtConfig::fpga64()).unwrap().cycles;
    let c1k = w.run_and_verify(&XmtConfig::chip1024()).unwrap().cycles;
    assert!(
        c1k * 3 < c64,
        "1024 TCUs ({c1k}) much faster than 64 ({c64}) on vecadd"
    );
}

/// §III-F async interconnect: a self-timed ICN at average-case hop delay
/// beats the clocked ICN on memory-bound code; results stay correct and
/// deterministic even with data-dependent hop jitter. (The continuous
/// delays exercise the discrete-event core's non-clocked time base.)
#[test]
fn async_icn_faster_and_deterministic() {
    use xmtsim::config::IcnTiming;
    let opts = Options::default();
    let run = |timing: IcnTiming| {
        let mut cfg = XmtConfig::fpga64();
        cfg.icn_timing = timing;
        let w = suite::vecadd(1024, 9, Variant::Parallel, &opts).unwrap();
        let r = w.run_and_verify(&cfg).unwrap();
        r.time_ps
    };
    let sync = run(IcnTiming::Synchronous);
    let fast_async = run(IcnTiming::Asynchronous { hop_ps: 650, jitter_ps: 0 });
    assert!(
        fast_async < sync,
        "average-case async ICN ({fast_async} ps) beats clocked ({sync} ps)"
    );
    let j1 = run(IcnTiming::Asynchronous { hop_ps: 500, jitter_ps: 300 });
    let j2 = run(IcnTiming::Asynchronous { hop_ps: 500, jitter_ps: 300 });
    assert_eq!(j1, j2, "data-dependent jitter is deterministic");
}

/// Read-only cache ablation (§IV-C: the compiler support the paper lists
/// as planned — implemented here behind `Options::ro_cache_const`): a
/// kernel where every thread scans one shared `const` array stops
/// hammering the shared cache modules once the loads go through the
/// cluster read-only caches.
#[test]
fn ro_cache_fixes_shared_scan_hotspot() {
    let src = "
        const int T[64]; int OUT[256]; int N = 256;
        void main() {
            spawn(0, N - 1) {
                int s = 0;
                for (int k = 0; k < 64; k++) { s += T[k]; }
                OUT[$] = s + $;
            }
        }
    ";
    let run = |ro: bool| {
        let mut opts = Options::default();
        opts.ro_cache_const = ro;
        let mut compiled = xmt_core::Toolchain::with_options(opts).compile(src).unwrap();
        let vals: Vec<i32> = (0..64).map(|k| k * 3 - 50).collect();
        compiled.set_global_ints("T", &vals).unwrap();
        let mut sim = compiled.simulator(&XmtConfig::fpga64());
        let r = sim.run().unwrap();
        let want: i32 = vals.iter().sum();
        let out = sim
            .machine
            .read_symbol(sim.executable(), "OUT", 4)
            .unwrap()
            .iter()
            .map(|&w| w as i32)
            .collect::<Vec<_>>();
        assert_eq!(out, vec![want, want + 1, want + 2, want + 3]);
        (r.cycles, sim.stats.ro_hits, sim.stats.icn_packages)
    };
    let (base_cycles, base_ro, base_icn) = run(false);
    let (ro_cycles, ro_hits, ro_icn) = run(true);
    assert_eq!(base_ro, 0);
    assert!(ro_hits > 10_000, "RO caches served the scans: {ro_hits}");
    assert!(
        ro_icn < base_icn / 2,
        "ICN traffic collapses with RO caches: {ro_icn} vs {base_icn}"
    );
    assert!(
        ro_cycles < base_cycles,
        "RO caches cut cycles: {ro_cycles} vs {base_cycles}"
    );
}
