//! Cross-crate tests of the simulator's studyability features (paper
//! §III-B/E): filter plug-ins, activity plug-ins with runtime control,
//! execution traces, and the floorplan visualization — all driven through
//! compiled XMTC programs.

use xmtc::Options;
use xmtsim::floorplan::Floorplan;
use xmtsim::stats::{ActivityPlugin, ActivitySample, MemHotspotFilter, RuntimeCtl};
use xmtsim::trace::{TraceLevel, Tracer};
use xmtsim::XmtConfig;
use xmt_core::Toolchain;

fn hotspot_program() -> xmt_core::Compiled {
    // Every virtual thread hammers H[0]; A is touched once per thread.
    let src = "
        int A[64]; int H[16]; int N = 64;
        void main() {
            spawn(0, N - 1) {
                int one = 1;
                psm(one, H[0]);
                A[$] = one;
            }
        }
    ";
    Toolchain::new().compile(src).unwrap()
}

#[test]
fn hotspot_filter_finds_the_contended_line() {
    let compiled = hotspot_program();
    let h_addr = compiled.memmap().lookup("H").unwrap().addr;
    let cfg = XmtConfig::fpga64();
    let mut sim = compiled.simulator(&cfg);
    sim.add_filter(Box::new(MemHotspotFilter::new(cfg.line_bytes, 3)));
    sim.run().unwrap();
    let report = sim.filter_reports().join("\n");
    let hot_line = h_addr & !(cfg.line_bytes - 1);
    assert!(
        report.contains(&format!("0x{hot_line:08x}")),
        "H[0]'s line must top the report:\n{report}"
    );
    // Typed readback agrees with the text report and carries PCs.
    let f = sim.filter_plugin::<MemHotspotFilter>().expect("filter is downcastable");
    let triples = f.hottest_with_pc();
    assert_eq!(triples[0].0, hot_line, "typed hottest address matches the report");
    assert!(triples[0].1 >= triples.last().unwrap().1, "sorted by access count");
}

#[test]
fn filter_plugin_downcast_misses_other_types() {
    struct Nop;
    impl xmtsim::stats::FilterPlugin for Nop {
        fn report(&self) -> String {
            String::new()
        }
    }
    let compiled = hotspot_program();
    let cfg = XmtConfig::fpga64();
    let mut sim = compiled.simulator(&cfg);
    sim.add_filter(Box::new(Nop)); // no as_any override => opaque
    assert!(sim.filter_plugin::<Nop>().is_none(), "default as_any hides the type");
    assert!(sim.filter_plugin::<MemHotspotFilter>().is_none());
}

#[test]
fn activity_plugin_sees_deltas_and_can_stop() {
    struct Watcher {
        samples: u32,
        saw_activity: bool,
    }
    impl ActivityPlugin for Watcher {
        fn sample(&mut self, s: &ActivitySample<'_>, ctl: &mut RuntimeCtl) {
            self.samples += 1;
            if s.delta.instructions > 0 {
                self.saw_activity = true;
            }
            if self.samples >= 3 {
                ctl.stop = true; // early stop through the control surface
            }
        }
        fn report(&self) -> String {
            format!("{} samples", self.samples)
        }
    }
    let src = "void main() { for (int i = 0; i < 100000; i++) { } }";
    let compiled = Toolchain::new().compile(src).unwrap();
    let mut sim = compiled.simulator(&XmtConfig::tiny());
    sim.add_activity(Box::new(Watcher { samples: 0, saw_activity: false }), 500);
    let summary = sim.run().unwrap();
    // Stopped by the plug-in long before the loop could finish.
    assert!(summary.cycles < 100_000);
    assert!(sim.activity_reports()[0].contains("3 samples"));
}

#[test]
fn tracer_records_tcu_and_master_activity() {
    let compiled = hotspot_program();
    let cfg = XmtConfig::tiny();
    let mut sim = compiled.simulator(&cfg);
    sim.attach_tracer(Tracer::new(TraceLevel::CycleAccurate).with_max_records(100_000));
    sim.run().unwrap();
    let tracer = sim.tracer.as_ref().unwrap();
    assert!(tracer.is_time_ordered());
    let text = tracer.to_text();
    assert!(text.contains("master"), "master issues traced");
    assert!(text.contains("tcu"), "TCU issues traced");
    assert!(text.contains("service"), "package service traced");
    assert!(text.contains("complete"), "package completion traced");
}

#[test]
fn tracer_filters_by_tcu() {
    let compiled = hotspot_program();
    let mut sim = compiled.simulator(&XmtConfig::tiny());
    sim.attach_tracer(Tracer::new(TraceLevel::Functional).with_tcus([1]));
    sim.run().unwrap();
    let text = sim.tracer.as_ref().unwrap().to_text();
    assert!(text.contains("tcu0001"));
    assert!(!text.contains("tcu0002"));
    assert!(!text.contains("tcu0000"));
}

#[test]
fn floorplan_renders_per_cluster_instruction_heatmap() {
    let compiled = hotspot_program();
    let cfg = XmtConfig::fpga64();
    let mut sim = compiled.simulator(&cfg);
    sim.run().unwrap();
    let values: Vec<f64> = sim.stats.per_cluster.iter().map(|&c| c as f64).collect();
    let plan = Floorplan::square(values.len());
    let map = plan.heatmap(&values);
    assert_eq!(map.lines().count(), 3); // 8 clusters → 3×3-ish grid
    let table = plan.table("instructions per cluster", &values);
    assert!(table.contains("C7"));
    // All clusters did work on a 64-thread spawn over 64 TCUs.
    assert!(values.iter().all(|&v| v > 0.0));
}

#[test]
fn dvfs_plugin_changes_simulated_timing_end_to_end() {
    struct Throttle(bool);
    impl ActivityPlugin for Throttle {
        fn sample(&mut self, _s: &ActivitySample<'_>, ctl: &mut RuntimeCtl) {
            if !self.0 {
                self.0 = true;
                ctl.scale_frequency(xmtsim::config::ClockDomain::Cluster, 0.25);
            }
        }
    }
    let src = "int A[512]; void main() { spawn(0, 511) { A[$] = $; } for (int i = 0; i < 3000; i++) { } }";
    let compiled = Toolchain::with_options(Options::default()).compile(src).unwrap();

    let base = compiled.simulator(&XmtConfig::tiny()).run().unwrap();
    let mut throttled_sim = compiled.simulator(&XmtConfig::tiny());
    throttled_sim.add_activity(Box::new(Throttle(false)), 200);
    let throttled = throttled_sim.run().unwrap();

    assert_eq!(base.instructions, throttled.instructions);
    assert!(
        throttled.time_ps > base.time_ps * 2,
        "quartered clock must slow the wall-clock: {} vs {}",
        throttled.time_ps,
        base.time_ps
    );
}

/// The event list's own counters, read through the host profile: the
/// traffic the lane design was built for is the traffic it gets. On the
/// default 1000 ps clocks about one 1024 ps page in 42 holds two
/// timestamps; only there can a group be a strict prefix of its lane,
/// and only there can arrivals out of time order make a lane need its
/// sort — both stay a few per cent of the groups drained.
#[test]
fn event_list_counters_confirm_the_lane_premise() {
    use xmt_workloads::suite::{self, Variant};
    let opts = Options::default();
    let kernels = [
        suite::bfs(300, 1200, 7, Variant::Parallel, &opts).unwrap().compiled,
        suite::fft(256, 3, Variant::Parallel, &opts).unwrap().compiled,
    ];
    for compiled in &kernels {
        for cfg in [XmtConfig::fpga64(), XmtConfig::chip1024()] {
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            let summary = sim.run().unwrap();
            let c = sim.host_profile().unwrap().sched;
            assert!(c.groups > 1000 && c.groups <= summary.events, "{c:?}");
            assert!(c.partial_groups * 20 < c.groups, "partial groups are not rare: {c:?}");
            assert!(c.lane_sorts <= c.partial_groups, "a sort without a second timestamp: {c:?}");
            assert!(c.max_pending >= 64 && c.chunks_allocated > 0, "{c:?}");
            // The same numbers reach the metrics registry.
            let reg = sim.metrics_registry();
            for row in ["groups", "partial_groups", "lane_sorts", "overflow_events", "max_pending"] {
                assert!(reg.get(&format!("host.sched.{row}")).is_some(), "host.sched.{row}");
            }
        }
    }
}

/// The fallback is exercised, not assumed: self-timed switches with
/// jitter spread timestamps over the pages and a DVFS retune re-times
/// legs in flight, so lanes do get sorted — and the run still equals the
/// per-hop oracle's in every observable.
#[test]
fn sorted_lanes_still_match_the_per_hop_oracle() {
    use xmt_workloads::suite::{self, Variant};
    use xmtsim::config::{ClockDomain, IcnTiming};
    use xmtsim::IcnModel;
    struct Retune(u32);
    impl ActivityPlugin for Retune {
        fn sample(&mut self, _s: &ActivitySample<'_>, ctl: &mut RuntimeCtl) {
            self.0 += 1;
            if self.0 == 3 {
                ctl.scale_frequency(ClockDomain::Icn, 0.7);
            }
        }
    }
    let compiled = suite::bfs(300, 1200, 7, Variant::Parallel, &Options::default()).unwrap().compiled;
    let run = |icn_model| {
        let mut cfg = XmtConfig::fpga64();
        cfg.icn_model = icn_model;
        cfg.icn_timing = IcnTiming::Asynchronous { hop_ps: 700, jitter_ps: 450 };
        let mut sim = compiled.simulator(&cfg);
        sim.enable_host_profiling();
        sim.add_activity(Box::new(Retune(0)), 500);
        let summary = sim.run().unwrap();
        let sorts = sim.host_profile().unwrap().sched.lane_sorts;
        (summary.cycles, summary.time_ps, sim.stats.clone(), sim.machine.clone(), sorts)
    };
    let express = run(IcnModel::Express);
    let per_hop = run(IcnModel::PerHop);
    assert!(express.4 > 0 && per_hop.4 > 0, "no lane was ever sorted: {} / {}", express.4, per_hop.4);
    assert_eq!((express.0, express.1), (per_hop.0, per_hop.1), "cycles / time");
    assert!(express.2 == per_hop.2, "statistics differ");
    assert!(express.3 == per_hop.3, "final machine state differs");
}

/// The master's burst, verified instead of guessed (DESIGN §15): a serial
/// program on the default models sends no round trip through the event
/// list and runs in bursts hundreds of instructions long; the
/// per-instruction oracle walks none on the stack; and a sampling tick
/// every 200 cycles — some three DRAM round trips — makes events of the
/// trips it lands in while the results stay the oracle's.
#[test]
fn master_round_trips_are_walked_on_the_stack() {
    use xmt_workloads::suite::{self, Variant};
    use xmtsim::IssueModel;
    struct Tick;
    impl ActivityPlugin for Tick {
        fn sample(&mut self, _s: &ActivitySample<'_>, _ctl: &mut RuntimeCtl) {}
    }
    let opts = Options::default();
    let kernels = [
        suite::bfs(300, 1200, 7, Variant::Serial, &opts).unwrap().compiled,
        suite::matmul(16, 3, Variant::Serial, &opts).unwrap().compiled,
    ];
    for compiled in &kernels {
        let run = |issue_model, sample: Option<u64>| {
            let mut cfg = XmtConfig::fpga64();
            cfg.issue_model = issue_model;
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            if let Some(cycles) = sample {
                sim.add_activity(Box::new(Tick), cycles);
            }
            let s = sim.run().unwrap();
            let hp = sim.host_profile().unwrap().clone();
            // The same numbers reach the metrics registry.
            let reg = sim.metrics_registry();
            for (row, n) in [("inline", hp.master_inline_trips), ("event", hp.master_event_trips)] {
                let row = reg.get(&format!("host.issue.master_{row}_trips")).expect("row exported");
                assert_eq!(row.value, xmtsim::obs::MetricValue::U(n));
            }
            (hp, (s.cycles, s.time_ps, sim.stats.clone(), sim.machine.clone()))
        };
        let (hp, _) = run(IssueModel::Burst, None);
        assert!(hp.master_inline_trips > 50, "{hp:?}");
        assert_eq!(hp.master_event_trips, 0, "{hp:?}");
        assert!(hp.mean_burst_len() > 500.0, "mean burst {:.1}", hp.mean_burst_len());
        let (hp, _) = run(IssueModel::PerInstr, None);
        assert_eq!(hp.master_inline_trips, 0, "{hp:?}");
        assert!(hp.master_event_trips > 50, "{hp:?}");
        let (hp, sampled) = run(IssueModel::Burst, Some(200));
        assert!(hp.master_inline_trips > 0 && hp.master_event_trips > 0, "{hp:?}");
        let (_, oracle) = run(IssueModel::PerInstr, Some(200));
        assert!(sampled == oracle, "sampled burst run differs from the oracle's");
    }
}

/// The TCU side's folds, counted instead of guessed (DESIGN §16): on
/// `chip1024` defaults every return leg of a TCU package ends in its
/// completion (the master's trips are walked on the stack), blocking
/// completions run their TCU's step and steps continue past non-blocking
/// issues; the per-hop network folds no leg and per-instruction issue
/// continues no step; the event books against per-instruction issue
/// balance; and a sampling tick every 2 cycles, shorter than any
/// leg, clips the folds away while the results stay the oracle's.
#[test]
fn tcu_folds_are_counted_and_clip_at_samples() {
    use xmt_workloads::suite::{self, Variant};
    use xmtsim::{IcnModel, IssueModel};
    struct Tick;
    impl ActivityPlugin for Tick {
        fn sample(&mut self, _s: &ActivitySample<'_>, _ctl: &mut RuntimeCtl) {}
    }
    let opts = Options::default();
    let kernels = [
        suite::bfs(300, 1200, 7, Variant::Parallel, &opts).unwrap().compiled,
        suite::histogram(2000, 16, 7, Variant::Parallel, &opts).unwrap().compiled,
    ];
    let (mut continued, mut continued_sampled) = (0, 0);
    for compiled in &kernels {
        let run = |issue_model, icn_model, sample: Option<u64>| {
            let mut cfg = XmtConfig::chip1024();
            (cfg.issue_model, cfg.icn_model) = (issue_model, icn_model);
            let mut sim = compiled.simulator(&cfg);
            sim.enable_host_profiling();
            if let Some(cycles) = sample {
                sim.add_activity(Box::new(Tick), cycles);
            }
            let s = sim.run().unwrap();
            let hp = sim.host_profile().unwrap().clone();
            // The same numbers reach the metrics registry.
            let reg = sim.metrics_registry();
            for (row, n) in [
                ("mem.legs_folded", hp.legs_folded),
                ("issue.completions_continued", hp.completions_continued),
                ("issue.issues_continued", hp.issues_continued),
                ("issue.tcu_break_mem", hp.tcu_break_cause[0]),
                ("spawn.first_rounds", hp.first_rounds),
                ("spawn.idle_parked", hp.idle_parked),
            ] {
                let row = reg.get(&format!("host.{row}")).expect("row exported");
                assert_eq!(row.value, xmtsim::obs::MetricValue::U(n));
            }
            (hp, s.events, (s.cycles, s.time_ps, sim.stats.clone(), sim.machine.clone()))
        };
        let (hp, events, _) = run(IssueModel::Burst, IcnModel::Express, None);
        assert!(hp.legs_folded > 100, "{hp:?}");
        assert_eq!(2 * (hp.legs_folded + hp.master_inline_trips), hp.express_legs, "{hp:?}");
        assert!(hp.completions_continued > 100, "{hp:?}");
        let breaks: u64 = hp.tcu_break_cause.iter().sum();
        assert!(breaks > 0 && breaks <= hp.burst_break_nonlocal, "{hp:?}");
        let (per_hop, _, _) = run(IssueModel::Burst, IcnModel::PerHop, None);
        assert_eq!(per_hop.legs_folded, 0, "{per_hop:?}");
        let (per_instr, per_instr_events, _) = run(IssueModel::PerInstr, IcnModel::Express, None);
        assert_eq!((per_instr.completions_continued, per_instr.issues_continued), (0, 0));
        // Every elided event is on exactly one counter; a folded return leg
        // is one event fewer in either run.
        assert_eq!(
            per_instr_events + per_instr.legs_folded - (events + hp.legs_folded),
            hp.burst_instrs - hp.bursts
                + hp.completions_continued
                + hp.issues_continued
                + 4 * hp.master_inline_trips
                + hp.first_rounds
                + hp.idle_parked,
            "event books out of balance"
        );
        let (sampled, _, result) = run(IssueModel::Burst, IcnModel::Express, Some(2));
        assert!(sampled.legs_folded < hp.legs_folded, "{sampled:?}");
        assert!(sampled.issues_continued <= hp.issues_continued, "{sampled:?}");
        let (_, _, oracle) = run(IssueModel::PerInstr, IcnModel::PerHop, Some(2));
        assert!(result == oracle, "sampled burst × express run differs from the oracle's");
        continued += hp.issues_continued;
        continued_sampled += sampled.issues_continued;
    }
    // `bfs` stores with `swnb` and carries on; `histogram` fences its `psm`s.
    assert!(continued > 0 && continued_sampled < continued, "{continued} / {continued_sampled}");
}

/// A section costs what its threads do (DESIGN §17): a two-section,
/// 14-thread program takes as many events on the 1 024-TCU chip as on
/// the 64-TCU FPGA, because a TCU that gets no thread parks inside the
/// section's first allocation round, without an event. Per-instruction
/// issue steps every TCU through its `ps` and `chkid`, so there the
/// chip costs far more.
#[test]
fn section_events_do_not_grow_with_machine_width() {
    use xmtsim::IssueModel;
    let src = "int A[14]; int B[14];
        void main() {
            spawn(0, 13) { A[$] = 3 * $; }
            spawn(0, 13) { B[$] = A[13 - $] + 1; }
        }";
    let compiled = Toolchain::new().compile(src).unwrap();
    let run = |mut cfg: XmtConfig, issue_model| {
        cfg.issue_model = issue_model;
        let mut sim = compiled.simulator(&cfg);
        sim.enable_host_profiling();
        let s = sim.run().unwrap();
        (s.events, sim.host_profile().unwrap().clone())
    };
    let (fpga, hf) = run(XmtConfig::fpga64(), IssueModel::Burst);
    let (chip, hc) = run(XmtConfig::chip1024(), IssueModel::Burst);
    eprintln!("events: fpga64 {fpga}, chip1024 {chip}");
    assert_eq!(fpga, chip, "host cost grew with machine width");
    assert_eq!((hf.first_rounds, hf.idle_parked), (2 * 64, 2 * (64 - 14)), "{hf:?}");
    assert_eq!((hc.first_rounds, hc.idle_parked), (2 * 1024, 2 * (1024 - 14)), "{hc:?}");
    let (per_instr, _) = run(XmtConfig::chip1024(), IssueModel::PerInstr);
    assert!(per_instr > 20 * chip, "per-instruction issue: {per_instr} events");
}
