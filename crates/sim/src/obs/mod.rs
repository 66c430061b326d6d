//! Observability layer: timeline export + metrics registry (§III-D/E).
//!
//! The paper's methodology hinges on *studying* the simulator — host-time
//! profiles and execution traces — and this module is the machine-readable
//! substrate for that: a [`Timeline`] recorder that exports Chrome
//! `trace_event` JSON (Perfetto / `chrome://tracing`), and a
//! [`MetricsRegistry`] that unifies [`Stats`](crate::stats::Stats),
//! [`HostProfile`](crate::cycle::HostProfile) and the decode/burst/express
//! counters behind one named schema.
//!
//! Design constraints, in priority order:
//!
//! 1. **Zero overhead when disabled.** [`CycleSim`](crate::cycle::CycleSim)
//!    holds `Option<Box<Obs>>`; with [`ObsDetail::Off`] nothing is
//!    allocated and every hook is one `Option` test — the same discipline
//!    `host_profile` already follows.
//! 2. **Equivalence-preserving when enabled.** Unlike
//!    [`Tracer`](crate::trace::Tracer) attachment and filter plug-ins —
//!    which deliberately degrade burst issue and decoded replay to get
//!    per-instruction visibility — the observability hooks sit at event
//!    *handler* boundaries that both issue models pass through
//!    identically. Enabling observability changes no cycle count,
//!    no simulated time, no statistic and no byte of the memory image;
//!    `differential::check_obs_transparent` and the 256-case `obs_diff`
//!    suite enforce this continuously.
//!
//! Track layout (see [`timeline`] for the pid/tid encoding):
//!
//! * simulated time (pid 1): parallel sections, DVFS epoch markers,
//!   periodic metric samples, per-cluster active-TCU counters, per-TCU
//!   occupancy spans, per-TCU ICN flight spans, per-module queue-depth
//!   counters;
//! * host time (pid 2, [`ObsDetail::Full`] only): scheduler `pop_cycle`
//!   windows, decode-cache replay markers.

pub mod metrics;
pub mod timeline;

pub use metrics::{Metric, MetricKind, MetricValue, MetricsRegistry, METRICS_SCHEMA};
pub use timeline::{Ph, TimeDomain, Timeline, TraceRecord};

use crate::config::{ObsDetail, XmtConfig};
use crate::engine::Time;
use crate::stats::Stats;
use std::time::Instant;

// Simulated-time track ids (pid 1). Public so external consumers of the
// exported trace can address tracks without parsing thread_name metadata.

/// Spawn/join section spans.
pub const TID_SECTIONS: u32 = 0;
/// DVFS epoch markers.
pub const TID_DVFS: u32 = 1;
/// Periodic metric-sample counters.
pub const TID_METRICS: u32 = 2;
/// Per-cluster active-TCU counters (`TID_CLUSTER0 + cluster`).
pub const TID_CLUSTER0: u32 = 100;
/// Per-TCU occupancy spans (`TID_TCU0 + tcu`).
pub const TID_TCU0: u32 = 10_000;
/// The Master TCU's ICN flight spans.
pub const TID_MASTER_MEM: u32 = 19_999;
/// Per-TCU ICN flight spans (`TID_TCU_MEM0 + tcu`).
pub const TID_TCU_MEM0: u32 = 20_000;
/// Per-cache-module queue-depth counters (`TID_MODULE0 + module`).
pub const TID_MODULE0: u32 = 40_000;

// Host-time track ids (pid 2).

/// Scheduler `pop_cycle` window spans.
pub const TID_SCHED: u32 = 0;
/// Decode-cache replay markers.
pub const TID_DECODE: u32 = 2;

/// Recorder state owned by a `CycleSim` (one per simulator).
#[derive(Debug, Clone)]
pub struct Obs {
    detail: ObsDetail,
    /// The span/counter recorder both halves feed.
    pub timeline: Timeline,
    /// Host-clock origin for host-domain timestamps.
    origin: Instant,
    /// Current active-TCU count per cluster (counter tracks).
    cluster_active: Vec<i64>,
    /// Activation time of each TCU's current occupancy span, if active.
    tcu_active_since: Vec<Option<Time>>,
    /// Current queue depth per cache module (counter tracks).
    module_queue: Vec<i64>,
}

impl Obs {
    /// A recorder for the given detail level and chip topology.
    pub fn new(detail: ObsDetail, cfg: &XmtConfig) -> Self {
        debug_assert_ne!(detail, ObsDetail::Off, "Off means no recorder at all");
        let mut timeline = Timeline::new();
        timeline.name_track(TimeDomain::Sim, TID_SECTIONS, "parallel sections");
        timeline.name_track(TimeDomain::Sim, TID_DVFS, "dvfs epochs");
        timeline.name_track(TimeDomain::Sim, TID_METRICS, "metric samples");
        if detail == ObsDetail::Full {
            timeline.name_track(TimeDomain::Host, TID_SCHED, "scheduler windows");
            timeline.name_track(TimeDomain::Host, TID_DECODE, "decode cache");
        }
        Obs {
            detail,
            timeline,
            origin: Instant::now(),
            cluster_active: vec![0; cfg.clusters as usize],
            tcu_active_since: vec![None; cfg.n_tcus() as usize],
            module_queue: vec![0; cfg.cache_modules as usize],
        }
    }

    /// The recording level.
    pub fn detail(&self) -> ObsDetail {
        self.detail
    }

    /// Whether host-time tracks are recorded.
    #[inline]
    pub fn host_detail(&self) -> bool {
        self.detail == ObsDetail::Full
    }

    /// Nanoseconds since the recorder was created (host domain).
    fn host_now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    // ----------------------------------------------------- sim-time hooks

    /// A TCU was activated for a parallel section: open its occupancy
    /// span and bump its cluster's active counter.
    pub fn tcu_activate(&mut self, now: Time, cluster: u32, tcu: u32) {
        let t = tcu as usize;
        if self.tcu_active_since[t].is_some() {
            return;
        }
        self.tcu_active_since[t] = Some(now);
        let c = cluster as usize;
        self.cluster_active[c] += 1;
        let tid = TID_CLUSTER0 + cluster;
        self.timeline
            .name_track(TimeDomain::Sim, tid, &format!("cluster {cluster} active TCUs"));
        self.timeline.counter(
            TimeDomain::Sim,
            tid,
            "active_tcus",
            "occupancy",
            now,
            self.cluster_active[c],
        );
    }

    /// A TCU parked (no thread left to grab): close its occupancy span.
    pub fn tcu_park(&mut self, now: Time, cluster: u32, tcu: u32) {
        let t = tcu as usize;
        let Some(since) = self.tcu_active_since[t].take() else {
            return;
        };
        let c = cluster as usize;
        self.cluster_active[c] -= 1;
        let tid = TID_TCU0 + tcu;
        self.timeline
            .name_track(TimeDomain::Sim, tid, &format!("tcu {tcu}"));
        self.timeline.span(
            TimeDomain::Sim,
            tid,
            "active",
            "occupancy",
            since,
            now.saturating_sub(since),
        );
        let ctid = TID_CLUSTER0 + cluster;
        self.timeline.counter(
            TimeDomain::Sim,
            ctid,
            "active_tcus",
            "occupancy",
            now,
            self.cluster_active[c],
        );
    }

    /// A parallel section closed: record its spawn→join span.
    pub fn spawn_section(&mut self, threads: u64, start: Time, end: Time) {
        self.timeline.span(
            TimeDomain::Sim,
            TID_SECTIONS,
            format!("spawn ×{threads}"),
            "spawn",
            start,
            end.saturating_sub(start),
        );
    }

    /// A memory package completed its request-network flight and arrived
    /// at cache module `m` (both ICN models funnel through here).
    pub fn mem_flight(&mut self, tcu: u32, master: bool, module: u32, pc: u32, issued_at: Time, now: Time) {
        let tid = if master {
            self.timeline
                .name_track(TimeDomain::Sim, TID_MASTER_MEM, "master icn");
            TID_MASTER_MEM
        } else {
            let tid = TID_TCU_MEM0 + tcu;
            self.timeline
                .name_track(TimeDomain::Sim, tid, &format!("tcu {tcu} icn"));
            tid
        };
        self.timeline.span(
            TimeDomain::Sim,
            tid,
            format!("→m{module} @{pc}"),
            "icn",
            issued_at,
            now.saturating_sub(issued_at),
        );
    }

    /// A request entered cache module `m`'s queue.
    pub fn module_enqueue(&mut self, m: u32, now: Time) {
        self.module_queue[m as usize] += 1;
        self.module_depth(m, now);
    }

    /// A request left cache module `m`'s queue (service point).
    pub fn module_dequeue(&mut self, m: u32, now: Time) {
        self.module_queue[m as usize] -= 1;
        self.module_depth(m, now);
    }

    fn module_depth(&mut self, m: u32, now: Time) {
        let tid = TID_MODULE0 + m;
        self.timeline
            .name_track(TimeDomain::Sim, tid, &format!("module {m} queue"));
        self.timeline.counter(
            TimeDomain::Sim,
            tid,
            "queue_depth",
            "cache",
            now,
            self.module_queue[m as usize],
        );
    }

    /// A DVFS epoch began (clock-domain periods changed).
    pub fn dvfs_epoch(&mut self, now: Time, periods: [u64; 4]) {
        self.timeline.instant(
            TimeDomain::Sim,
            TID_DVFS,
            format!(
                "periods cluster={} icn={} cache={} dram={} ps",
                periods[0], periods[1], periods[2], periods[3]
            ),
            "dvfs",
            now,
        );
    }

    /// A periodic sample tick: put headline counters on the timeline.
    pub fn sample_metrics(&mut self, now: Time, stats: &Stats) {
        for (name, v) in [
            ("instructions", stats.instructions),
            ("virtual_threads", stats.virtual_threads),
            ("cache_misses", stats.cache_misses),
            ("icn_packages", stats.icn_packages),
        ] {
            self.timeline
                .counter(TimeDomain::Sim, TID_METRICS, name, "metrics", now, v as i64);
        }
    }

    // ---------------------------------------------------- host-time hooks

    /// One scheduler `pop_cycle` drain took `dur`.
    pub fn sched_window(&mut self, dur: std::time::Duration) {
        let dur = dur.as_nanos() as u64;
        let end = self.host_now();
        self.timeline.span(
            TimeDomain::Host,
            TID_SCHED,
            "pop_cycle",
            "sched",
            end.saturating_sub(dur),
            dur,
        );
    }

    /// `n` decoded-block replays were committed.
    pub fn decode_replays(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        let now = self.host_now();
        self.timeline.instant(
            TimeDomain::Host,
            TID_DECODE,
            format!("replay ×{n}"),
            "decode",
            now,
        );
    }
}
