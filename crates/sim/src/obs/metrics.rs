//! Structured metrics registry (`metrics.json` sidecar schema).
//!
//! One named, ordered, machine-readable schema over everything the
//! toolchain previously reported through one-off printouts: the built-in
//! [`Stats`] counters, the host-time [`HostProfile`], and the
//! decode/burst/express acceleration counters. The same registry backs
//! the `xmtsim-cli --metrics-out` sidecar and the `icn_profile --json`
//! bench output, so every consumer reads one format.
//!
//! Schema (`xmtsim.metrics.v1`):
//!
//! ```json
//! {"schema": "xmtsim.metrics.v1",
//!  "metrics": [
//!    {"name": "sim.cycles", "kind": "counter", "value": 12034},
//!    {"name": "host.memory_fraction", "kind": "gauge", "value": 0.61},
//!    {"name": "host.burst_len_hist", "kind": "histogram", "value": [0,1,5]}
//!  ]}
//! ```
//!
//! `counter` values are exact `u64`, `gauge` values are `f64`, and
//! `histogram` values are bucket vectors. Members keep insertion order
//! (the harness JSON encoder is deterministic), so two runs of the same
//! build diff cleanly.

use crate::cycle::{HostProfile, RunSummary};
use crate::exec::NONLOCAL_CAUSES;
use crate::stats::Stats;
use xmt_harness::json::json_field;
use xmt_harness::{FromJson, Json, JsonError, ToJson};

/// Metric kinds of the `xmtsim.metrics.v1` schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count (exact integer).
    Counter,
    /// Point-in-time measurement (floating point).
    Gauge,
    /// Bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A metric's value, typed by its kind.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    U(u64),
    F(f64),
    Hist(Vec<u64>),
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub kind: MetricKind,
    pub value: MetricValue,
}

impl ToJson for Metric {
    fn to_json(&self) -> Json {
        let value = match &self.value {
            MetricValue::U(v) => Json::U(*v),
            MetricValue::F(v) => Json::F(*v),
            MetricValue::Hist(v) => Json::Arr(v.iter().map(|&b| Json::U(b)).collect()),
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("value".into(), value),
        ])
    }
}

impl FromJson for Metric {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let members = json.as_obj()?;
        let name: String = json_field(members, "name")?;
        let kind: String = json_field(members, "kind")?;
        let value = members
            .iter()
            .find(|(k, _)| k == "value")
            .map(|(_, v)| v)
            .ok_or_else(|| JsonError::new("metric missing `value`"))?;
        let (kind, value) = match kind.as_str() {
            "counter" => (MetricKind::Counter, MetricValue::U(u64::from_json(value)?)),
            "gauge" => (MetricKind::Gauge, MetricValue::F(f64::from_json(value)?)),
            "histogram" => (
                MetricKind::Histogram,
                MetricValue::Hist(Vec::<u64>::from_json(value)?),
            ),
            other => return Err(JsonError::new(format!("unknown metric kind `{other}`"))),
        };
        Ok(Metric { name, kind, value })
    }
}

/// The schema identifier every registry dump carries.
pub const METRICS_SCHEMA: &str = "xmtsim.metrics.v1";

/// An ordered collection of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    pub metrics: Vec<Metric>,
}

impl ToJson for MetricsRegistry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str(METRICS_SCHEMA.into())),
            (
                "metrics".into(),
                Json::Arr(self.metrics.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for MetricsRegistry {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let members = json.as_obj()?;
        let schema: String = json_field(members, "schema")?;
        if schema != METRICS_SCHEMA {
            return Err(JsonError::new(format!("unknown metrics schema `{schema}`")));
        }
        Ok(MetricsRegistry {
            metrics: json_field(members, "metrics")?,
        })
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an exact-integer counter.
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Counter,
            value: MetricValue::U(value),
        });
    }

    /// Append a floating-point gauge. Non-finite values are recorded as
    /// `0.0` (the harness encoder rejects NaN/inf by design).
    pub fn gauge(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Gauge,
            value: MetricValue::F(if value.is_finite() { value } else { 0.0 }),
        });
    }

    /// Append a bucketed histogram.
    pub fn histogram(&mut self, name: impl Into<String>, buckets: impl Into<Vec<u64>>) {
        self.metrics.push(Metric {
            name: name.into(),
            kind: MetricKind::Histogram,
            value: MetricValue::Hist(buckets.into()),
        });
    }

    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The architectural-side metrics of a finished (or paused) run:
    /// the run summary plus every built-in [`Stats`] counter, under the
    /// `sim.` prefix.
    pub fn add_run(&mut self, summary: &RunSummary, stats: &Stats) {
        self.counter("sim.cycles", summary.cycles);
        self.counter("sim.time_ps", summary.time_ps);
        self.counter("sim.instructions", summary.instructions);
        self.counter("sim.events", summary.events);
        self.counter("sim.master_instructions", stats.master_instructions);
        self.counter("sim.tcu_instructions", stats.tcu_instructions);
        self.histogram("sim.instructions_by_fu", stats.by_fu.to_vec());
        self.histogram("sim.instructions_per_cluster", stats.per_cluster.clone());
        self.counter("sim.spawns", stats.spawns);
        self.counter("sim.virtual_threads", stats.virtual_threads);
        self.histogram("sim.module_accesses", stats.module_accesses.clone());
        self.counter("sim.cache_hits", stats.cache_hits);
        self.counter("sim.cache_misses", stats.cache_misses);
        self.counter("sim.master_hits", stats.master_hits);
        self.counter("sim.master_misses", stats.master_misses);
        self.counter("sim.ro_hits", stats.ro_hits);
        self.counter("sim.ro_misses", stats.ro_misses);
        self.counter("sim.prefetch_hits", stats.prefetch_hits);
        self.counter("sim.prefetches", stats.prefetches);
        self.counter("sim.dram_accesses", stats.dram_accesses);
        self.counter("sim.icn_packages", stats.icn_packages);
        self.counter("sim.psm_ops", stats.psm_ops);
        self.counter("sim.ps_ops", stats.ps_ops);
        self.counter("sim.mem_wait_ps", stats.mem_wait_ps);
        self.counter("sim.fence_wait_ps", stats.fence_wait_ps);
    }

    /// The host-side metrics of a profiled run: event-handling time per
    /// component class plus the burst/express/decode acceleration
    /// counters, under the `host.` prefix.
    pub fn add_host_profile(&mut self, hp: &HostProfile) {
        self.gauge("host.compute_s", hp.compute_s);
        self.gauge("host.memory_s", hp.memory_s);
        self.gauge("host.other_s", hp.other_s);
        self.gauge("host.sched_s", hp.sched_s);
        self.counter("host.sched.groups", hp.sched.groups);
        self.counter("host.sched.partial_groups", hp.sched.partial_groups);
        self.counter("host.sched.lane_sorts", hp.sched.lane_sorts);
        self.counter("host.sched.overflow_events", hp.sched.overflow_events);
        self.counter("host.sched.max_pending", hp.sched.max_pending);
        self.counter("host.sched.chunks_allocated", hp.sched.chunks_allocated);
        self.gauge("host.memory_fraction", hp.memory_fraction());
        self.counter("host.compute_events", hp.compute_events);
        self.counter("host.memory_events", hp.memory_events);
        self.counter("host.other_events", hp.other_events);
        self.counter("host.express_legs", hp.express_legs);
        self.counter("host.hops_elided", hp.hops_elided);
        self.counter("host.bursts", hp.bursts);
        self.counter("host.burst_instrs", hp.burst_instrs);
        self.gauge("host.mean_burst_len", hp.mean_burst_len());
        self.counter("host.burst_break_nonlocal", hp.burst_break_nonlocal);
        self.counter("host.burst_break_sample", hp.burst_break_sample);
        self.counter("host.burst_break_boundary", hp.burst_break_boundary);
        self.counter("host.burst_break_cap", hp.burst_break_cap);
        self.counter("host.issue.burst_break_miss", hp.burst_break_miss);
        self.counter("host.issue.burst_break_spawn", hp.burst_break_spawn);
        self.counter("host.issue.master_inline_trips", hp.master_inline_trips);
        self.counter("host.issue.master_event_trips", hp.master_event_trips);
        self.counter("host.issue.completions_continued", hp.completions_continued);
        self.counter("host.issue.issues_continued", hp.issues_continued);
        for (name, n) in NONLOCAL_CAUSES.iter().zip(hp.tcu_break_cause) {
            self.counter(&format!("host.issue.tcu_break_{name}"), n);
        }
        self.counter("host.mem.legs_folded", hp.legs_folded);
        self.counter("host.spawn.first_rounds", hp.first_rounds);
        self.counter("host.spawn.idle_parked", hp.idle_parked);
        self.histogram("host.burst_len_hist", hp.burst_len_hist.to_vec());
        self.counter("host.blocks_decoded", hp.blocks_decoded);
        self.counter("host.block_replays", hp.block_replays);
        self.counter("host.replay_instrs", hp.replay_instrs);
        self.counter("host.fusions", hp.fusions);
        self.counter("host.decode_invalidations", hp.decode_invalidations);
    }

    /// Build the full registry for one run.
    pub fn for_run(summary: &RunSummary, stats: &Stats, hp: Option<&HostProfile>) -> Self {
        let mut reg = MetricsRegistry::new();
        reg.add_run(summary, stats);
        if let Some(hp) = hp {
            reg.add_host_profile(hp);
        }
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_through_json() {
        let mut reg = MetricsRegistry::new();
        reg.counter("sim.cycles", u64::MAX); // exact, no f64 detour
        reg.gauge("host.memory_fraction", 0.625);
        reg.histogram("host.burst_len_hist", vec![1, 2, 3]);
        let text = reg.to_json_string();
        assert!(text.contains(METRICS_SCHEMA));
        let back = MetricsRegistry::from_json_str(&text).unwrap();
        assert_eq!(back, reg);
        assert_eq!(
            back.get("sim.cycles").unwrap().value,
            MetricValue::U(u64::MAX)
        );
    }

    #[test]
    fn unknown_schema_and_kind_are_rejected() {
        let bad = r#"{"schema":"other.v9","metrics":[]}"#;
        assert!(MetricsRegistry::from_json_str(bad).is_err());
        let bad = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","metrics":[{{"name":"x","kind":"meter","value":1}}]}}"#
        );
        assert!(MetricsRegistry::from_json_str(&bad).is_err());
    }

    #[test]
    fn non_finite_gauges_are_sanitized() {
        let mut reg = MetricsRegistry::new();
        reg.gauge("g", f64::NAN);
        assert_eq!(reg.get("g").unwrap().value, MetricValue::F(0.0));
        // Must encode without panicking.
        let _ = reg.to_json_string();
    }
}
