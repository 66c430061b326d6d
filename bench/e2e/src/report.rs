//! Metric values, the operation tally, and their JSON forms.

use xmt_harness::Json;

/// One named measurement. A host-time end-to-end metric is measured
/// once per repetition: `value` is what the benchmark reports (see
/// `pass::measure` for the estimator), `halves` is the same estimate
/// from the even and from the odd repetitions alone — how well it agrees
/// with itself — and `median` is the middle per-repetition value. A
/// per-layer metric is a single value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub halves: [f64; 2],
    pub median: f64,
    pub n: usize,
    /// A count or simulated quantity, which repeats exactly for a seed
    /// (host times and their ratios do not).
    pub exact: bool,
}

impl Metric {
    /// A single host-time measurement.
    pub fn one(name: &str, unit: &'static str, value: f64) -> Self {
        Metric::of(name, unit, [value; 3], &[value])
    }

    /// A count, or a ratio of counts.
    pub fn exact(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            exact: true,
            ..Metric::one(name, unit, value)
        }
    }

    /// `[value, even half, odd half]` beside the per-repetition
    /// `samples` (at least one).
    pub fn of(
        name: &str,
        unit: &'static str,
        [value, even, odd]: [f64; 3],
        samples: &[f64],
    ) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let median = (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0;
        Metric {
            name: name.to_string(),
            unit,
            value,
            halves: [even, odd],
            median,
            n: s.len(),
            exact: false,
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Operations attempted and failed. An operation is one program run
/// (cycle-accurate or functional) together with the check of its result.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(m) = outcome {
            self.fail(m);
        }
    }

    /// Count `n` operations that could not even start.
    pub fn lost(&mut self, n: usize, why: String) {
        self.attempted += n as u64;
        self.failed += n as u64 - 1;
        self.fail(why);
    }

    fn fail(&mut self, m: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(m);
        }
    }
}

/// `name → {value, unit}` for every metric, with the repetition detail
/// too when `full`.
fn members(metrics: &[Metric], full: bool) -> Json {
    let one = |m: &Metric| {
        let mut v = vec![
            ("value".to_string(), Json::F(m.value)),
            ("unit".into(), Json::Str(m.unit.into())),
        ];
        if full {
            v.extend([
                (
                    "halves".to_string(),
                    Json::Arr(m.halves.iter().map(|&h| Json::F(h)).collect()),
                ),
                ("median".into(), Json::F(m.median)),
                ("n".into(), Json::U(m.n as u64)),
                ("exact".into(), Json::Bool(m.exact)),
            ]);
        }
        (m.name.clone(), Json::Obj(v))
    };
    Json::Obj(metrics.iter().map(one).collect())
}

/// The result object the driver reads from the last line of stdout.
pub fn result_line(metrics: &[Metric], tally: &Tally) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0)),
        ("attempted".into(), Json::U(tally.attempted)),
        ("failed".into(), Json::U(tally.failed)),
        ("metrics".into(), members(metrics, false)),
    ])
    .encode()
}

/// The full record of one run (kept under `out/`, read by `compare`).
pub fn run_record(workload: &str, seed: u64, metrics: &[Metric], tally: &Tally) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), Json::U(seed)),
        ("attempted".into(), Json::U(tally.attempted)),
        ("failed".into(), Json::U(tally.failed)),
        ("metrics".into(), members(metrics, true)),
    ])
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
