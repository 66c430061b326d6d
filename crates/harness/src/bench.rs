//! In-tree micro-benchmark runner, replacing `criterion`.
//!
//! Benches are plain `fn main()` binaries (`harness = false`). A
//! [`BenchGroup`] runs each registered function for a warmup period plus
//! N timed iterations, reports median and MAD (median absolute
//! deviation — robust against scheduler noise, same motivation as
//! criterion's outlier handling) to stderr, and writes one machine-
//! readable `BENCH_<group>.json` file so successive runs can be diffed.
//!
//! Output directory: `$XMT_BENCH_DIR`, defaulting to `target/bench`.

use crate::json::Json;
use std::time::{Duration, Instant};

/// Result of one benchmark: timings for `iters` runs of the closure.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: String,
    pub iters: u32,
    pub median_ns: u64,
    pub mad_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Optional throughput denominator (e.g. instructions executed per
    /// iteration); lets the report show elements/second like criterion's
    /// `Throughput::Elements`.
    pub elements: Option<u64>,
}

impl BenchResult {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("iters".to_string(), Json::U(self.iters as u64)),
            ("median_ns".to_string(), Json::U(self.median_ns)),
            ("mad_ns".to_string(), Json::U(self.mad_ns)),
            ("min_ns".to_string(), Json::U(self.min_ns)),
            ("max_ns".to_string(), Json::U(self.max_ns)),
        ];
        if let Some(e) = self.elements {
            members.push(("elements".to_string(), Json::U(e)));
            if self.median_ns > 0 {
                let eps = e as f64 * 1e9 / self.median_ns as f64;
                members.push(("elements_per_sec".to_string(), Json::F(eps)));
            }
        }
        Json::Obj(members)
    }
}

/// A named group of benchmarks; dropping it (or calling [`finish`]) writes
/// `BENCH_<group>.json`.
///
/// [`finish`]: BenchGroup::finish
pub struct BenchGroup {
    name: String,
    sample_size: u32,
    warmup: Duration,
    throughput: Option<u64>,
    results: Vec<BenchResult>,
    finished: bool,
}

impl BenchGroup {
    /// A group with criterion-like defaults (100 samples, 300 ms warmup).
    pub fn new(name: &str) -> Self {
        BenchGroup {
            name: name.to_string(),
            sample_size: 100,
            warmup: Duration::from_millis(300),
            throughput: None,
            results: Vec::new(),
            finished: false,
        }
    }

    /// Set the number of timed iterations per bench (criterion's
    /// `sample_size`).
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the throughput denominator for subsequent benches
    /// (criterion's `Throughput::Elements`).
    pub fn throughput_elements(&mut self, elements: u64) -> &mut Self {
        self.throughput = Some(elements);
        self
    }

    /// Run one benchmark. The closure's return value is passed through
    /// [`black_box`] so the computation cannot be optimised away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> &mut Self {
        // Warmup: run until the budget is spent (at least once).
        let warm_start = Instant::now();
        loop {
            black_box(f());
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }

        let mut samples_ns: Vec<u64> = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            samples_ns.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        samples_ns.sort_unstable();
        let median = samples_ns[samples_ns.len() / 2];
        let mut dev: Vec<u64> = samples_ns.iter().map(|&s| s.abs_diff(median)).collect();
        dev.sort_unstable();
        let mad = dev[dev.len() / 2];

        let result = BenchResult {
            name: name.to_string(),
            iters: self.sample_size,
            median_ns: median,
            mad_ns: mad,
            min_ns: samples_ns[0],
            max_ns: *samples_ns.last().unwrap(),
            elements: self.throughput,
        };
        let rate = result
            .elements
            .filter(|_| median > 0)
            .map(|e| format!("  ({:.1} Melem/s)", e as f64 * 1e3 / median as f64))
            .unwrap_or_default();
        eprintln!(
            "bench {}/{name}: median {:.3} ms ± {:.3} ms MAD over {} iters{rate}",
            self.name,
            median as f64 / 1e6,
            mad as f64 / 1e6,
            self.sample_size,
        );
        self.results.push(result);
        self
    }

    /// Write `BENCH_<group>.json` into `$XMT_BENCH_DIR` (default
    /// `target/bench`) and return the path written.
    pub fn finish(&mut self) -> std::path::PathBuf {
        self.finished = true;
        let dir = std::env::var("XMT_BENCH_DIR").unwrap_or_else(|_| "target/bench".to_string());
        let dir = std::path::PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            panic!("cannot create bench dir {}: {e}", dir.display());
        }
        let json = Json::Obj(vec![
            ("group".to_string(), Json::Str(self.name.clone())),
            (
                "benches".to_string(),
                Json::Arr(self.results.iter().map(|r| r.to_json()).collect()),
            ),
        ]);
        let path = dir.join(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::write(&path, json.encode()) {
            panic!("cannot write {}: {e}", path.display());
        }
        eprintln!("bench {}: wrote {}", self.name, path.display());
        path
    }
}

impl Drop for BenchGroup {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            self.finish();
        }
    }
}

/// Opaque identity function that defeats constant folding, standing in
/// for `criterion::black_box` / `std::hint::black_box`.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_writes_json() {
        let dir = std::env::temp_dir().join("xmt_bench_test");
        std::env::set_var("XMT_BENCH_DIR", &dir);
        let mut g = BenchGroup::new("selftest");
        g.sample_size(5).throughput_elements(1000);
        g.bench("sum", || (0..1000u64).sum::<u64>());
        let path = g.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj[0].0, "group");
        let benches = match &obj[1].1 {
            Json::Arr(a) => a,
            other => panic!("benches not an array: {other:?}"),
        };
        assert_eq!(benches.len(), 1);
        let b = benches[0].as_obj().unwrap();
        assert!(b.iter().any(|(k, _)| k == "median_ns"));
        assert!(b.iter().any(|(k, _)| k == "elements_per_sec"));
        std::env::remove_var("XMT_BENCH_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
