//! Span recorder for the traced run.
//!
//! Spans are recorded only here in the benchmark, around calls into each
//! layer's public functions; they stay in memory and are written out as
//! Chrome `trace_event` JSON (one event per line) when the run ends. A
//! span names the layer call, the program it served (`req`, shared by
//! all spans of one program) and the span that caused it (`parent`).

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `ROOT` is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    req: u32,
    parent: SpanId,
    start_us: f64,
    dur_us: f64,
}

/// In-memory span store. A disabled recorder still times (the untraced
/// pass needs the durations) but keeps nothing.
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, req: u32, parent: SpanId) -> (SpanId, Instant) {
        let now = Instant::now();
        if !self.enabled {
            return (ROOT, now);
        }
        self.spans.push(Span {
            name,
            req,
            parent,
            start_us: now.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        (self.spans.len() as SpanId - 1, now)
    }

    /// Close a span opened with [`Trace::open`]; returns its seconds.
    pub fn close(&mut self, (id, start): (SpanId, Instant)) -> f64 {
        let dt = start.elapsed().as_secs_f64();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.dur_us = dt * 1e6;
        }
        dt
    }

    /// Time `f` as one span; returns its result and its seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let h = self.open(name, req, parent);
        let out = f();
        (out, self.close(h))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of all spans whose name starts with `prefix`.
    pub fn total_s(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }

    /// Chrome `trace_event` JSON, one complete ("X") event per line so
    /// `merge` can splice files textually.
    pub fn to_chrome_json(&self, pid: u32, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{}}}}}",
                s.name, s.start_us, s.dur_us, s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Splice several files written by [`Trace::to_chrome_json`] into one.
pub fn merge(files: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for text in files {
        let body = text
            .strip_prefix("{\"traceEvents\":[\n")
            .and_then(|t| t.strip_suffix("\n]}\n"))
            .unwrap_or("");
        if body.is_empty() {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(body);
    }
    out.push_str("\n]}\n");
    out
}
