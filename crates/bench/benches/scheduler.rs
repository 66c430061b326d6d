//! Event-list cost on the E3 macro-actor mix: the two-level calendar
//! queue (`Scheduler`) vs the reference binary heap (`HeapScheduler`),
//! popping and rescheduling N ticker events per 1000 ps cycle — the same
//! workload as `BENCH_macro_actor.json`, with the actor dispatch stripped
//! away so only event-list traffic is measured. Writes
//! `BENCH_scheduler.json`; `calendar_batch/*` additionally drains whole
//! `(time, priority)` groups through `pop_cycle`, the way the cycle model
//! does. `model_mix/*` replays the traffic the cycle model really sends
//! (the E3 mix is one priority, in key order, 4-byte payloads — the
//! end-to-end rows did not follow it): 48-byte payloads, three
//! priorities per memory request pushed out of key order, groups of a
//! thousand on `chip1024` and groups of one on the Master TCU.

use xmt_harness::json::Json;
use xmt_harness::BenchGroup;
use xmtsim::engine::baseline::HeapScheduler;
use xmtsim::engine::{Scheduler, PRI_DEFAULT, PRI_NEGOTIATE, PRI_TRANSFER};

const CYCLES: u64 = 200;
const PERIOD_PS: u64 = 1000;

fn run_heap(n: usize) -> u64 {
    let mut s: HeapScheduler<u32> = HeapScheduler::new();
    for i in 0..n {
        s.schedule_at(0, PRI_DEFAULT, i as u32);
    }
    let mut work = 0u64;
    while let Some((t, id)) = s.pop() {
        work += 1;
        if t < CYCLES * PERIOD_PS {
            s.schedule_at(t + PERIOD_PS, PRI_DEFAULT, id);
        }
    }
    work
}

fn run_calendar(n: usize) -> u64 {
    let mut s: Scheduler<u32> = Scheduler::new();
    for i in 0..n {
        s.schedule_at(0, PRI_DEFAULT, i as u32);
    }
    let mut work = 0u64;
    while let Some((t, id)) = s.pop() {
        work += 1;
        if t < CYCLES * PERIOD_PS {
            s.schedule_at(t + PERIOD_PS, PRI_DEFAULT, id);
        }
    }
    work
}

fn run_calendar_batched(n: usize) -> u64 {
    let mut s: Scheduler<u32> = Scheduler::new();
    for i in 0..n {
        s.schedule_at(0, PRI_DEFAULT, i as u32);
    }
    let mut work = 0u64;
    let mut batch = Vec::new();
    while let Some((t, _pri)) = s.pop_cycle(&mut batch) {
        work += batch.len() as u64;
        if t < CYCLES * PERIOD_PS {
            for &id in &batch {
                s.schedule_at(t + PERIOD_PS, PRI_DEFAULT, id);
            }
        }
    }
    work
}

/// As large as the cycle model's event type.
type Payload = [u64; 6];

/// `requests` memory requests in every cycle: each is handled at
/// `PRI_DEFAULT` and sends one event to the negotiate phase 14 cycles
/// ahead, one to the transfer phase 3 ahead and its own successor 15
/// ahead — later keys before earlier ones, as the handlers do.
fn run_model_mix(requests: usize) -> u64 {
    let mut s: Scheduler<Payload> = Scheduler::new();
    for cycle in 0..15 {
        for i in 0..requests {
            s.schedule_at(cycle * PERIOD_PS, PRI_DEFAULT, [i as u64; 6]);
        }
    }
    let mut work = 0u64;
    let mut batch = Vec::new();
    while let Some((t, pri)) = s.pop_cycle(&mut batch) {
        work += batch.len() as u64;
        if pri == PRI_DEFAULT && t < CYCLES * PERIOD_PS {
            for &ev in &batch {
                s.schedule_at(t + 14 * PERIOD_PS, PRI_NEGOTIATE, ev);
                s.schedule_at(t + 3 * PERIOD_PS, PRI_TRANSFER, ev);
                s.schedule_at(t + 15 * PERIOD_PS, PRI_DEFAULT, ev);
            }
        }
    }
    work
}

/// The Master TCU alone: one event in flight, the next 60 cycles on.
fn run_model_master() -> u64 {
    let mut s: Scheduler<Payload> = Scheduler::new();
    s.schedule_at(0, PRI_DEFAULT, [0; 6]);
    let mut work = 0u64;
    let mut batch = Vec::new();
    while let Some((t, _pri)) = s.pop_cycle(&mut batch) {
        work += 1;
        if t < MASTER_STEPS * 60 * PERIOD_PS {
            s.schedule_at(t + 60 * PERIOD_PS, PRI_DEFAULT, batch[0]);
        }
    }
    work
}

const MASTER_STEPS: u64 = 20_000;

/// Median of `<name>` in the written bench JSON.
fn median_of(benches: &[Json], name: &str) -> Option<u64> {
    benches.iter().find_map(|b| {
        let obj = b.as_obj().ok()?;
        let matches = obj
            .iter()
            .any(|(k, v)| k == "name" && matches!(v, Json::Str(s) if s == name));
        if !matches {
            return None;
        }
        // The parser returns `I` for values fitting i64, `U` beyond that.
        obj.iter().find_map(|(k, v)| match v {
            Json::U(u) if k == "median_ns" => Some(*u),
            Json::I(i) if k == "median_ns" && *i >= 0 => Some(*i as u64),
            _ => None,
        })
    })
}

fn main() {
    let mut group = BenchGroup::new("scheduler");
    group.sample_size(20);
    for n in [16usize, 128, 1024] {
        let events = (CYCLES + 1) * n as u64;
        group.throughput_elements(events);
        group.bench(&format!("heap/{n}"), || run_heap(n));
        group.bench(&format!("calendar/{n}"), || run_calendar(n));
        group.bench(&format!("calendar_batch/{n}"), || run_calendar_batched(n));
    }
    group.throughput_elements(run_model_mix(1024));
    group.bench("model_mix/chip1024", || run_model_mix(1024));
    group.throughput_elements(run_model_master());
    group.bench("model_mix/master", run_model_master);
    let path = group.finish();

    // Summarize the speedups from the file we just wrote, so the number
    // the acceptance gate cares about is visible in plain text.
    let text = std::fs::read_to_string(&path).expect("bench json readable");
    let parsed = Json::parse(&text).expect("bench json parses");
    let obj = parsed.as_obj().expect("bench json is an object");
    let benches = obj
        .iter()
        .find(|(k, _)| k == "benches")
        .and_then(|(_, v)| v.as_arr().ok())
        .expect("benches array");
    for n in [16usize, 128, 1024] {
        let heap = median_of(benches, &format!("heap/{n}"));
        let cal = median_of(benches, &format!("calendar/{n}"));
        let batch = median_of(benches, &format!("calendar_batch/{n}"));
        if let (Some(h), Some(c), Some(b)) = (heap, cal, batch) {
            eprintln!(
                "bench scheduler: n={n}: calendar {:.2}x, calendar+pop_cycle {:.2}x vs heap",
                h as f64 / c.max(1) as f64,
                h as f64 / b.max(1) as f64,
            );
        }
    }
}
