//! One pass over a workload through the toolchain facade, and the
//! untraced measurement that yields the end-to-end metrics.
//!
//! A pass is the closed loop of one client: for each program in turn,
//! compile and link the source, install the inputs, run it in functional
//! mode and cycle-accurately on each of the workload's machines, and
//! check every result; the next program starts when the previous one
//! has finished.

use crate::report::{peak_rss_mb, Metric, Tally};
use crate::trace::{SpanId, Trace, ROOT};
use crate::workloads::{self, Bench, Program, Reference};
use std::time::Instant;
use xmt_core::{Toolchain, ToolchainError};

/// What one pass did and how long each part took (host seconds).
#[derive(Debug, Default, Clone)]
pub struct PassSums {
    pub wall_s: f64,
    /// Per cycle-accurate run, in order: (cycles, instructions), and the
    /// seconds inside `Compiled::run` (simulator construction, the run,
    /// result extraction).
    pub run_ids: Vec<(u64, u64)>,
    pub run_s: Vec<f64>,
    /// Instructions of the functional runs.
    pub func_instr: u64,
    /// Per program, in order: compile + link seconds, seconds inside
    /// `Compiled::run_functional`, whole-trip seconds.
    pub compile_run_s: Vec<f64>,
    pub func_run_s: Vec<f64>,
    pub program_s: Vec<f64>,
}

impl PassSums {
    pub fn sim_s(&self) -> f64 {
        self.run_s.iter().sum()
    }
    pub fn func_s(&self) -> f64 {
        self.func_run_s.iter().sum()
    }
    pub fn sim_cycles(&self) -> u64 {
        self.run_ids.iter().map(|r| r.0).sum()
    }
    pub fn sim_instr(&self) -> u64 {
        self.run_ids.iter().map(|r| r.1).sum()
    }
}

/// Run one pass. With `trace` enabled each layer call is kept as a span.
pub fn pass(bench: &Bench, trace: &mut Trace, tally: &mut Tally) -> PassSums {
    let mut sums = PassSums::default();
    let start = Instant::now();
    for (i, p) in bench.programs.iter().enumerate() {
        let root = trace.open("program", i as u32, ROOT);
        if let Err(e) = run_program(bench, p, i as u32, root.0, trace, tally, &mut sums) {
            tally.lost(1 + bench.configs.len(), format!("{}: {e}", p.name));
        }
        sums.program_s.push(trace.close(root));
    }
    sums.wall_s = start.elapsed().as_secs_f64();
    sums
}

/// One program through the facade. `Err` means no run of it started.
fn run_program(
    bench: &Bench,
    p: &Program,
    req: u32,
    root: SpanId,
    trace: &mut Trace,
    tally: &mut Tally,
    sums: &mut PassSums,
) -> Result<(), ToolchainError> {
    let toolchain = Toolchain::with_options(p.options.clone());
    let (compiled, dt) = trace.span("core.compile", req, root, || toolchain.compile(&p.source));
    sums.compile_run_s.push(dt);
    let mut compiled = compiled?;
    trace
        .span("core.load", req, root, || {
            p.inputs
                .iter()
                .try_for_each(|(g, words)| compiled.set_global(g, words))
        })
        .0?;
    let (func, dt) = trace.span("functional.run", req, root, || compiled.run_functional());
    let func = func?;
    sums.func_run_s.push(dt);
    sums.func_instr += func.instructions;
    tally.op(trace
        .span("workloads.verify", req, root, || p.check(&func, &func))
        .0);
    for (_, cfg) in &bench.configs {
        let (r, dt) = trace.span("cycle.run", req, root, || compiled.run(cfg));
        tally.op(r.map_err(|e| format!("{}: {e}", p.name)).and_then(|r| {
            sums.run_ids.push((r.cycles, r.instructions));
            sums.run_s.push(dt);
            trace
                .span("workloads.verify", req, root, || p.check(&r, &func))
                .0
        }));
    }
    Ok(())
}

/// Compile and link every program of the workload once; seconds each.
fn compile_pass(bench: &Bench) -> Vec<f64> {
    bench
        .programs
        .iter()
        .map(|p| {
            let start = Instant::now();
            let _ =
                std::hint::black_box(Toolchain::with_options(p.options.clone()).compile(&p.source));
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// The time the work takes when nothing disturbs it: each item's
/// fastest sample over the repetitions, summed over the items.
///
/// The host is shared, and another tenant only ever slows a repetition
/// down, for milliseconds or for seconds at a time. A median over ten
/// one-second repetitions moved by 10–20 % between runs of the same
/// binary; an item of a few milliseconds almost always finds one quiet
/// repetition, so the sum of per-item minima repeats far better.
fn floor_s<'a>(reps: impl Iterator<Item = &'a [f64]> + Clone) -> f64 {
    let items = reps.clone().map(|r| r.len()).min().unwrap_or(0);
    (0..items)
        .map(|k| reps.clone().map(|r| r[k]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The floor over all repetitions, over the even ones and over the odd
/// ones (all of them when there is only one).
fn floors(reps: &[&[f64]]) -> [f64; 3] {
    let all = floor_s(reps.iter().copied());
    if reps.len() < 2 {
        return [all; 3];
    }
    [
        all,
        floor_s(reps.iter().step_by(2).copied()),
        floor_s(reps.iter().skip(1).step_by(2).copied()),
    ]
}

/// How long and how large a measured run is.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Size divisor (1 measured, 8 `--quick`).
    pub scale: usize,
    /// Seconds of timed work: repetitions take 85 % of it, compile-only
    /// passes the rest. Zero (`--quick`) means one of each.
    pub seconds: f64,
    /// Self-test hook: corrupt one expectation of every build.
    pub corrupt: bool,
}

/// The untraced run: every end-to-end metric of one workload.
///
/// Each host-time metric is reported at its floor (see [`floor_s`]),
/// with the floors of the even and of the odd repetitions and the median
/// repetition beside it.
///
/// A set-up is a build of the workload from the seed plus the first pass
/// over the fresh build. The run starts with one (its pass is the
/// untimed warm-up) and builds afresh before every second repetition, so
/// `setup_s` gets half as many samples as the passes, spread over the
/// whole run, for the price of the builds alone.
pub fn measure(
    name: &str,
    seed: u64,
    plan: Plan,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let build = || -> Result<(Bench, f64), String> {
        let start = Instant::now();
        let mut bench = workloads::build(name, seed, plan.scale)?;
        let build_s = start.elapsed().as_secs_f64();
        if plan.corrupt {
            let out = bench
                .programs
                .iter_mut()
                .find_map(|p| match &mut p.reference {
                    Reference::Out(want) => Some(want),
                    _ => None,
                });
            match out {
                Some(want) => want[0] ^= 1,
                None => return Err(format!("{name}: no closed-form expectation to corrupt")),
            }
        }
        Ok((bench, build_s))
    };
    let (mut bench, build_s) = build()?;
    let warm = pass(&bench, &mut Trace::new(false), tally);
    // Per set-up: the build's seconds and the first pass over it.
    let mut setups = vec![(build_s, warm)];

    let mut reps: Vec<PassSums> = Vec::new();
    let mut compiles: Vec<Vec<f64>> = Vec::new();
    let start = Instant::now();
    while reps.is_empty() || start.elapsed().as_secs_f64() < plan.seconds {
        let fresh = reps.len() % 2 == 1;
        let mut build_s = 0.0;
        if fresh {
            drop(bench); // before the next is built: peak memory holds one
            (bench, build_s) = build()?;
        }
        let r = pass(&bench, &mut Trace::new(false), tally);
        eprintln!(
            "rep {}: wall {:.4} s, sim {:.3} Minstr/s, functional {:.3} Minstr/s",
            reps.len(),
            r.wall_s,
            r.sim_instr() as f64 / r.sim_s() / 1e6,
            r.func_instr as f64 / r.func_s() / 1e6
        );
        if fresh {
            setups.push((build_s, r.clone()));
        }
        // Compile-only passes for 15 % of the time (at most 64 at once),
        // a batch after every repetition so that they too sample the
        // whole run.
        let batch = Instant::now();
        for _ in 0..64 {
            compiles.push(compile_pass(&bench));
            if batch.elapsed().as_secs_f64() >= r.wall_s * 0.15 / 0.85 {
                break;
            }
        }
        reps.push(r);
    }
    let first = &reps[0];
    tally.op(if reps.iter().all(|r| r.run_ids == first.run_ids) {
        Ok(())
    } else {
        Err(format!(
            "{name}: simulated cycles or instructions differ between repetitions"
        ))
    });

    let each = |f: &dyn Fn(&PassSums) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let floor = |f: fn(&PassSums) -> &[f64]| floors(&reps.iter().map(f).collect::<Vec<_>>());
    let sim_s = floor(|r| &r.run_s);
    let func_s = floor(|r| &r.func_run_s);
    let compile_s = floors(
        &compiles
            .iter()
            .map(Vec::as_slice)
            .chain(reps.iter().map(|r| r.compile_run_s.as_slice()))
            .collect::<Vec<_>>(),
    );
    // A set-up is the build plus the first pass, each at its floor.
    let build_s = floors(
        &setups
            .iter()
            .map(|(b, _)| std::slice::from_ref(b))
            .collect::<Vec<_>>(),
    );
    let warm_s = floors(
        &setups
            .iter()
            .map(|(_, w)| w.program_s.as_slice())
            .collect::<Vec<_>>(),
    );
    let setup_s = [0, 1, 2].map(|k| build_s[k] + warm_s[k]);
    let (instr, cycles, func_instr) = (
        first.sim_instr() as f64,
        first.sim_cycles() as f64,
        first.func_instr as f64,
    );
    Ok(vec![
        Metric::of(
            "sim_minstr_per_s",
            "Minstr/s",
            sim_s.map(|s| instr / s / 1e6),
            &each(&|r| instr / r.sim_s() / 1e6),
        ),
        Metric::of(
            "sim_kcycles_per_s",
            "Kcycles/s",
            sim_s.map(|s| cycles / s / 1e3),
            &each(&|r| cycles / r.sim_s() / 1e3),
        ),
        Metric::of("wall_s", "s", floor(|r| &r.program_s), &each(&|r| r.wall_s)),
        Metric::of(
            "compile_ms",
            "ms",
            compile_s.map(|s| s * 1e3),
            &compiles
                .iter()
                .map(|c| c.iter().sum::<f64>() * 1e3)
                .collect::<Vec<_>>(),
        ),
        Metric::of(
            "func_minstr_per_s",
            "Minstr/s",
            func_s.map(|s| func_instr / s / 1e6),
            &each(&|r| func_instr / r.func_s() / 1e6),
        ),
        Metric::one("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::of(
            "setup_s",
            "s",
            setup_s,
            &setups.iter().map(|(b, w)| b + w.wall_s).collect::<Vec<_>>(),
        ),
        Metric::exact("sim_cycles", "cycles", cycles),
    ])
}
