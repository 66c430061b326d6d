//! `xmt-e2e` — the end-to-end benchmark of the XMT toolchain.
//!
//! XMTC source → `xmtc` → link → load → `CycleSim` / `FunctionalSim` →
//! verified statistics on five workloads, reported in the units of the
//! paper's Table I and decomposed by layer. README.md has the metric
//! glossary, the workloads and the predictions; `run.sh` builds and
//! runs this binary.
//!
//! ```text
//! xmt-e2e --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! xmt-e2e [--seed N] [--seconds S] [--quick]              all five, one child each
//! xmt-e2e --self-test | determinism | compare A.json B.json
//! ```

mod layers;
mod pass;
mod report;
mod trace;
mod workloads;

use report::{Metric, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use xmt_harness::Json;

/// The seed used when none is given, and the seed held back from sizing
/// and tuning (a claim must also hold on it).
const DEFAULT_SEED: u64 = 2011;
const HELD_OUT_SEED: u64 = 4242;

/// The benchmark's contract: metric names, units, directions, bounds.
const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Clone)]
struct Args {
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    corrupt: bool,
    /// `--self-test`, `determinism`, or `compare` with its two files.
    command: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        out: PathBuf::from("bench/e2e/out"),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: run_seconds(),
        trace: false,
        quick: false,
        corrupt: false,
        command: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("`{v}` is not a number"))
        };
        match arg.as_str() {
            "--out" => a.out = PathBuf::from(value()?),
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                a.seed = match v.as_str() {
                    "held-out" => HELD_OUT_SEED,
                    v => v.parse().map_err(|_| format!("`{v}` is not a seed"))?,
                };
            }
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => a.trace = number(value()?)? != 0.0,
            "--quick" => a.quick = true,
            "--corrupt" => a.corrupt = true,
            "--self-test" | "determinism" | "compare" => a.command.push(arg.clone()),
            file if a.command.first().is_some_and(|c| c == "compare") => {
                a.command.push(file.into())
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn contract() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

fn field<'a>(v: &'a Json, name: &str) -> Option<&'a Json> {
    v.as_obj()
        .ok()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::I(i) => Some(*i as f64),
        Json::U(u) => Some(*u as f64),
        Json::F(f) => Some(*f),
        _ => None,
    }
}

fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn run_seconds() -> f64 {
    field(&contract(), "run_seconds")
        .and_then(number)
        .unwrap_or(10.0)
}

/// The metric names BENCHMARK.json lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let c = contract();
    let items = field(&c, key).and_then(|v| v.as_arr().ok()).unwrap_or(&[]);
    items
        .iter()
        .filter_map(|m| field(m, "name").and_then(text))
        .map(str::to_string)
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xmt-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match args.command.first().map(String::as_str) {
        Some("compare") if args.command.len() == 3 => compare(&args.command[1], &args.command[2]),
        Some("compare") => Err("compare needs two results.json files".into()),
        Some("determinism") => determinism(args.seed),
        Some(_) => self_test(&args),
        None => match &args.workload {
            Some(w) => one_run(w, &args),
            None => all_runs(&args),
        },
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xmt-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_table(metrics: &[Metric]) {
    for m in metrics {
        if m.n > 1 {
            println!(
                "{:<34} {:>16.6} {:<12} halves {:.6} {:.6}; {} repetitions, median {:.6}",
                m.name, m.value, m.unit, m.halves[0], m.halves[1], m.n, m.median
            );
        } else {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// One workload, traced or not, in this process: the driver's form.
fn one_run(workload: &str, args: &Args) -> Result<bool, String> {
    let mut tally = Tally::default();
    let scale = if args.quick { 8 } else { 1 };
    let metrics = if args.trace {
        let (metrics, spans) = layers::traced(workload, args.seed, scale, !args.quick, &mut tally)?;
        let pid = workloads::NAMES
            .iter()
            .position(|n| n == &workload)
            .unwrap_or(0) as u32
            + 1;
        write(
            &args.out.join(format!("trace-{workload}.json")),
            &spans.to_chrome_json(pid, workload),
        )?;
        metrics
    } else {
        let seconds = if args.quick { 0.0 } else { args.seconds };
        let plan = pass::Plan {
            scale,
            seconds,
            corrupt: args.corrupt,
        };
        pass::measure(workload, args.seed, plan, &mut tally)?
    };
    if !args.quick {
        let want = listed(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        });
        let got: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        if want != got {
            return Err(format!(
                "metrics differ from BENCHMARK.json:\n listed {want:?}\n measured {got:?}"
            ));
        }
    }
    let record = report::run_record(workload, args.seed, &metrics, &tally);
    write(
        &args
            .out
            .join(format!("{workload}.trace{}.json", args.trace as u8)),
        &record.encode(),
    )?;
    println!(
        "# {workload}  seed {}  {}",
        args.seed,
        if args.trace {
            "traced run"
        } else {
            "untraced run"
        }
    );
    print_table(&metrics);
    for m in &tally.messages {
        eprintln!("failed: {m}");
    }
    println!("{}", report::result_line(&metrics, &tally));
    Ok(tally.failed == 0)
}

/// Run this binary again as a child and wait for it.
fn child(args: &Args, extra: &[&str]) -> Result<std::process::Output, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--out")
        .arg(&args.out)
        .args(["--seed", &args.seed.to_string()]);
    cmd.args(["--seconds", &args.seconds.to_string()])
        .args(extra);
    if args.quick {
        cmd.arg("--quick");
    }
    cmd.stderr(std::process::Stdio::inherit());
    cmd.output().map_err(|e| e.to_string())
}

/// All five workloads, one child process each (so `peak_rss_mb` is the
/// workload's own): the untraced run, then the traced one. Writes
/// `results.json` and `trace.json`.
fn all_runs(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for w in workloads::NAMES {
        let mut records = Vec::new();
        for (key, flag) in [("end_to_end", "0"), ("per_layer", "1")] {
            let out = child(args, &["--workload", w, "--trace", flag])?;
            print!("{}", String::from_utf8_lossy(&out.stdout));
            ok &= out.status.success();
            let path = args.out.join(format!("{w}.trace{flag}.json"));
            let record =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            records.push((
                key.to_string(),
                Json::parse(&record).map_err(|e| e.to_string())?,
            ));
        }
        results.push((w.to_string(), Json::Obj(records)));
        let path = args.out.join(format!("trace-{w}.json"));
        traces
            .push(std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let results = Json::Obj(vec![
        ("seed".into(), Json::U(args.seed)),
        ("quick".into(), Json::Bool(args.quick)),
        ("workloads".into(), Json::Obj(results)),
    ]);
    write(&args.out.join("results.json"), &results.encode())?;
    write(&args.out.join("trace.json"), &trace::merge(&traces))?;
    println!("wrote {}/results.json and trace.json", args.out.display());
    Ok(ok)
}

/// A corrupted expectation must be counted as failed operations and
/// turn the exit status non-zero; the same run uncorrupted must not.
fn self_test(args: &Args) -> Result<bool, String> {
    let quick = Args {
        quick: true,
        out: args.out.join("self-test"),
        ..args.clone()
    };
    let failed_of = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        Json::parse(last)
            .ok()
            .and_then(|v| field(&v, "failed").and_then(number))
    };
    let clean = child(&quick, &["--workload", "par_compute", "--trace", "0"])?;
    let bad = child(
        &quick,
        &["--workload", "par_compute", "--trace", "0", "--corrupt"],
    )?;
    let ok = clean.status.success()
        && failed_of(&clean) == Some(0.0)
        && !bad.status.success()
        && failed_of(&bad).is_some_and(|f| f >= 1.0);
    println!(
        "self-test: clean run failed={:?} exit={}; corrupted run failed={:?} exit={} -> {}",
        failed_of(&clean),
        clean.status,
        failed_of(&bad),
        bad.status,
        if ok { "ok" } else { "NOT ok" }
    );
    Ok(ok)
}

/// Every exact metric of the traced run (simulated cycles, instruction
/// totals, every per-layer count) must repeat exactly for a seed.
fn determinism(seed: u64) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads::NAMES {
        let run = || layers::traced(w, seed, 8, false, &mut Tally::default()).map(|(m, _)| m);
        let (a, b) = (run()?, run()?);
        let differing: Vec<&str> = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.exact && x.value != y.value)
            .map(|(x, _)| x.name.as_str())
            .collect();
        let exact = a.iter().filter(|m| m.exact).count();
        println!(
            "determinism: {w}: {exact} exact metrics, {} differ {differing:?}",
            differing.len()
        );
        ok &= differing.is_empty();
    }
    Ok(ok)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric.
/// A row is *unresolved* when, on either side, the estimates from the
/// even and the odd repetitions differ by more than the metric's bound
/// (a `--quick` run has one repetition and nothing to split); an exact
/// metric has no tolerance; any *worse* row makes the exit status
/// non-zero.
fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let c = contract();
    let metric = |results: &Json, w: &str, name: &str| {
        let m = field(
            field(
                field(field(field(results, "workloads")?, w)?, "end_to_end")?,
                "metrics",
            )?,
            name,
        )?;
        let value = number(field(m, "value")?)?;
        let halves = field(m, "halves")?.as_arr().ok()?;
        let exact = field(m, "exact")? == &Json::Bool(true);
        let spread = (number(halves.first()?)? - number(halves.get(1)?)?).abs() / value;
        Some((value, spread, exact))
    };
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    for w in workloads::NAMES {
        for spec in field(&c, "end_to_end")
            .and_then(|v| v.as_arr().ok())
            .unwrap_or(&[])
        {
            let name = field(spec, "name").and_then(text).unwrap_or("");
            let mut bound = field(spec, "bound").and_then(number).unwrap_or(0.0);
            let higher = field(spec, "better").and_then(text) == Some("higher");
            let (Some((va, spread_a, exact)), Some((vb, spread_b, _))) =
                (metric(&a, w, name), metric(&b, w, name))
            else {
                println!("{w:<14} {name:<18} missing");
                ok = false;
                continue;
            };
            if exact {
                bound = 0.0; // the same seed must give the same count
            }
            let worse_by = if higher {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let verdict = if exact && va == vb {
                "identical"
            } else if spread_a.max(spread_b) > bound {
                "unresolved"
            } else if worse_by > bound {
                ok = false;
                "worse"
            } else if worse_by < -bound {
                "better"
            } else {
                "within bound"
            };
            println!(
                "{w:<14} {name:<18} {va:>14.4} {vb:>14.4} {:>8.4}  {verdict}",
                vb / va
            );
        }
    }
    Ok(ok)
}
