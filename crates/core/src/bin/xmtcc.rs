//! `xmtcc` — the command-line face of the toolchain, mirroring the
//! workflow of the paper's public release (compile XMTC, link a memory
//! map, simulate, inspect): the piece students install "on any personal
//! computer to work on their assignments" (paper §I).
//!
//! ```text
//! xmtcc PROGRAM.c [options]
//!   --emit-asm            print generated assembly and exit
//!   --emit-files BASE     write BASE.xs (assembly) and BASE.xbo (memory
//!                         map) for xmtsim-cli, then exit
//!   --run                 simulate after compiling (default)
//!   --functional          use the fast functional mode
//!   --config fpga64|chip1024|tiny
//!   --set GLOBAL=v1,v2,…  initialize a global through the memory map
//!   --stats               print the simulator statistics report
//!   --hotspots            attach the hottest-memory-lines filter plug-in
//!   --trace[=N]           print the first N trace records (default 40)
//!   --dump GLOBAL:COUNT   print a global's final words
//!   --O0                  disable optimizations
//!   --cluster K           virtual-thread clustering factor
//!   --no-outline          disable outlining (reproduces paper Fig. 8!)
//!   --cycles-limit N      abort after N cycles
//!   --checkpoint N:FILE   run to cycle N, save a checkpoint, exit
//!   --resume FILE         resume a run from a saved checkpoint
//!   --metrics-out FILE    write the compile's `xmtsim.metrics.v1` rows:
//!                         host µs per pass (`xmtc.<pass>_us`) and of the
//!                         whole compile + link (`xmtc.compile_us`), the
//!                         emitted instruction count and layout fixes
//! ```

use std::process::ExitCode;
use std::time::Instant;
use xmt_core::{Compiled, Toolchain};
use xmt_harness::ToJson;
use xmtc::Options;
use xmtsim::obs::MetricsRegistry;
use xmtsim::stats::MemHotspotFilter;
use xmtsim::trace::{TraceLevel, Tracer};
use xmtsim::XmtConfig;

struct Args {
    file: String,
    emit_asm: bool,
    emit_files: Option<String>,
    functional: bool,
    config: XmtConfig,
    sets: Vec<(String, Vec<i32>)>,
    stats: bool,
    hotspots: bool,
    trace: Option<usize>,
    dumps: Vec<(String, usize)>,
    options: Options,
    cycle_limit: Option<u64>,
    checkpoint: Option<(u64, String)>,
    resume: Option<String>,
    metrics_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xmtcc PROGRAM.c [--emit-asm] [--functional] \
         [--config fpga64|chip1024|tiny] [--set G=v1,v2,..] [--stats] \
         [--hotspots] [--trace[=N]] [--dump G:COUNT] [--O0] [--cluster K] \
         [--no-outline] [--cycles-limit N] [--checkpoint N:FILE] [--resume FILE] \
         [--metrics-out FILE]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        emit_asm: false,
        emit_files: None,
        functional: false,
        config: XmtConfig::fpga64(),
        sets: Vec::new(),
        stats: false,
        hotspots: false,
        trace: None,
        dumps: Vec::new(),
        options: Options::default(),
        cycle_limit: None,
        checkpoint: None,
        resume: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--emit-asm" => args.emit_asm = true,
            "--emit-files" => args.emit_files = Some(it.next().unwrap_or_else(|| usage())),
            "--run" => {}
            "--functional" => args.functional = true,
            "--stats" => args.stats = true,
            "--hotspots" => args.hotspots = true,
            "--O0" => args.options = Options::o0(),
            "--no-outline" => args.options.outline = false,
            "--config" => {
                args.config = match it.next().as_deref() {
                    Some("fpga64") => XmtConfig::fpga64(),
                    Some("chip1024") => XmtConfig::chip1024(),
                    Some("tiny") => XmtConfig::tiny(),
                    _ => usage(),
                }
            }
            "--cluster" => {
                let k = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                args.options.clustering = Some(k);
            }
            "--checkpoint" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (cycle, file) = spec.split_once(':').unwrap_or_else(|| usage());
                args.checkpoint =
                    Some((cycle.parse().unwrap_or_else(|_| usage()), file.to_string()));
            }
            "--resume" => args.resume = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-out" => args.metrics_out = Some(it.next().unwrap_or_else(|| usage())),
            "--cycles-limit" => {
                args.cycle_limit =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--set" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (name, vals) = spec.split_once('=').unwrap_or_else(|| usage());
                let vals: Vec<i32> = vals
                    .split(',')
                    .map(|v| v.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                args.sets.push((name.to_string(), vals));
            }
            "--dump" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (name, count) = spec.split_once(':').unwrap_or_else(|| usage());
                args.dumps
                    .push((name.to_string(), count.parse().unwrap_or_else(|_| usage())));
            }
            t if t == "--trace" => args.trace = Some(40),
            t if t.starts_with("--trace=") => {
                args.trace = Some(t[8..].parse().unwrap_or_else(|_| usage()));
            }
            t if t.starts_with('-') => usage(),
            file => {
                if !args.file.is_empty() {
                    usage();
                }
                args.file = file.to_string();
            }
        }
    }
    if args.file.is_empty() {
        usage();
    }
    args
}

/// The compile's metrics: host time per pass and in all, and what the
/// compiler produced.
fn compile_metrics(compiled: &Compiled, compile_us: f64) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for (pass, us) in xmtc::PASSES.iter().zip(compiled.pass_us) {
        m.gauge(format!("xmtc.{pass}_us"), us);
    }
    m.gauge("xmtc.compile_us", compile_us);
    m.counter("xmtc.asm_instrs", compiled.executable().text.len() as u64);
    m.counter("xmtc.layout_fixes", compiled.layout_fixes.into());
    m
}

/// Typed readback of the attached hotspot filter's results.
fn hotspot_lines(sim: &xmtsim::CycleSim) -> Vec<(u32, u64, u32)> {
    sim.filter_plugin::<xmtsim::stats::MemHotspotFilter>()
        .map(|f| f.hottest_with_pc())
        .unwrap_or_default()
}

/// Print the `--dump`ed globals; a name the program does not define is
/// an error (exit 1), reported after the others are printed.
fn dump_globals(
    dumps: &[(String, usize)],
    machine: &xmtsim::Machine,
    exe: &xmt_isa::Executable,
) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for (name, count) in dumps {
        match machine.read_symbol(exe, name, *count) {
            Some(ws) => {
                let ints: Vec<i32> = ws.iter().map(|&w| w as i32).collect();
                println!("{name} = {ints:?}");
            }
            None => {
                eprintln!("xmtcc: no global `{name}`");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let args = parse_args();
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xmtcc: cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let compiled = Toolchain::with_options(args.options.clone()).compile(&source);
    let compile_us = start.elapsed().as_secs_f64() * 1e6;
    let mut compiled = match compiled {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xmtcc: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.metrics_out {
        let json = compile_metrics(&compiled, compile_us).to_json_string();
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("xmtcc: cannot write metrics {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    for w in &compiled.warnings {
        eprintln!("warning: {w}");
    }
    if compiled.layout_fixes > 0 {
        eprintln!(
            "note: post-pass relocated {} basic block(s) into spawn regions",
            compiled.layout_fixes
        );
    }
    if args.emit_asm {
        print!("{}", compiled.asm_text());
        return ExitCode::SUCCESS;
    }
    if let Some(base) = &args.emit_files {
        // Apply --set values before writing the memory map so inputs are
        // baked into the .xbo (the paper's external-data linking step).
        for (name, vals) in &args.sets {
            if let Err(e) = compiled.set_global_ints(name, vals) {
                eprintln!("xmtcc: {e}");
                return ExitCode::FAILURE;
            }
        }
        let asm_path = format!("{base}.xs");
        let map_path = format!("{base}.xbo");
        if let Err(e) = std::fs::write(&asm_path, compiled.asm_text()) {
            eprintln!("xmtcc: cannot write {asm_path}: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&map_path, compiled.memmap().to_text()) {
            eprintln!("xmtcc: cannot write {map_path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {asm_path} and {map_path}");
        return ExitCode::SUCCESS;
    }
    for (name, vals) in &args.sets {
        if let Err(e) = compiled.set_global_ints(name, vals) {
            eprintln!("xmtcc: {e}");
            return ExitCode::FAILURE;
        }
    }

    if args.functional {
        let mut sim = compiled.functional_simulator();
        sim.set_instr_limit(args.cycle_limit.unwrap_or(u64::MAX));
        match sim.run() {
            Ok(instrs) => {
                print!("{}", sim.machine.output.to_text());
                eprintln!("[functional mode: {instrs} instructions]");
                dump_globals(&args.dumps, &sim.machine, sim.executable())
            }
            Err(e) => {
                eprintln!("xmtcc: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut sim = match &args.resume {
            Some(file) => {
                // §III-E: resume a simulation saved earlier (the program
                // and configuration must match the original run).
                let json = match std::fs::read_to_string(file) {
                    Ok(j) => j,
                    Err(e) => {
                        eprintln!("xmtcc: cannot read {file}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let ckpt = xmtsim::checkpoint::Checkpoint::from_json(&json)
                    .map_err(|e| e.to_string())
                    .and_then(|ckpt| {
                        let time = ckpt.time;
                        let exe = compiled.executable().clone();
                        xmtsim::CycleSim::try_resume(exe, args.config.clone(), ckpt)
                            .map(|sim| (sim, time))
                    });
                match ckpt {
                    Ok((sim, time)) => {
                        eprintln!("resuming at t = {time} ps");
                        sim
                    }
                    Err(e) => {
                        eprintln!("xmtcc: {file}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            None => compiled.simulator(&args.config),
        };
        if let Some(limit) = args.cycle_limit {
            sim.set_cycle_limit(limit);
        }
        if let Some((cycle, file)) = &args.checkpoint {
            use xmtsim::checkpoint::CheckpointOutcome;
            match sim.run_to_checkpoint(*cycle) {
                Ok(CheckpointOutcome::Checkpoint(ckpt)) => {
                    if let Err(e) = std::fs::write(file, ckpt.to_json()) {
                        eprintln!("xmtcc: cannot write {file}: {e}");
                        return ExitCode::FAILURE;
                    }
                    print!("{}", sim.machine.output.to_text());
                    eprintln!(
                        "checkpoint saved to {file} at cycle {} (t = {} ps); resume with --resume {file}",
                        sim.cycles(),
                        ckpt.time
                    );
                    return ExitCode::SUCCESS;
                }
                Ok(CheckpointOutcome::Done(summary)) => {
                    print!("{}", sim.machine.output.to_text());
                    eprintln!(
                        "[program finished before cycle {cycle}: {} cycles]",
                        summary.cycles
                    );
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("xmtcc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if args.hotspots {
            sim.add_filter(Box::new(MemHotspotFilter::new(args.config.line_bytes, 10)));
        }
        if args.trace.is_some() {
            sim.attach_tracer(
                Tracer::new(TraceLevel::CycleAccurate)
                    .with_max_records(args.trace.unwrap_or(40)),
            );
        }
        match sim.run() {
            Ok(summary) => {
                print!("{}", sim.machine.output.to_text());
                eprintln!(
                    "[{} cycles, {} instructions, {} TCUs]",
                    summary.cycles,
                    summary.instructions,
                    args.config.n_tcus()
                );
                if args.stats {
                    eprint!("{}", sim.stats.report());
                }
                for report in sim.filter_reports() {
                    eprint!("{report}");
                }
                if args.hotspots {
                    // Close the §III-B loop: refer the hottest assembly
                    // back to the XMTC source lines.
                    eprintln!("hot assembly → XMTC lines:");
                    for (addr, count, pc) in hotspot_lines(&sim) {
                        match compiled.source_line_of(pc) {
                            Some(line) => eprintln!(
                                "  0x{addr:08x} ({count} accesses) ← instruction {pc} ← \
                                 {src} line {line}",
                                src = args.file
                            ),
                            None => eprintln!(
                                "  0x{addr:08x} ({count} accesses) ← instruction {pc}"
                            ),
                        }
                    }
                }
                if let Some(t) = &sim.tracer {
                    eprint!("{}", t.to_text());
                }
                dump_globals(&args.dumps, &sim.machine, sim.executable())
            }
            Err(e) => {
                eprintln!("xmtcc: {e}");
                ExitCode::FAILURE
            }
        }
    }
}
