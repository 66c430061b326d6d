//! `xmtsim-cli` — run an XMT assembly program (`.xs`) with a memory map
//! (`.xbo`), the file-based workflow of paper Fig. 3: "a simulated
//! program consists of assembly and memory map files that are typically
//! provided from the XMTC compiler" (produce them with
//! `xmtcc --emit-asm` / `--emit-memmap`).
//!
//! ```text
//! xmtsim-cli PROGRAM.xs [--memmap FILE.xbo] [--config fpga64|chip1024|tiny|FILE.json]
//!            [--icn express|perhop] [--issue burst|perinstr]
//!            [--engine sequential|parallel] [--threads N] [--decode cache|off]
//!            [--functional] [--stats] [--dump GLOBAL:COUNT] [--cycles-limit N]
//!            [--trace-out FILE] [--metrics-out FILE] [--obs-detail off|spans|full]
//! ```
//!
//! `--trace-out` writes the run's timeline as Chrome `trace_event` JSON
//! (load it in Perfetto or `chrome://tracing`); `--metrics-out` writes
//! the `xmtsim.metrics.v1` registry (with host-profile metrics) as a
//! `metrics.json` sidecar. Either flag enables observability; both runs
//! stay bit-identical to unobserved ones (see `xmtsim::obs`).

use std::process::ExitCode;
use xmt_harness::FromJson;
use xmtsim::{
    CycleSim, DecodeMode, EngineMode, FunctionalSim, IcnModel, IssueModel, ObsDetail, XmtConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: xmtsim-cli PROGRAM.xs [--memmap FILE.xbo] \
         [--config fpga64|chip1024|tiny|FILE.json] [--icn express|perhop] \
         [--issue burst|perinstr] \
         [--engine sequential|parallel] [--threads N] [--decode cache|off] \
         [--functional] [--stats] [--dump GLOBAL:COUNT] [--cycles-limit N] \
         [--trace-out FILE] [--metrics-out FILE] [--obs-detail off|spans|full]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut file = String::new();
    let mut memmap_file: Option<String> = None;
    let mut config = XmtConfig::fpga64();
    let mut functional = false;
    let mut stats = false;
    let mut dumps: Vec<(String, usize)> = Vec::new();
    let mut limit: Option<u64> = None;
    let mut icn_model: Option<IcnModel> = None;
    let mut issue_model: Option<IssueModel> = None;
    let mut engine_mode: Option<EngineMode> = None;
    let mut threads: Option<u32> = None;
    let mut decode_mode: Option<DecodeMode> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut obs_detail: Option<ObsDetail> = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--memmap" => memmap_file = Some(it.next().unwrap_or_else(|| usage())),
            "--functional" => functional = true,
            "--stats" => stats = true,
            "--config" => {
                config = match it.next().as_deref() {
                    Some("fpga64") => XmtConfig::fpga64(),
                    Some("chip1024") => XmtConfig::chip1024(),
                    Some("tiny") => XmtConfig::tiny(),
                    // Anything else is a JSON configuration file (the
                    // checkpoint/config interchange format); validation
                    // happens at simulator construction.
                    Some(path) => {
                        let text = match std::fs::read_to_string(path) {
                            Ok(t) => t,
                            Err(e) => {
                                eprintln!("xmtsim-cli: cannot read config {path}: {e}");
                                std::process::exit(1);
                            }
                        };
                        match XmtConfig::from_json_str(&text) {
                            Ok(c) => c,
                            Err(e) => {
                                eprintln!("xmtsim-cli: config {path}: {e}");
                                std::process::exit(1);
                            }
                        }
                    }
                    None => usage(),
                }
            }
            "--icn" => {
                icn_model = Some(match it.next().as_deref() {
                    Some("express") => IcnModel::Express,
                    Some("perhop") => IcnModel::PerHop,
                    _ => usage(),
                })
            }
            "--issue" => {
                issue_model = Some(match it.next().as_deref() {
                    Some("burst") => IssueModel::Burst,
                    Some("perinstr") => IssueModel::PerInstr,
                    _ => usage(),
                })
            }
            "--engine" => {
                engine_mode = Some(match it.next().as_deref() {
                    Some("sequential") => EngineMode::Sequential,
                    Some("parallel") => EngineMode::Parallel,
                    _ => usage(),
                })
            }
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--decode" => {
                decode_mode = Some(match it.next().as_deref() {
                    Some("cache") => DecodeMode::Cache,
                    Some("off") => DecodeMode::Off,
                    _ => usage(),
                })
            }
            "--cycles-limit" => {
                limit = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(it.next().unwrap_or_else(|| usage())),
            "--obs-detail" => {
                obs_detail = Some(match it.next().as_deref() {
                    Some("off") => ObsDetail::Off,
                    Some("spans") => ObsDetail::Spans,
                    Some("full") => ObsDetail::Full,
                    _ => usage(),
                })
            }
            "--dump" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let (name, count) = spec.split_once(':').unwrap_or_else(|| usage());
                dumps.push((name.to_string(), count.parse().unwrap_or_else(|_| usage())));
            }
            t if t.starts_with('-') => usage(),
            f => {
                if !file.is_empty() {
                    usage();
                }
                file = f.to_string();
            }
        }
    }
    if file.is_empty() {
        usage();
    }
    if let Some(m) = icn_model {
        config.icn_model = m;
    }
    if let Some(m) = issue_model {
        config.issue_model = m;
    }
    if let Some(m) = engine_mode {
        config.engine_mode = m;
    }
    if let Some(n) = threads {
        config.threads = n;
    }
    if let Some(m) = decode_mode {
        config.decode_cache = m;
    }
    // Observability: an explicit --obs-detail wins; otherwise either
    // output flag implies full detail (traces want both time domains).
    if let Some(d) = obs_detail {
        config.obs_detail = d;
    } else if trace_out.is_some() || metrics_out.is_some() {
        config.obs_detail = ObsDetail::Full;
    }
    if functional && (trace_out.is_some() || metrics_out.is_some()) {
        eprintln!("xmtsim-cli: --trace-out/--metrics-out need the cycle model (drop --functional)");
        return ExitCode::FAILURE;
    }

    let asm_text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("xmtsim-cli: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = match xmt_isa::asm::parse(&asm_text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xmtsim-cli: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let memmap = match &memmap_file {
        Some(mf) => {
            let text = match std::fs::read_to_string(mf) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("xmtsim-cli: cannot read {mf}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match xmt_isa::MemoryMap::parse(&text) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("xmtsim-cli: {mf}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => xmt_isa::MemoryMap::new(),
    };
    let exe = match prog.link(memmap) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("xmtsim-cli: link: {e}");
            return ExitCode::FAILURE;
        }
    };

    if functional {
        let mut sim = FunctionalSim::new(exe);
        if config.decode_cache == DecodeMode::Off {
            sim.set_decode(false);
        }
        if let Some(l) = limit {
            sim.set_instr_limit(l);
        }
        match sim.run() {
            Ok(instrs) => {
                print!("{}", sim.machine.output.to_text());
                eprintln!("[functional: {instrs} instructions]");
                dump_globals(&dumps, &sim.machine, sim.executable())
            }
            Err(e) => {
                eprintln!("xmtsim-cli: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let mut sim = match CycleSim::try_new(exe, config.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xmtsim-cli: invalid configuration: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(l) = limit {
            sim.set_cycle_limit(l);
        }
        if config.obs_detail != ObsDetail::Off {
            // Periodic metric samples on the timeline (every 4096
            // cluster cycles keeps long runs readable in Perfetto).
            sim.set_obs_sample_interval(4096);
        }
        if metrics_out.is_some() {
            sim.enable_host_profiling();
        }
        match sim.run() {
            Ok(summary) => {
                print!("{}", sim.machine.output.to_text());
                let engine = match config.engine_mode {
                    EngineMode::Sequential => String::new(),
                    EngineMode::Parallel => format!(", parallel×{}", sim.workers()),
                };
                eprintln!(
                    "[{} cycles, {} instructions, {} TCUs{engine}]",
                    summary.cycles,
                    summary.instructions,
                    config.n_tcus()
                );
                if stats {
                    eprint!("{}", sim.stats.report());
                }
                if let Some(path) = &trace_out {
                    let json = sim.trace_json().expect("obs enabled with trace_out");
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("xmtsim-cli: cannot write trace {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if let Some(path) = &metrics_out {
                    use xmt_harness::ToJson;
                    let json = sim.metrics_registry().to_json_string();
                    if let Err(e) = std::fs::write(path, json) {
                        eprintln!("xmtsim-cli: cannot write metrics {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                dump_globals(&dumps, &sim.machine, sim.executable())
            }
            Err(e) => {
                eprintln!("xmtsim-cli: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Print every `--dump`ed global; `FAILURE` if any name is not a global.
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
                eprintln!("xmtsim-cli: no global `{name}`");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
