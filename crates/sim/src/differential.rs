//! Cross-engine differential execution (the fuzzer's entry point).
//!
//! The toolchain has many ways to execute one program: fast functional
//! mode plus the cycle-model configurations spanned by [`IssueModel`] ×
//! [`IcnModel`] × [`EngineMode`] × [`DecodeMode`]. Each batched path
//! (`Burst`, `Express`) was introduced with a per-event oracle
//! (`PerInstr`, `PerHop`) and a bit-identity property suite; this module
//! packages that discipline as a single entry point:
//! [`run_all_engines`] executes one [`Executable`] on every
//! [`CYCLE_ENGINE_MATRIX`] row and
//! [`AllEngines::check_cycle_identical`] asserts all cycle
//! configurations agree on everything architecturally observable —
//! cycles, simulated time, instruction count, the full statistics record
//! and the final machine state. Only the host-side event count may
//! differ (eliding events is the batched paths' point).
//!
//! Functional mode serializes parallel sections, so it agrees with the
//! cycle model only on *order-free* observables; which globals are
//! order-free is program knowledge, so the caller states it via
//! [`FunctionalCheck`] and [`AllEngines::check_functional_agrees`].

use crate::config::{DecodeMode, EngineMode, IcnModel, IssueModel, XmtConfig};
use crate::cycle::{CycleSim, SimError};
use crate::functional::{FuncError, FunctionalSim};
use crate::machine::Machine;
use xmt_harness::ToJson;
use xmt_isa::Executable;

/// The ten cycle-model configurations every program is run through.
///
/// Rows 0–3: the sequential engine over both batched defaults and both
/// per-event oracles, plus the two mixed pairings (a tie-break bug in one
/// elision layer that happens to cancel against the other would hide from
/// the pure pairings). Rows 4–7: the sharded parallel engine
/// ([`EngineMode::Parallel`]) at 2 and 4 worker threads on the batched
/// default, plus one per-instruction row (exercising the sharded queues
/// with phase A disabled) and one per-hop row (cross-shard interconnect
/// traffic) — each must be bit-identical to its sequential twin, which
/// rows 0–2 put in the comparison set. Rows 0–7 pin the decode cache
/// *off*, so the interpreted issue path stays the oracle; rows 8–9 turn
/// it on — sequential burst replay and worker-side shared-cache replay —
/// and must be bit-identical to everything above.
pub const CYCLE_ENGINE_MATRIX: [(IssueModel, IcnModel, EngineMode, u32, DecodeMode); 10] = [
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::PerHop,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::PerInstr,
        IcnModel::Express,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::PerInstr,
        IcnModel::PerHop,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Parallel,
        2,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Parallel,
        4,
        DecodeMode::Off,
    ),
    (
        IssueModel::PerInstr,
        IcnModel::Express,
        EngineMode::Parallel,
        2,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::PerHop,
        EngineMode::Parallel,
        2,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Sequential,
        0,
        DecodeMode::Cache,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Parallel,
        2,
        DecodeMode::Cache,
    ),
];

/// One cycle-model run, reduced to its comparable observables.
#[derive(Debug, Clone)]
pub struct EngineRun {
    pub issue: IssueModel,
    pub icn: IcnModel,
    pub engine: EngineMode,
    /// Configured worker threads (parallel engine only; 0 otherwise).
    pub threads: u32,
    /// Whether the pre-decoded basic-block cache was in force.
    pub decode: DecodeMode,
    pub cycles: u64,
    pub time_ps: u64,
    pub instructions: u64,
    /// Host-side events processed — deliberately *not* compared.
    pub events: u64,
    /// The full statistics record, serialized for bit-comparison.
    pub stats_json: String,
    /// Final architectural state (memory image, global registers, TCU
    /// contexts), serialized for bit-comparison.
    pub machine_json: String,
    /// Final machine state, kept for per-global reads.
    pub machine: Machine,
}

impl EngineRun {
    /// Label like `Burst×Express` (sequential) or `Burst×Express×Par2`
    /// (parallel at 2 threads) for diagnostics; decode-cache rows carry
    /// a `×Cache` suffix.
    pub fn label(&self) -> String {
        engine_label(self.issue, self.icn, self.engine, self.threads, self.decode)
    }
}

fn engine_label(
    issue: IssueModel,
    icn: IcnModel,
    engine: EngineMode,
    threads: u32,
    decode: DecodeMode,
) -> String {
    let mut l = match engine {
        EngineMode::Sequential => format!("{issue:?}×{icn:?}"),
        EngineMode::Parallel => format!("{issue:?}×{icn:?}×Par{threads}"),
    };
    if decode == DecodeMode::Cache {
        l.push_str("×Cache");
    }
    l
}

/// The functional-mode run of the same program.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    pub instructions: u64,
    pub machine: Machine,
}

/// Every engine's view of one program.
#[derive(Debug, Clone)]
pub struct AllEngines {
    pub functional: FunctionalRun,
    /// One entry per [`CYCLE_ENGINE_MATRIX`] row, in order.
    pub cycle: Vec<EngineRun>,
    exe: Executable,
}

/// Errors from a differential run.
#[derive(Debug)]
pub enum DifferentialError {
    Sim {
        engine: String,
        err: SimError,
    },
    Functional(FuncError),
    /// A cycle engine hit the instruction budget (it stops cleanly, but
    /// for a differential run a truncated execution is useless).
    InstrLimit {
        engine: String,
        executed: u64,
    },
}

impl std::fmt::Display for DifferentialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DifferentialError::Sim { engine, err } => write!(f, "cycle engine {engine}: {err}"),
            DifferentialError::Functional(e) => write!(f, "functional engine: {e}"),
            DifferentialError::InstrLimit { engine, executed } => {
                write!(
                    f,
                    "cycle engine {engine}: instruction limit hit after {executed}"
                )
            }
        }
    }
}

impl std::error::Error for DifferentialError {}

/// How the caller wants one global compared between functional mode and
/// the cycle engines.
#[derive(Debug, Clone)]
pub enum FunctionalCheck {
    /// Word-for-word equality (race-free data).
    Exact { name: String, words: usize },
    /// Equality as a multiset (order-dependent placement with an
    /// order-independent value population — the `ps`-compaction idiom).
    Multiset { name: String, words: usize },
    /// The printed-integer streams must match (master-only prints).
    Prints,
}

/// Run `exe` on one cycle-model configuration.
#[allow(clippy::too_many_arguments)]
pub fn run_cycle_engine(
    exe: &Executable,
    cfg: &XmtConfig,
    issue: IssueModel,
    icn: IcnModel,
    engine: EngineMode,
    threads: u32,
    decode: DecodeMode,
    instr_limit: u64,
) -> Result<EngineRun, DifferentialError> {
    let mut cfg = cfg.clone();
    cfg.issue_model = issue;
    cfg.icn_model = icn;
    cfg.engine_mode = engine;
    cfg.decode_cache = decode;
    if engine == EngineMode::Parallel {
        cfg.threads = threads;
    }
    let label = || engine_label(issue, icn, engine, threads, decode);
    let mut sim = CycleSim::new(exe.clone(), cfg);
    sim.set_instr_limit(instr_limit);
    let s = sim.run().map_err(|err| DifferentialError::Sim {
        engine: label(),
        err,
    })?;
    if !sim.machine.halted {
        return Err(DifferentialError::InstrLimit {
            engine: label(),
            executed: s.instructions,
        });
    }
    Ok(EngineRun {
        issue,
        icn,
        engine,
        threads,
        decode,
        cycles: s.cycles,
        time_ps: s.time_ps,
        instructions: s.instructions,
        events: s.events,
        stats_json: sim.stats.to_json_string(),
        machine_json: sim.machine.to_json_string(),
        machine: sim.machine,
    })
}

/// Run `exe` through functional mode and all ten cycle configurations
/// (sequential and sharded-parallel, decode cache off and on — see
/// [`CYCLE_ENGINE_MATRIX`]).
///
/// `instr_limit` bounds every engine so a generated program that loops
/// forever surfaces as an error instead of a hang.
pub fn run_all_engines(
    exe: &Executable,
    cfg: &XmtConfig,
    instr_limit: u64,
) -> Result<AllEngines, DifferentialError> {
    let mut func = FunctionalSim::new(exe.clone());
    func.set_instr_limit(instr_limit);
    let instructions = func.run().map_err(DifferentialError::Functional)?;
    let functional = FunctionalRun {
        instructions,
        machine: func.machine,
    };

    let mut cycle = Vec::with_capacity(CYCLE_ENGINE_MATRIX.len());
    for (issue, icn, engine, threads, decode) in CYCLE_ENGINE_MATRIX {
        cycle.push(run_cycle_engine(
            exe,
            cfg,
            issue,
            icn,
            engine,
            threads,
            decode,
            instr_limit,
        )?);
    }
    Ok(AllEngines {
        functional,
        cycle,
        exe: exe.clone(),
    })
}

/// The engine rows [`check_obs_transparent`] pairs obs-off against
/// obs-on: both issue models through the sequential engine, plus the
/// batched default on the parallel engine and under decoded replay —
/// the configurations whose burst/offload fast paths would be the first
/// to notice an observer that wasn't pure.
pub const OBS_ENGINE_ROWS: [(IssueModel, IcnModel, EngineMode, u32, DecodeMode); 4] = [
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::PerInstr,
        IcnModel::PerHop,
        EngineMode::Sequential,
        0,
        DecodeMode::Off,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Parallel,
        2,
        DecodeMode::Cache,
    ),
    (
        IssueModel::Burst,
        IcnModel::Express,
        EngineMode::Sequential,
        0,
        DecodeMode::Cache,
    ),
];

/// Prove observability is a pure observer: for every [`OBS_ENGINE_ROWS`]
/// configuration, run `exe` with `obs_detail = Off` and again with
/// `Full` (periodic metric sampling and host profiling on — the
/// worst-case recording load), and assert the two runs are bit-identical
/// in cycles, simulated time, instruction count, statistics record and
/// final machine image. Also asserts the obs run actually recorded a
/// non-empty timeline, so a recorder wired to nothing can't pass
/// trivially.
pub fn check_obs_transparent(
    exe: &Executable,
    cfg: &XmtConfig,
    instr_limit: u64,
) -> Result<(), String> {
    for (issue, icn, engine, threads, decode) in OBS_ENGINE_ROWS {
        let off = run_cycle_engine(exe, cfg, issue, icn, engine, threads, decode, instr_limit)
            .map_err(|e| format!("obs-off run failed: {e}"))?;
        let mut on_cfg = cfg.clone();
        on_cfg.issue_model = issue;
        on_cfg.icn_model = icn;
        on_cfg.engine_mode = engine;
        on_cfg.decode_cache = decode;
        on_cfg.obs_detail = crate::config::ObsDetail::Full;
        if engine == EngineMode::Parallel {
            on_cfg.threads = threads;
        }
        let mut sim = CycleSim::new(exe.clone(), on_cfg);
        sim.set_instr_limit(instr_limit);
        sim.set_obs_sample_interval(64);
        sim.enable_host_profiling();
        let s = sim
            .run()
            .map_err(|e| format!("obs-on {} run failed: {e}", off.label()))?;
        let label = off.label();
        if s.cycles != off.cycles {
            return Err(format!(
                "{label}: obs-on cycles {} != obs-off {}",
                s.cycles, off.cycles
            ));
        }
        if s.time_ps != off.time_ps {
            return Err(format!(
                "{label}: obs-on time_ps {} != obs-off {}",
                s.time_ps, off.time_ps
            ));
        }
        if s.instructions != off.instructions {
            return Err(format!(
                "{label}: obs-on instructions {} != obs-off {}",
                s.instructions, off.instructions
            ));
        }
        let stats_json = sim.stats.to_json_string();
        if stats_json != off.stats_json {
            return Err(format!(
                "{label}: obs-on stats diverge at {}",
                first_divergence(&stats_json, &off.stats_json)
            ));
        }
        let machine_json = sim.machine.to_json_string();
        if machine_json != off.machine_json {
            return Err(format!(
                "{label}: obs-on machine state diverges at {}",
                first_divergence(&machine_json, &off.machine_json)
            ));
        }
        let recorded = sim.obs().map_or(0, |o| o.timeline.records().len());
        if recorded == 0 {
            return Err(format!(
                "{label}: obs-on run recorded nothing — the transparency \
                 check would be vacuous"
            ));
        }
    }
    Ok(())
}

/// First differing byte of two strings, with context — JSON blobs are
/// huge, so a targeted excerpt beats dumping both sides.
fn first_divergence(a: &str, b: &str) -> String {
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    let lo = pos.saturating_sub(48);
    let excerpt = |s: &str| {
        let hi = (pos + 32).min(s.len());
        s.get(lo..hi).unwrap_or("<non-utf8 boundary>").to_string()
    };
    format!("byte {pos}: ...{}... vs ...{}...", excerpt(a), excerpt(b))
}

impl AllEngines {
    /// The reference cycle run (the `Burst`×`Express` default).
    pub fn reference(&self) -> &EngineRun {
        &self.cycle[0]
    }

    /// Assert all cycle configurations agree on every architecturally
    /// observable quantity. Returns a field-level report on divergence.
    pub fn check_cycle_identical(&self) -> Result<(), String> {
        let r = self.reference();
        for e in &self.cycle[1..] {
            if e.cycles != r.cycles {
                return Err(format!(
                    "{} vs {}: cycles {} != {}",
                    e.label(),
                    r.label(),
                    e.cycles,
                    r.cycles
                ));
            }
            if e.time_ps != r.time_ps {
                return Err(format!(
                    "{} vs {}: time_ps {} != {}",
                    e.label(),
                    r.label(),
                    e.time_ps,
                    r.time_ps
                ));
            }
            if e.instructions != r.instructions {
                return Err(format!(
                    "{} vs {}: instructions {} != {}",
                    e.label(),
                    r.label(),
                    e.instructions,
                    r.instructions
                ));
            }
            if e.stats_json != r.stats_json {
                return Err(format!(
                    "{} vs {}: stats diverge at {}",
                    e.label(),
                    r.label(),
                    first_divergence(&e.stats_json, &r.stats_json)
                ));
            }
            if e.machine_json != r.machine_json {
                return Err(format!(
                    "{} vs {}: machine state diverges at {}",
                    e.label(),
                    r.label(),
                    first_divergence(&e.machine_json, &r.machine_json)
                ));
            }
        }
        Ok(())
    }

    /// Assert functional mode and every cycle engine agree on the given
    /// order-free observables.
    pub fn check_functional_agrees(&self, checks: &[FunctionalCheck]) -> Result<(), String> {
        for check in checks {
            match check {
                FunctionalCheck::Exact { name, words } => {
                    let want = self.read_functional(name, *words)?;
                    for e in &self.cycle {
                        let got = read_machine(&e.machine, &self.exe, name, *words, &e.label())?;
                        if got != want {
                            let k = got.iter().zip(&want).position(|(g, w)| g != w).unwrap_or(0);
                            return Err(format!(
                                "functional vs {}: `{name}[{k}]` = {:#x} functional, {:#x} cycle",
                                e.label(),
                                want[k],
                                got[k]
                            ));
                        }
                    }
                }
                FunctionalCheck::Multiset { name, words } => {
                    let mut want = self.read_functional(name, *words)?;
                    want.sort_unstable();
                    for e in &self.cycle {
                        let mut got =
                            read_machine(&e.machine, &self.exe, name, *words, &e.label())?;
                        got.sort_unstable();
                        if got != want {
                            return Err(format!(
                                "functional vs {}: `{name}` multiset differs \
                                 (sorted functional {:?}.., sorted cycle {:?}..)",
                                e.label(),
                                &want[..want.len().min(8)],
                                &got[..got.len().min(8)],
                            ));
                        }
                    }
                }
                FunctionalCheck::Prints => {
                    let want = self.functional.machine.output.ints();
                    for e in &self.cycle {
                        let got = e.machine.output.ints();
                        if got != want {
                            return Err(format!(
                                "functional vs {}: printed {got:?}, functional printed {want:?}",
                                e.label()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn read_functional(&self, name: &str, words: usize) -> Result<Vec<u32>, String> {
        read_machine(
            &self.functional.machine,
            &self.exe,
            name,
            words,
            "functional",
        )
    }
}

fn read_machine(
    m: &Machine,
    exe: &Executable,
    name: &str,
    words: usize,
    engine: &str,
) -> Result<Vec<u32>, String> {
    m.read_symbol(exe, name, words)
        .ok_or_else(|| format!("{engine}: global `{name}` ({words} words) unreadable"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Reg, Target};

    /// `A[$] += $` over 12 threads, plus a master print — race-free, so
    /// every engine including functional must agree exactly.
    fn racefree_program() -> Executable {
        let n = 12;
        let mut mm = MemoryMap::new();
        let a = mm.push("A", (0..n as u32).map(|i| 100 + i).collect());
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: n - 1,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Sll {
            rd: Reg::T1,
            rt: Reg::T0,
            sh: 2,
        });
        p.push(Instr::Add {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::S0,
        });
        p.push(Instr::Lw {
            rt: Reg::T2,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::Add {
            rd: Reg::T2,
            rs: Reg::T2,
            rt: Reg::T0,
        });
        p.push(Instr::Swnb {
            rt: Reg::T2,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Li {
            rt: Reg::T3,
            imm: 77,
        });
        p.push(Instr::Print { rs: Reg::T3 });
        p.push(Instr::Halt);
        p.link(mm).unwrap()
    }

    #[test]
    fn engine_matrix_agrees_on_racefree_program() {
        let exe = racefree_program();
        let all = run_all_engines(&exe, &XmtConfig::tiny(), 1 << 20).unwrap();
        assert_eq!(all.cycle.len(), CYCLE_ENGINE_MATRIX.len());
        all.check_cycle_identical().unwrap();
        all.check_functional_agrees(&[
            FunctionalCheck::Exact {
                name: "A".into(),
                words: 12,
            },
            FunctionalCheck::Prints,
        ])
        .unwrap();
        // The batched default really did elide events relative to the
        // full per-event oracle.
        let burst_express = &all.cycle[0];
        let perinstr_perhop = &all.cycle[3];
        assert!(burst_express.events < perinstr_perhop.events);
    }

    #[test]
    fn divergence_reports_name_the_engine_pair_and_field() {
        let exe = racefree_program();
        let mut all = run_all_engines(&exe, &XmtConfig::tiny(), 1 << 20).unwrap();
        all.cycle[2].cycles += 1;
        let msg = all.check_cycle_identical().unwrap_err();
        assert!(msg.contains("PerInstr×Express"), "{msg}");
        assert!(msg.contains("cycles"), "{msg}");
    }

    #[test]
    fn obs_full_is_bit_identical_on_racefree_program() {
        let exe = racefree_program();
        check_obs_transparent(&exe, &XmtConfig::tiny(), 1 << 20).unwrap();
    }

    #[test]
    fn instr_limit_converts_runaways_into_errors() {
        let mut p = AsmProgram::new();
        p.label("spin");
        p.push(Instr::J {
            target: Target::label("spin"),
        });
        let exe = p.link(MemoryMap::new()).unwrap();
        let err = run_all_engines(&exe, &XmtConfig::tiny(), 1000).unwrap_err();
        assert!(matches!(err, DifferentialError::Functional(_)));
    }
}
