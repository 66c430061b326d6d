//! The fast functional simulation mode (paper §III-A).
//!
//! The cycle-accurate model is replaced by a simplified mechanism that
//! *serializes the parallel sections*: a single execution context plays
//! all virtual threads back-to-back, consuming thread ids from `gr0`
//! exactly as a lone TCU would. No timing information is produced, which
//! makes this mode orders of magnitude faster (measured in
//! `xmt-bench`'s mode-speed experiment) — a quick, limited debugging tool
//! for XMTC programs. Because it serializes spawn blocks it cannot reveal
//! concurrency bugs, as the paper warns; its other use is fast-forwarding
//! to a region of interest (see [`crate::checkpoint`]), which phase
//! sampling does with the same executor (`Serial`).

use crate::decode::{Cursor, DecodeCache, ReplayEnv};
use crate::exec::{self, Issued, MemKind, Mode};
use crate::machine::{Machine, ThreadCtx, Trap};
use crate::stats::Stats;
use std::sync::Arc;
use xmt_isa::{Executable, FuKind, Instr, Reg};

/// Errors from a functional run.
#[derive(Debug, Clone, PartialEq)]
pub enum FuncError {
    /// The simulated program trapped.
    Trap(Trap),
    /// The instruction budget was exhausted before `halt`.
    InstrLimit { executed: u64 },
}

impl std::fmt::Display for FuncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuncError::Trap(t) => write!(f, "trap: {t}"),
            FuncError::InstrLimit { executed } => {
                write!(f, "instruction limit reached after {executed} instructions")
            }
        }
    }
}

impl std::error::Error for FuncError {}

impl From<Trap> for FuncError {
    fn from(t: Trap) -> Self {
        FuncError::Trap(t)
    }
}

/// The functional-mode simulator.
pub struct FunctionalSim {
    /// The program image, shared with whoever built the simulator.
    exe: Arc<Executable>,
    /// Architectural state.
    pub machine: Machine,
    /// Master context.
    pub master: ThreadCtx,
    /// Instruction counters (no activity/timing counters in this mode).
    pub stats: Stats,
    instr_limit: u64,
    /// Pre-decoded basic-block cache (on by default; `set_decode(false)`
    /// drops back to pure interpreted issue).
    decode: Option<DecodeCache>,
}

impl FunctionalSim {
    /// Build a functional simulator for `exe` (an `Executable`, or an
    /// `Arc` of one to share the image instead of copying it). Panics on
    /// an image `AsmProgram::link` would have rejected.
    pub fn new(exe: impl Into<Arc<Executable>>) -> Self {
        let exe = exe.into();
        let machine = Machine::load(&exe).expect("invalid executable image");
        let mut master = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        master.regs.set(Reg::Sp, xmt_isa::STACK_TOP);
        FunctionalSim {
            machine,
            master,
            stats: Stats::for_topology(1, 1),
            instr_limit: u64::MAX,
            decode: Some(DecodeCache::new(exe.len())),
            exe,
        }
    }

    /// Cap the number of executed instructions (runaway protection).
    pub fn set_instr_limit(&mut self, limit: u64) {
        self.instr_limit = limit;
    }

    /// Enable or disable the pre-decoded basic-block cache (the
    /// `--decode` knob; disabling mid-run discards decoded blocks).
    pub fn set_decode(&mut self, enabled: bool) {
        self.decode = enabled.then(|| DecodeCache::new(self.exe.len()));
    }

    /// The loaded executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// Run to `halt`. Returns the number of instructions executed.
    pub fn run(&mut self) -> Result<u64, FuncError> {
        let mut serial = Serial {
            exe: &self.exe,
            machine: &mut self.machine,
            decode: self.decode.as_mut(),
            stats: &mut self.stats,
            executed: 0,
            limit: self.instr_limit,
            section_limit: self.instr_limit,
        };
        if serial.run(&mut self.master, Mode::Master)? {
            Ok(serial.executed)
        } else {
            Err(FuncError::InstrLimit {
                executed: serial.executed,
            })
        }
    }
}

/// The serialized executor: functional mode's, and phase sampling's
/// fast-forward (`CycleSim::fast_forward`). It issues one instruction at
/// a time, and replays pre-decoded blocks through `decode` when there is
/// one. A parallel section runs on one context that plays every virtual
/// thread back to back, consuming thread ids from `gr0` through the
/// normal `ps`/`chkid` protocol, exactly as a lone TCU would.
pub(crate) struct Serial<'a> {
    pub exe: &'a Executable,
    pub machine: &'a mut Machine,
    pub decode: Option<&'a mut DecodeCache>,
    /// Instruction counters; a section counts under cluster 0.
    pub stats: &'a mut Stats,
    /// Instructions executed so far.
    pub executed: u64,
    /// No master instruction issues once `executed` has reached this.
    pub limit: u64,
    /// No section instruction issues once `executed` has reached this.
    pub section_limit: u64,
}

impl Serial<'_> {
    /// Run `ctx` in `mode` — the master, or a section's one context —
    /// until the master halts or the section runs out of ids (`true`), or
    /// until the mode's limit stops it before an instruction (`false`).
    pub(crate) fn run(&mut self, ctx: &mut ThreadCtx, mode: Mode) -> Result<bool, Trap> {
        let (limit, cluster) = match mode {
            Mode::Master => (self.limit, None),
            Mode::Parallel { .. } => (self.section_limit, Some(0)),
        };
        // The count lives in a register here and in `self` across a
        // section, which runs through `self`.
        let mut executed = self.executed;
        let finished = loop {
            // Fast-forward through pre-decoded blocks; the replay obeys
            // the same limit as the check below. The `replayable`
            // pre-check keeps known-non-local pcs (memory ops, prints…)
            // at interpreter cost.
            if let Some(dc) = self.decode.as_deref_mut() {
                if dc.replayable(ctx.pc) {
                    let mut cur = Cursor::new(0, 0);
                    let env = ReplayEnv::functional(limit, executed);
                    dc.replay(self.exe, ctx, &env, &mut cur);
                    if cur.executed > 0 {
                        executed += cur.executed;
                        self.stats.count_instrs(&cur.counts, cluster);
                        continue;
                    }
                }
            }
            if executed >= limit {
                break false;
            }
            let issued = exec::issue(self.exe, ctx, self.machine, mode)?;
            executed += 1;
            let fu = match &issued {
                Issued::Done(cost) => cost.fu(),
                Issued::Mem(_) => FuKind::Mem,
                Issued::ChkidBlocked => FuKind::Br,
                _ => FuKind::Ctl,
            };
            self.stats.count_instr(fu, cluster);
            match issued {
                Issued::Done(_) | Issued::Fence => {}
                Issued::Mem(req) => {
                    let v = exec::perform(self.machine, &req);
                    exec::complete(ctx, &req, v);
                    // psm+increment peephole (the third fusion pair).
                    if self.decode.is_some() && executed < limit {
                        if let Some(cost) = fuse_after_psm(self.exe, ctx, &req) {
                            self.stats.count_instr(cost.fu(), cluster);
                            executed += 1;
                        }
                    }
                }
                Issued::Spawn {
                    lo,
                    hi,
                    spawn_idx,
                    join_idx,
                } => {
                    self.stats.spawns += 1;
                    ctx.pc = join_idx + 1;
                    if lo <= hi {
                        self.stats.virtual_threads += (hi as i64 - lo as i64 + 1) as u64;
                        self.machine.gregs[0] = lo as u32;
                        // One context plays all virtual threads (broadcast
                        // register file).
                        let mut thread = ThreadCtx {
                            regs: ctx.regs.clone(),
                            pc: spawn_idx + 1,
                        };
                        self.executed = executed;
                        let finished = self.run(&mut thread, Mode::Parallel { hi })?;
                        executed = self.executed;
                        if !finished {
                            break false;
                        }
                    }
                }
                // `halt` ends the master's run and a blocked `chkid` a
                // section's; `issue` traps on each in the other mode.
                Issued::Halt | Issued::ChkidBlocked => break true,
            }
        };
        self.executed = executed;
        Ok(finished)
    }
}

/// The runtime psm+increment peephole: a `psm` result is typically
/// post-incremented or scaled immediately (the `ps`/`chkid` thread-id
/// protocol), so when the next instruction is an `addi` consuming the
/// fetched value, execute it in the same dispatch via the local path.
/// Pure peephole — `issue_local` runs the same `exec_op` as `issue`, so
/// semantics and counts are unchanged.
fn fuse_after_psm(
    exe: &Executable,
    ctx: &mut ThreadCtx,
    req: &exec::MemRequest,
) -> Option<exec::CostClass> {
    if req.kind != MemKind::Psm {
        return None;
    }
    let dst = req.dst_i?;
    match exe.instr(ctx.pc)? {
        Instr::Addi { rs, .. } if *rs == dst => exec::issue_local(exe, ctx),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Target};

    fn compaction_like(n: i32) -> (AsmProgram, MemoryMap) {
        // Parallel: A[$] += 1 for all $, via the standard protocol.
        let mut mm = MemoryMap::new();
        let a = mm.push("A", (0..n as u32).collect());
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
        p.push(Instr::Addi {
            rt: Reg::T2,
            rs: Reg::T2,
            imm: 1,
        });
        p.push(Instr::Sw {
            rt: Reg::T2,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        (p, mm)
    }

    /// An image whose spawn/join table lost an entry is a trap, not a
    /// panic (the linker and the JSON reader both pair every spawn).
    #[test]
    fn spawn_without_join_entry_traps() {
        let (p, mm) = compaction_like(4);
        let mut exe = p.link(mm).unwrap();
        exe.spawn_join.clear();
        let err = FunctionalSim::new(exe).run().unwrap_err();
        assert_eq!(err, FuncError::Trap(Trap::UnmatchedSpawn { pc: 3 }));
    }

    #[test]
    fn serialized_spawn_produces_same_memory_as_cycle_accurate() {
        let (p, mm) = compaction_like(40);
        let exe = p.link(mm).unwrap();

        let mut f = FunctionalSim::new(exe.clone());
        f.run().unwrap();
        let fa = f.machine.read_symbol(f.executable(), "A", 40).unwrap();

        let mut c = crate::cycle::CycleSim::new(exe, crate::config::XmtConfig::tiny());
        c.run().unwrap();
        let ca = c.machine.read_symbol(c.executable(), "A", 40).unwrap();

        let want: Vec<u32> = (1..=40).collect();
        assert_eq!(fa, want);
        assert_eq!(ca, want);
        assert_eq!(f.stats.virtual_threads, 40);
    }

    #[test]
    fn instr_limit_stops_runaway() {
        let mut p = AsmProgram::new();
        p.label("l");
        p.push(Instr::J {
            target: Target::label("l"),
        });
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut f = FunctionalSim::new(exe);
        f.set_instr_limit(500);
        let err = f.run().unwrap_err();
        assert_eq!(err, FuncError::InstrLimit { executed: 500 });
    }

    #[test]
    fn empty_range_spawn_is_noop() {
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 1,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 0,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.push(Instr::Join);
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 5,
        });
        p.push(Instr::Print { rs: Reg::T0 });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut f = FunctionalSim::new(exe);
        f.run().unwrap();
        assert_eq!(f.machine.output.ints(), vec![5]);
        assert_eq!(f.stats.virtual_threads, 0);
    }

    #[test]
    fn trap_propagates() {
        let mut p = AsmProgram::new();
        p.push(Instr::Nop);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut f = FunctionalSim::new(exe);
        assert!(matches!(
            f.run().unwrap_err(),
            FuncError::Trap(Trap::PcOutOfRange { pc: 1 })
        ));
    }
}
