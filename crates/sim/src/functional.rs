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
//! to a region of interest (see [`crate::checkpoint`]).

use crate::decode::{Cursor, DecodeCache, ReplayEnv, C_ALU, C_BR, C_CTL, C_SFT};
use crate::exec::{self, Issued, MemKind, Mode};
use crate::machine::{Machine, ThreadCtx, Trap};
use crate::stats::Stats;
use std::sync::Arc;
use xmt_isa::{Executable, Instr, Reg};

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
    /// Decoded-block replays, constituents replayed, superinstructions
    /// executed whole (incl. the runtime psm+increment peephole).
    replay_stats: (u64, u64, u64),
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
            replay_stats: (0, 0, 0),
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

    /// `(block replays, constituents replayed, fused superinstructions)`
    /// executed so far — zero with the cache off.
    pub fn replay_stats(&self) -> (u64, u64, u64) {
        self.replay_stats
    }

    /// The loaded executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// Merge one replay call's deltas into the books — equivalent to
    /// per-instruction `count_instr` calls. `cluster` distinguishes the
    /// master books (`None`) from the serialized-section books.
    fn merge_replay(&mut self, cur: &Cursor, cluster: Option<u32>) {
        use xmt_isa::FuKind;
        self.stats
            .count_instr_bulk(FuKind::Alu, cluster, cur.counts[C_ALU]);
        self.stats
            .count_instr_bulk(FuKind::Sft, cluster, cur.counts[C_SFT]);
        self.stats
            .count_instr_bulk(FuKind::Br, cluster, cur.counts[C_BR]);
        self.stats
            .count_instr_bulk(FuKind::Ctl, cluster, cur.counts[C_CTL]);
        self.replay_stats.0 += cur.replays;
        self.replay_stats.1 += cur.executed;
        self.replay_stats.2 += cur.fused;
    }

    /// Run to `halt`. Returns the number of instructions executed.
    pub fn run(&mut self) -> Result<u64, FuncError> {
        let mut executed: u64 = 0;
        loop {
            // Fast-forward through pre-decoded blocks; the replay obeys
            // the same instruction limit as the loop check below. The
            // `replayable` pre-check keeps known-non-local pcs (memory
            // ops, prints…) at interpreter cost.
            if let Some(dc) = self.decode.as_mut() {
                if dc.replayable(self.master.pc) {
                    let mut cur = Cursor::new(0, 0);
                    let env = ReplayEnv::functional(self.instr_limit, executed);
                    dc.replay(&self.exe, &mut self.master, &env, &mut cur);
                    if cur.executed > 0 {
                        executed += cur.executed;
                        self.merge_replay(&cur, None);
                        continue;
                    }
                }
            }
            if executed >= self.instr_limit {
                return Err(FuncError::InstrLimit { executed });
            }
            let pc = self.master.pc;
            let issued = exec::issue(&self.exe, &mut self.master, &mut self.machine, Mode::Master)?;
            executed += 1;
            let _ = pc;
            match issued {
                Issued::Done(cost) => {
                    self.stats.count_instr(cost_fu(cost), None);
                }
                Issued::Mem(req) => {
                    self.stats.count_instr(xmt_isa::FuKind::Mem, None);
                    let v = exec::perform(&mut self.machine, &req);
                    exec::complete(&mut self.master, &req, v);
                    // psm+increment peephole (the third fusion pair).
                    if self.decode.is_some() && executed < self.instr_limit {
                        if let Some(cost) = fuse_after_psm(&self.exe, &mut self.master, &req) {
                            self.stats.count_instr(cost_fu(cost), None);
                            self.replay_stats.2 += 1;
                            executed += 1;
                        }
                    }
                }
                Issued::Fence => {
                    self.stats.count_instr(xmt_isa::FuKind::Ctl, None);
                }
                Issued::Spawn { lo, hi, spawn_idx, join_idx } => {
                    self.stats.count_instr(xmt_isa::FuKind::Ctl, None);
                    executed += self.run_spawn_serialized(lo, hi, spawn_idx, join_idx, executed)?;
                }
                Issued::Halt => {
                    self.stats.count_instr(xmt_isa::FuKind::Ctl, None);
                    return Ok(executed);
                }
                Issued::ChkidBlocked => unreachable!("chkid traps in master mode"),
            }
        }
    }

    /// Serialize one parallel section: a single context consumes every
    /// virtual thread id through the normal `ps`/`chkid` protocol.
    fn run_spawn_serialized(
        &mut self,
        lo: i32,
        hi: i32,
        spawn_idx: u32,
        join_idx: u32,
        executed_so_far: u64,
    ) -> Result<u64, FuncError> {
        self.stats.spawns += 1;
        self.master.pc = join_idx + 1;
        if lo > hi {
            return Ok(0);
        }
        self.stats.virtual_threads += (hi as i64 - lo as i64 + 1) as u64;
        self.machine.gregs[0] = lo as u32;

        // One context plays all virtual threads (broadcast register file).
        let mut ctx = ThreadCtx {
            regs: self.master.regs.clone(),
            pc: spawn_idx + 1,
        };
        let mut executed = 0u64;
        loop {
            // Decoded-replay fast-forward, as in `run`.
            if let Some(dc) = self.decode.as_mut() {
                if dc.replayable(ctx.pc) {
                    let mut cur = Cursor::new(0, 0);
                    let env = ReplayEnv::functional(self.instr_limit, executed_so_far + executed);
                    dc.replay(&self.exe, &mut ctx, &env, &mut cur);
                    if cur.executed > 0 {
                        executed += cur.executed;
                        self.merge_replay(&cur, Some(0));
                        continue;
                    }
                }
            }
            if executed_so_far + executed >= self.instr_limit {
                return Err(FuncError::InstrLimit {
                    executed: executed_so_far + executed,
                });
            }
            let issued = exec::issue(
                &self.exe,
                &mut ctx,
                &mut self.machine,
                Mode::Parallel { hi },
            )?;
            executed += 1;
            match issued {
                Issued::Done(cost) => {
                    self.stats.count_instr(cost_fu(cost), Some(0));
                }
                Issued::Mem(req) => {
                    self.stats.count_instr(xmt_isa::FuKind::Mem, Some(0));
                    let v = exec::perform(&mut self.machine, &req);
                    exec::complete(&mut ctx, &req, v);
                    // psm+increment peephole (the third fusion pair).
                    if self.decode.is_some() && executed_so_far + executed < self.instr_limit {
                        if let Some(cost) = fuse_after_psm(&self.exe, &mut ctx, &req) {
                            self.stats.count_instr(cost_fu(cost), Some(0));
                            self.replay_stats.2 += 1;
                            executed += 1;
                        }
                    }
                }
                Issued::Fence => {
                    self.stats.count_instr(xmt_isa::FuKind::Ctl, Some(0));
                }
                Issued::ChkidBlocked => {
                    // All ids consumed: the serialized section is done.
                    self.stats.count_instr(xmt_isa::FuKind::Br, Some(0));
                    return Ok(executed);
                }
                Issued::Halt | Issued::Spawn { .. } => {
                    unreachable!("issue() traps on halt/spawn in parallel mode")
                }
            }
        }
    }
}

/// The runtime psm+increment peephole: a `psm` result is typically
/// post-incremented or scaled immediately (the `ps`/`chkid` thread-id
/// protocol), so when the next instruction is an `addi` consuming the
/// fetched value, execute it in the same dispatch via the local path.
/// Pure peephole — `issue_local` is the same implementation `issue`
/// delegates to, so semantics and counts are unchanged.
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

fn cost_fu(cost: exec::CostClass) -> xmt_isa::FuKind {
    use exec::CostClass as C;
    match cost {
        C::Alu => xmt_isa::FuKind::Alu,
        C::Sft => xmt_isa::FuKind::Sft,
        C::Branch { .. } => xmt_isa::FuKind::Br,
        C::Mul | C::Div => xmt_isa::FuKind::Mdu,
        C::FpAdd | C::FpMul | C::FpDiv | C::FpMisc => xmt_isa::FuKind::Fpu,
        C::Ps => xmt_isa::FuKind::Ps,
        C::Print | C::Ctl => xmt_isa::FuKind::Ctl,
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
