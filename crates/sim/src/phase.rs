//! Phase sampling (paper §III-F, "features under development").
//!
//! Programs with long execution times consist of phases of similar
//! behaviour; an extension can be evaluated by running the cycle-accurate
//! simulation for a few intervals of each phase and *fast-forwarding*
//! in between. This module implements that roadmap feature: the
//! simulation alternates between
//!
//! * **detail intervals** — ordinary cycle-accurate simulation, which
//!   also measure the current cycles-per-instruction (CPI), and
//! * **fast-forward intervals** — functional execution (exact
//!   architectural state, spawns serialized) that charges simulated time
//!   at the measured CPI instead of modeling every package.
//!
//! Functional correctness is preserved exactly — only the *timing* of the
//! fast-forwarded stretch is extrapolated. Interval boundaries snap to
//! quiescent points (master between instructions, no parallel section, no
//! packages in flight), the same boundaries checkpoints use.

use crate::config::ClockDomain;
use crate::cycle::{CycleSim, Outcome, RunSummary, SimError};
use crate::exec::{self, Issued, Mode};
use crate::machine::Trap;

/// Phase-sampling schedule.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSampling {
    /// Cluster cycles of cycle-accurate detail per interval.
    pub detail_cycles: u64,
    /// Instructions to fast-forward between detail intervals.
    pub ff_instructions: u64,
}

impl Default for PhaseSampling {
    fn default() -> Self {
        PhaseSampling { detail_cycles: 20_000, ff_instructions: 200_000 }
    }
}

/// Outcome of a phased run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedSummary {
    /// Final summary (cycles include the extrapolated stretches).
    pub summary: RunSummary,
    /// Instructions executed under the cycle-accurate model.
    pub detailed_instructions: u64,
    /// Instructions executed in fast-forward.
    pub fast_forwarded_instructions: u64,
    /// Number of detail intervals run.
    pub intervals: u32,
}

impl PhasedSummary {
    /// Fraction of instructions that were fast-forwarded.
    pub fn ff_fraction(&self) -> f64 {
        let total = self.detailed_instructions + self.fast_forwarded_instructions;
        if total == 0 {
            0.0
        } else {
            self.fast_forwarded_instructions as f64 / total as f64
        }
    }
}

impl CycleSim {
    /// Run with phase sampling: alternate cycle-accurate detail intervals
    /// with CPI-extrapolated functional fast-forwarding.
    pub fn run_phased(&mut self, schedule: PhaseSampling) -> Result<PhasedSummary, SimError> {
        assert!(schedule.detail_cycles > 0 && schedule.ff_instructions > 0);
        let mut detailed_instructions = 0u64;
        let mut fast_forwarded = 0u64;
        let mut intervals = 0u32;
        // Seed CPI until the first interval completes (serial-ish guess).
        let mut cpi = 2.0f64;
        loop {
            let c0 = self.cycles();
            let i0 = self.stats.instructions;
            self.set_checkpoint_cycle(c0 + schedule.detail_cycles);
            match self.run_inner()? {
                Outcome::Done(mut s) => {
                    detailed_instructions += self.stats.instructions - i0;
                    s.instructions += fast_forwarded;
                    return Ok(PhasedSummary {
                        summary: s,
                        detailed_instructions,
                        fast_forwarded_instructions: fast_forwarded,
                        intervals: intervals + 1,
                    });
                }
                Outcome::Checkpoint(_) => {
                    intervals += 1;
                    let dc = self.cycles() - c0;
                    let di = self.stats.instructions - i0;
                    detailed_instructions += di;
                    if di > 0 {
                        cpi = dc as f64 / di as f64;
                    }
                }
            }
            let ffed = self.fast_forward(schedule.ff_instructions, cpi)?;
            fast_forwarded += ffed;
            if self.machine.halted {
                let mut s = self.summary();
                s.instructions += fast_forwarded;
                return Ok(PhasedSummary {
                    summary: s,
                    detailed_instructions,
                    fast_forwarded_instructions: fast_forwarded,
                    intervals,
                });
            }
        }
    }

    /// Execute up to `max_instrs` instructions *functionally* from the
    /// current quiescent point, charging `cpi` cluster cycles per
    /// instruction of simulated time. Parallel sections are serialized
    /// (and always executed to completion, so the machine stays
    /// architecturally exact). Returns the number of instructions
    /// executed.
    pub(crate) fn fast_forward(&mut self, max_instrs: u64, cpi: f64) -> Result<u64, SimError> {
        let exe = self.executable().clone();
        let mut executed = 0u64;
        while executed < max_instrs && !self.machine.halted {
            let issued = exec::issue(&exe, &mut self.master, &mut self.machine, Mode::Master)?;
            executed += 1;
            match issued {
                Issued::Done(_) | Issued::Fence => {}
                Issued::Mem(req) => {
                    let v = exec::perform(&mut self.machine, &req);
                    exec::complete(&mut self.master, &req, v);
                }
                Issued::Spawn { lo, hi, spawn_idx, join_idx } => {
                    executed += self.ff_spawn(&exe, lo, hi, spawn_idx, join_idx)?;
                }
                Issued::Halt => break,
                Issued::ChkidBlocked => unreachable!("chkid traps in master mode"),
            }
        }
        // Charge the extrapolated time and restart the event loop there.
        let dt = (executed as f64 * cpi).round() as u64
            * self.periods()[ClockDomain::Cluster as usize];
        self.skip_time(dt);
        Ok(executed)
    }

    /// Serialize one spawn during fast-forward (the §III-A functional
    /// mechanism). Returns instructions executed inside the section.
    fn ff_spawn(
        &mut self,
        exe: &xmt_isa::Executable,
        lo: i32,
        hi: i32,
        spawn_idx: u32,
        join_idx: u32,
    ) -> Result<u64, SimError> {
        self.master.pc = join_idx + 1;
        if lo > hi {
            return Ok(0);
        }
        self.machine.gregs[0] = lo as u32;
        let mut ctx =
            crate::machine::ThreadCtx { regs: self.master.regs.clone(), pc: spawn_idx + 1 };
        let mut executed = 0u64;
        loop {
            let issued = exec::issue(exe, &mut ctx, &mut self.machine, Mode::Parallel { hi })?;
            executed += 1;
            match issued {
                Issued::Done(_) | Issued::Fence => {}
                Issued::Mem(req) => {
                    let v = exec::perform(&mut self.machine, &req);
                    exec::complete(&mut ctx, &req, v);
                }
                Issued::ChkidBlocked => return Ok(executed),
                Issued::Halt | Issued::Spawn { .. } => {
                    return Err(SimError::Trap(Trap::SpawnInParallel { pc: ctx.pc }))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XmtConfig;
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Reg, Target};

    /// A program with many homogeneous phases: R rounds of (parallel
    /// increment over A + serial polling loop).
    fn phased_program(n: i32, rounds: i32) -> (AsmProgram, MemoryMap) {
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![0; n as usize]);
        let mut p = AsmProgram::new();
        p.label("main");
        p.push(Instr::Li { rt: Reg::S3, imm: rounds });
        p.label("round");
        p.push(Instr::Li { rt: Reg::A0, imm: 0 });
        p.push(Instr::Li { rt: Reg::A1, imm: n - 1 });
        p.push(Instr::Li { rt: Reg::S0, imm: a as i32 });
        p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
        p.label("vt");
        p.push(Instr::Li { rt: Reg::T0, imm: 1 });
        p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg::THREAD_ALLOC });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Sll { rd: Reg::T1, rt: Reg::T0, sh: 2 });
        p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::S0 });
        p.push(Instr::Lw { rt: Reg::T2, base: Reg::T1, off: 0 });
        p.push(Instr::Addi { rt: Reg::T2, rs: Reg::T2, imm: 1 });
        p.push(Instr::Swnb { rt: Reg::T2, base: Reg::T1, off: 0 });
        p.push(Instr::J { target: Target::label("vt") });
        p.push(Instr::Join);
        // Serial filler between parallel phases.
        p.push(Instr::Li { rt: Reg::T3, imm: 50 });
        p.label("fill");
        p.push(Instr::Addi { rt: Reg::T3, rs: Reg::T3, imm: -1 });
        p.push(Instr::Bgtz { rs: Reg::T3, target: Target::label("fill") });
        p.push(Instr::Addi { rt: Reg::S3, rs: Reg::S3, imm: -1 });
        p.push(Instr::Bgtz { rs: Reg::S3, target: Target::label("round") });
        p.push(Instr::Halt);
        (p, mm)
    }

    #[test]
    fn phased_results_exact_and_timing_close() {
        let (p, mm) = phased_program(64, 40);
        let exe = p.link(mm).unwrap();

        let mut full = CycleSim::new(exe.clone(), XmtConfig::tiny());
        let fs = full.run().unwrap();
        let full_mem = full.machine.read_symbol(full.executable(), "A", 64).unwrap();

        let mut phased = CycleSim::new(exe, XmtConfig::tiny());
        let ps = phased
            .run_phased(PhaseSampling { detail_cycles: 3_000, ff_instructions: 8_000 })
            .unwrap();
        let phased_mem = phased.machine.read_symbol(phased.executable(), "A", 64).unwrap();

        // Architectural state is exact.
        assert_eq!(phased_mem, full_mem);
        assert_eq!(phased_mem, vec![40u32; 64]);
        // A real share of the work was fast-forwarded.
        assert!(ps.ff_fraction() > 0.2, "ff fraction {:.2}", ps.ff_fraction());
        assert!(ps.intervals >= 2);
        // Extrapolated cycle count lands near the true one (homogeneous
        // phases → CPI transfers well).
        let ratio = ps.summary.cycles as f64 / fs.cycles as f64;
        assert!(
            (0.6..1.4).contains(&ratio),
            "phased {} vs full {} (ratio {ratio:.2})",
            ps.summary.cycles,
            fs.cycles
        );
        // And it processed far fewer discrete events.
        assert!(
            ps.summary.events * 2 < fs.events,
            "phased events {} vs full {}",
            ps.summary.events,
            fs.events
        );
        // Instruction totals agree to within the scheduling-protocol
        // slack: in cycle-accurate mode every TCU runs its own
        // li/ps/chkid attempts, while serialized fast-forward uses one
        // context.
        let islack = ps.summary.instructions.abs_diff(fs.instructions);
        assert!(
            islack * 20 < fs.instructions,
            "instruction totals far apart: {} vs {}",
            ps.summary.instructions,
            fs.instructions
        );
    }

    #[test]
    fn phased_on_short_program_degenerates_gracefully() {
        // Program shorter than one detail interval: no fast-forwarding.
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::T0, imm: 5 });
        p.push(Instr::Print { rs: Reg::T0 });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        let ps = sim.run_phased(PhaseSampling::default()).unwrap();
        assert_eq!(ps.fast_forwarded_instructions, 0);
        assert_eq!(sim.machine.output.ints(), vec![5]);
    }
}
