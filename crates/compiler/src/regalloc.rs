//! Linear-scan register allocation.
//!
//! Serial code follows a MIPS-like convention: values live across calls
//! go to callee-saved `s` registers, everything else to caller-saved `t`
//! registers, and spills go to stack slots in the Master TCU's frame.
//!
//! Parallel code is different, and this is the paper's point (§IV-D):
//! *parallel stack allocation is not yet publicly supported*, so virtual
//! threads can only use registers; the compiler "checks if the available
//! registers suffice and produces a register spill error otherwise".
//! Any virtual register whose live range touches a parallel block (or
//! crosses the spawn, i.e. is broadcast) is pinned un-spillable here, and
//! running out of registers for one raises
//! [`CompileError::RegisterSpill`].

use crate::ir::*;
use crate::CompileError;
use xmt_isa::{FReg, Reg};

/// Caller-saved integer pool.
const T_POOL: [Reg; 11] = [
    Reg::T0,
    Reg::T1,
    Reg::T2,
    Reg::T3,
    Reg::T4,
    Reg::T5,
    Reg::T6,
    Reg::T7,
    Reg::T8,
    Reg::T9,
    Reg::V1,
];

/// Callee-saved integer pool.
const S_POOL: [Reg; 8] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
];

/// The integer scan's free mask: `T_POOL` in bits 0..11, `S_POOL` in
/// bits 11..19, each in register-number order.
const T_MASK: u32 = (1 << 11) - 1;
const S_MASK: u32 = ((1 << 19) - 1) & !T_MASK;

/// Where a virtual register lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Never live: no location needed.
    None,
    Reg(Reg),
    FReg(FReg),
    /// A stack slot of the function's frame.
    Spill(u32),
}

/// Result of allocation for one function.
#[derive(Debug)]
pub struct Assignment {
    /// Location of each vreg (indexed by `V`).
    pub loc: Vec<Loc>,
    /// Spill slots (4 bytes each) the frame needs past the function's
    /// own `slots`; spill slot indices continue that numbering.
    pub spill_slots: u32,
    /// Callee-saved registers used (to save/restore in the prologue).
    pub used_s: Vec<Reg>,
}

impl Assignment {
    /// The physical register of an integer vreg, if not spilled.
    pub fn reg(&self, v: V) -> Option<Reg> {
        match self.loc.get(v as usize) {
            Some(Loc::Reg(r)) => Some(*r),
            _ => None,
        }
    }

    /// The physical register of a float vreg, if not spilled.
    pub fn freg(&self, v: V) -> Option<FReg> {
        match self.loc.get(v as usize) {
            Some(Loc::FReg(r)) => Some(*r),
            _ => None,
        }
    }

    /// The stack slot of a spilled vreg.
    pub fn spill(&self, v: V) -> Option<u32> {
        match self.loc.get(v as usize) {
            Some(Loc::Spill(s)) => Some(*s),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Interval {
    v: V,
    class: Class,
    start: u32,
    end: u32,
    crosses_call: bool,
    /// Touches a parallel block: must not be spilled (§IV-D).
    parallel: bool,
}

/// An interval holding a register during a scan.
#[derive(Debug, Clone, Copy)]
struct Active {
    end: u32,
    v: V,
    /// Bit of the register in the scan's free mask.
    bit: u32,
    parallel: bool,
}

/// Allocation state shared by the two scans.
struct Alloc<'a> {
    f: &'a IrFunction,
    asg: Assignment,
}

impl Alloc<'_> {
    fn new_spill_slot(&mut self) -> u32 {
        self.asg.spill_slots += 1;
        (self.f.slots.len() as u32) + self.asg.spill_slots - 1
    }

    /// Spill either `cur` or the furthest-ending non-parallel active
    /// interval (the last of equals), whichever ends later; parallel
    /// intervals are not spillable, and a `cur` live across a call can
    /// only take an `s` register (only integers get here so: such a float
    /// is spilled before it asks). Returns false when nothing spillable
    /// remains for a parallel `cur` — the paper's register-spill error.
    fn spill_one(&mut self, active: &mut Vec<Active>, cur: &Interval) -> bool {
        let candidate = active
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.parallel && (!cur.crosses_call || S_MASK & 1 << a.bit != 0))
            .max_by_key(|(_, a)| a.end)
            .map(|(k, _)| k);
        match candidate {
            Some(k) if active[k].end > cur.end || cur.parallel => {
                // Spill the active victim, give its register to `cur`.
                let victim = active.remove(k);
                let held = self.asg.loc[victim.v as usize];
                let slot = self.new_spill_slot();
                self.asg.loc[victim.v as usize] = Loc::Spill(slot);
                self.asg.loc[cur.v as usize] = held;
                let (end, v, parallel) = (cur.end, cur.v, cur.parallel);
                active.push(Active { end, v, bit: victim.bit, parallel });
                true
            }
            _ if !cur.parallel => {
                let slot = self.new_spill_slot();
                self.asg.loc[cur.v as usize] = Loc::Spill(slot);
                true
            }
            _ => false,
        }
    }

    fn scan_int<'i>(
        &mut self,
        ivs: impl Iterator<Item = &'i Interval>,
    ) -> Result<(), CompileError> {
        // One mask over both pools, each in register-number order: the
        // lowest free register of a pool is its lowest set bit.
        let mut regs = [Reg::Zero; 19];
        regs[..11].copy_from_slice(&T_POOL);
        regs[11..].copy_from_slice(&S_POOL);
        regs[..11].sort_by_key(|r| r.number());
        regs[11..].sort_by_key(|r| r.number());
        let mut free: u32 = T_MASK | S_MASK;
        let mut active: Vec<Active> = Vec::new();

        for iv in ivs {
            // Expire old intervals.
            active.retain(|a| {
                if a.end < iv.start {
                    free |= 1 << a.bit;
                    false
                } else {
                    true
                }
            });
            let pool = if iv.crosses_call {
                free & S_MASK
            } else if free & T_MASK != 0 {
                // Prefer t-regs, fall back to s-regs.
                free & T_MASK
            } else {
                free & S_MASK
            };
            if pool != 0 {
                let bit = pool.trailing_zeros();
                free &= !(1 << bit);
                self.asg.loc[iv.v as usize] = Loc::Reg(regs[bit as usize]);
                active.push(Active { end: iv.end, v: iv.v, bit, parallel: iv.parallel });
            } else if !self.spill_one(&mut active, iv) {
                return Err(CompileError::RegisterSpill {
                    function: self.f.name.clone(),
                    message: format!(
                        "virtual thread needs more than {} integer registers",
                        T_POOL.len() + S_POOL.len()
                    ),
                });
            }
        }
        Ok(())
    }

    fn scan_float<'i>(
        &mut self,
        ivs: impl Iterator<Item = &'i Interval>,
    ) -> Result<(), CompileError> {
        // f0/f1 are reserved as code-generator scratch for spill reloads;
        // the mask is indexed by register number.
        let mut free: u64 = FReg::allocatable().filter(|r| r.0 >= 2).fold(0, |m, r| m | 1 << r.0);
        let mut active: Vec<Active> = Vec::new();

        for iv in ivs {
            active.retain(|a| {
                if a.end < iv.start {
                    free |= 1 << a.bit;
                    false
                } else {
                    true
                }
            });

            // Floats live across calls are spilled (no callee-saved FP regs),
            // which a value the spawn broadcasts cannot be.
            if iv.crosses_call {
                if iv.parallel {
                    return Err(CompileError::RegisterSpill {
                        function: self.f.name.clone(),
                        message: "a float live across a call cannot reach the spawn in a \
                                  register (there are no callee-saved float registers)"
                            .into(),
                    });
                }
                let slot = self.new_spill_slot();
                self.asg.loc[iv.v as usize] = Loc::Spill(slot);
                continue;
            }
            if free != 0 {
                let bit = free.trailing_zeros();
                free &= !(1 << bit);
                self.asg.loc[iv.v as usize] = Loc::FReg(FReg(bit as u8));
                active.push(Active { end: iv.end, v: iv.v, bit, parallel: iv.parallel });
            } else if !self.spill_one(&mut active, iv) {
                return Err(CompileError::RegisterSpill {
                    function: self.f.name.clone(),
                    message: "virtual thread needs more float registers than the TCU has".into(),
                });
            }
        }
        Ok(())
    }
}

/// Allocate registers for `f`. Spill slots are not added to `f`: the
/// assignment counts them in [`Assignment::spill_slots`].
pub fn allocate(f: &IrFunction) -> Result<Assignment, CompileError> {
    let ivs = build_intervals(f);
    let mut a = Alloc {
        f,
        asg: Assignment {
            loc: vec![Loc::None; f.vclass.len()],
            spill_slots: 0,
            used_s: Vec::new(),
        },
    };
    // Independent scans per class.
    a.scan_int(ivs.iter().filter(|i| i.class == Class::Int))?;
    a.scan_float(ivs.iter().filter(|i| i.class == Class::Float))?;

    let mut asg = a.asg;
    let mut used_s: Vec<Reg> = asg
        .loc
        .iter()
        .filter_map(|l| match l {
            Loc::Reg(r) if S_POOL.contains(r) => Some(*r),
            _ => None,
        })
        .collect();
    used_s.sort();
    used_s.dedup();
    asg.used_s = used_s;
    Ok(asg)
}

/// Compute one live interval per vreg over a linear numbering, sorted by
/// start position (then vreg id).
///
/// Positions are split per instruction: instruction `i` *uses* its
/// operands at `2(i+1)` and *defines* its result at `2(i+1)+1`;
/// parameters are defined at position 1 (the prologue). A call therefore
/// sits strictly *inside* the interval of any value defined before it and
/// used after it — the condition for needing a callee-saved register —
/// while values merely passed as arguments do not cross it.
fn build_intervals(f: &IrFunction) -> Vec<Interval> {
    let nb = f.blocks.len();
    let nv = f.vclass.len();
    // Linear instruction counter across the whole function (starts at 1
    // so the prologue owns position 1). Both lists come out ascending.
    let mut counter: u32 = 1;
    let mut block_start = vec![0u32; nb];
    let mut block_end = vec![0u32; nb];
    let mut call_positions = Vec::new();
    // Calls that open their block, with the vreg they define: they share
    // their position with the block's live-in values.
    let mut leading_calls: Vec<(u32, Option<V>)> = Vec::new();
    let mut parallel_ranges: Vec<(u32, u32)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        block_start[bi] = 2 * counter;
        if let Some(Inst::Call { ret, .. }) = b.insts.first() {
            leading_calls.push((2 * counter, ret.map(|(v, _)| v)));
        }
        for i in &b.insts {
            if matches!(i, Inst::Call { .. }) {
                call_positions.push(2 * counter);
            }
            counter += 1;
        }
        counter += 1; // terminator slot
        block_end[bi] = 2 * counter - 1;
        if b.parallel {
            parallel_ranges.push((block_start[bi], block_end[bi]));
        }
    }

    // Liveness (per-block live-in/out): bitset gen/kill dataflow.
    let mut gen = vec![VSet::new(nv); nb];
    let mut kill = vec![VSet::new(nv); nb];
    for (bi, b) in f.blocks.iter().enumerate() {
        let (g, k) = (&mut gen[bi], &mut kill[bi]);
        for i in &b.insts {
            i.each_use(|u| {
                if !k.contains(u) {
                    g.insert(u);
                }
            });
            if let Some(d) = i.def() {
                k.insert(d);
            }
        }
        b.term.each_use(|u| {
            if !k.contains(u) {
                g.insert(u);
            }
        });
    }
    let mut live_in = vec![VSet::new(nv); nb];
    let mut live_out = vec![VSet::new(nv); nb];
    let mut out = VSet::new(nv);
    loop {
        let mut changed = false;
        for bi in (0..nb).rev() {
            out.clear();
            for s in f.blocks[bi].term.succs() {
                out.union_with(&live_in[s as usize]);
            }
            if out != live_out[bi] {
                std::mem::swap(&mut out, &mut live_out[bi]);
                changed = true;
            }
            changed |= live_in[bi].assign_transfer(&gen[bi], &live_out[bi], &kill[bi]);
        }
        if !changed {
            break;
        }
    }

    // (start, end) per vreg; `start == u32::MAX` for vregs never touched.
    let mut span = vec![(u32::MAX, 0u32); nv];
    let mut touch = |v: V, p: u32| {
        let e = &mut span[v as usize];
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };

    // Params are defined in the prologue.
    for &p in &f.params {
        touch(p, 1);
    }
    let mut counter: u32 = 1;
    for (bi, b) in f.blocks.iter().enumerate() {
        live_in[bi].iter().for_each(|v| touch(v, block_start[bi]));
        live_out[bi].iter().for_each(|v| touch(v, block_end[bi]));
        for i in &b.insts {
            i.each_use(|u| touch(u, 2 * counter));
            if let Some(d) = i.def() {
                touch(d, 2 * counter + 1);
            }
            counter += 1;
        }
        b.term.each_use(|u| touch(u, 2 * counter));
        counter += 1;
    }

    // Mark call-crossing and parallel intervals: both lists are sorted
    // and the parallel ranges are disjoint, so the first call after
    // `start` and the first range ending after `start` decide. A value
    // first seen at a call that opens its block is live into the block,
    // so it crosses that call too if it outlives it (and is not its
    // result).
    let mut ivs: Vec<Interval> = span
        .iter()
        .enumerate()
        .filter(|(_, &(start, _))| start != u32::MAX)
        .map(|(v, &(start, end))| {
            let c = call_positions.partition_point(|&c| c <= start);
            let r = parallel_ranges.partition_point(|&(_, e)| e <= start);
            Interval {
                v: v as V,
                class: f.vclass[v],
                start,
                end,
                crosses_call: call_positions.get(c).is_some_and(|&c| c < end)
                    || start < end
                        && leading_calls
                            .binary_search_by_key(&start, |&(c, _)| c)
                            .is_ok_and(|k| leading_calls[k].1 != Some(v as V)),
                parallel: parallel_ranges.get(r).is_some_and(|&(s, _)| s <= end),
            }
        })
        .collect();
    // Sort by start position, then vreg id (keys are unique).
    ivs.sort_unstable_by_key(|i| (i.start, i.v));
    ivs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spills(a: &Assignment) -> usize {
        a.loc.iter().filter(|l| matches!(l, Loc::Spill(_))).count()
    }

    fn int_regs(a: &Assignment) -> Vec<Reg> {
        a.loc
            .iter()
            .filter_map(|l| match l {
                Loc::Reg(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    fn simple_fn(n_vregs: usize, blocks: Vec<BlockIr>) -> IrFunction {
        IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Int; n_vregs],
            blocks,
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: true,
        }
    }

    #[test]
    fn small_function_all_in_registers() {
        let f = simple_fn(
            4,
            vec![BlockIr {
                insts: vec![
                    Inst::Li { d: 0, imm: 1 },
                    Inst::Li { d: 1, imm: 2 },
                    Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(0), b: Operand::V(1) },
                    Inst::Print { s: 2 },
                ],
                term: Term::Halt,
                parallel: false,
                src_line: 0,
            }],
        );
        let asg = allocate(&f).unwrap();
        assert_eq!(spills(&asg), 0);
        assert_eq!(int_regs(&asg).len(), 3);
        // Distinct registers for overlapping values.
        assert_ne!(asg.reg(0), asg.reg(1));
    }

    #[test]
    fn non_overlapping_values_share_registers() {
        let mut insts = Vec::new();
        for k in 0..30u32 {
            insts.push(Inst::Li { d: k, imm: k as i32 });
            insts.push(Inst::Print { s: k });
        }
        let f = simple_fn(30, vec![BlockIr { insts, term: Term::Halt, parallel: false, src_line: 0 }]);
        let asg = allocate(&f).unwrap();
        assert_eq!(spills(&asg), 0);
        let distinct: std::collections::HashSet<Reg> = int_regs(&asg).into_iter().collect();
        assert!(distinct.len() <= 2, "sequential lifetimes reuse registers");
    }

    #[test]
    fn serial_pressure_spills() {
        // 25 simultaneously-live values > 19 registers: must spill, not fail.
        let mut insts = Vec::new();
        for k in 0..25u32 {
            insts.push(Inst::Li { d: k, imm: k as i32 });
        }
        for k in 0..25u32 {
            insts.push(Inst::Print { s: k });
        }
        let f = simple_fn(25, vec![BlockIr { insts, term: Term::Halt, parallel: false, src_line: 0 }]);
        let asg = allocate(&f).unwrap();
        assert!(spills(&asg) > 0);
        assert_eq!(spills(&asg) + int_regs(&asg).len(), 25);
        assert_eq!(asg.spill_slots as usize, spills(&asg));
    }

    #[test]
    fn parallel_pressure_is_an_error() {
        // Same pressure inside a parallel block: the paper's spill error.
        let mut insts = Vec::new();
        for k in 0..25u32 {
            insts.push(Inst::Li { d: k, imm: k as i32 });
        }
        for k in 0..25u32 {
            insts.push(Inst::Print { s: k });
        }
        let f = simple_fn(25, vec![BlockIr { insts, term: Term::Halt, parallel: true, src_line: 0 }]);
        let err = allocate(&f).unwrap_err();
        assert!(matches!(err, CompileError::RegisterSpill { .. }));
    }

    #[test]
    fn call_crossing_values_use_callee_saved() {
        let f = simple_fn(
            3,
            vec![BlockIr {
                insts: vec![
                    Inst::Li { d: 0, imm: 7 },
                    Inst::Call { name: "g".into(), args: vec![], ret: None },
                    Inst::Print { s: 0 },
                ],
                term: Term::Halt,
                parallel: false,
                src_line: 0,
            }],
        );
        let asg = allocate(&f).unwrap();
        let r = asg.reg(0).unwrap();
        assert!(S_POOL.contains(&r), "value live across call in {r}");
        assert!(asg.used_s.contains(&r));
    }

    #[test]
    fn value_live_into_a_block_crosses_its_leading_call() {
        // v0 reaches b1 only around the loop from b2, which is laid out
        // later, so its interval opens at b1's first position — the call's.
        let block = |insts, term| BlockIr { insts, term, parallel: false, src_line: 0 };
        let f = simple_fn(
            1,
            vec![
                block(vec![], Term::Jmp(2)),
                block(
                    vec![
                        Inst::Call { name: "g".into(), args: vec![], ret: None },
                        Inst::Print { s: 0 },
                    ],
                    Term::Jmp(3),
                ),
                block(vec![Inst::Li { d: 0, imm: 7 }], Term::Jmp(1)),
                block(vec![], Term::Halt),
            ],
        );
        let asg = allocate(&f).unwrap();
        assert!(asg.reg(0).is_some_and(|r| S_POOL.contains(&r)), "{:?}", asg.loc[0]);
    }

    #[test]
    fn parallel_value_across_a_call_never_takes_a_t_register() {
        // v0..v7 are broadcast and live across the call: they take all the
        // s registers. v8 is too; the only spillable value, v9, holds a t
        // register, which would not survive the call.
        let mut insts = vec![Inst::Li { d: 9, imm: 9 }];
        insts.extend((0..9).map(|d| Inst::Li { d, imm: d as i32 }));
        insts.push(Inst::Print { s: 9 });
        insts.push(Inst::Call { name: "g".into(), args: vec![], ret: None });
        let body: Vec<Inst> = (0..9).map(|s| Inst::Print { s }).collect();
        let mut f = simple_fn(
            10,
            vec![
                BlockIr {
                    insts,
                    term: Term::SpawnStart { lo: 0, hi: 0, harness: 1, cont: 2 },
                    parallel: false,
                    src_line: 0,
                },
                BlockIr { insts: body, term: Term::Jmp(1), parallel: true, src_line: 0 },
                BlockIr { insts: vec![], term: Term::Halt, parallel: false, src_line: 0 },
            ],
        );
        f.is_main = false;
        match allocate(&f) {
            Ok(asg) => assert!(asg.reg(8).is_some_and(|r| S_POOL.contains(&r))),
            Err(e) => assert!(matches!(e, CompileError::RegisterSpill { .. }), "{e}"),
        }
    }

    #[test]
    fn loop_carried_value_spans_loop() {
        // v0 defined in b0, used in loop body b1 which loops on itself.
        let f = simple_fn(
            2,
            vec![
                BlockIr {
                    insts: vec![Inst::Li { d: 0, imm: 3 }],
                    term: Term::Jmp(1),
                    parallel: false,
                    src_line: 0,
                },
                BlockIr {
                    insts: vec![Inst::Bin {
                        op: BinK::Sub,
                        d: 0,
                        a: Operand::V(0),
                        b: Operand::C(1),
                    }],
                    term: Term::Br { cond: 0, t: 1, f: 2 },
                    parallel: false,
                    src_line: 0,
                },
                BlockIr { insts: vec![], term: Term::Halt, parallel: false, src_line: 0 },
            ],
        );
        let asg = allocate(&f).unwrap();
        assert!(asg.reg(0).is_some());
    }

    #[test]
    fn float_allocation_independent() {
        let f = IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Float, Class::Float, Class::Int],
            blocks: vec![BlockIr {
                insts: vec![
                    Inst::FLi { d: 0, imm: 1.0 },
                    Inst::FLi { d: 1, imm: 2.0 },
                    Inst::FCmp { op: FCmpK::Lt, d: 2, a: 0, b: 1 },
                    Inst::Print { s: 2 },
                ],
                term: Term::Halt,
                parallel: false,
                src_line: 0,
            }],
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: true,
        };
        let asg = allocate(&f).unwrap();
        assert!(asg.freg(0).is_some());
        assert!(asg.freg(1).is_some());
        assert_ne!(asg.freg(0), asg.freg(1));
        assert!(asg.reg(2).is_some());
    }
}
