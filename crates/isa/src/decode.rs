//! Pre-decoded operations — the flat, dense form of the simulator's
//! *pure local* instructions (registers and pc only): integer ALU, shifts,
//! register moves, immediates, branches and jumps, and `nop`.
//!
//! [`decode_instr`] *defines* that subset: an instruction is pure-local
//! exactly when it decodes. `xmtsim` executes a [`DecodedOp`] with one
//! function (`decode::exec_op`), on every path that runs the subset —
//! interpreted issue decodes the instruction in hand, and the decode cache
//! replays whole pre-decoded basic blocks (DESIGN.md §10).
//!
//! Everything is resolved at decode time — branch and jump targets become
//! plain absolute pcs ([`Target::abs`] would otherwise be re-resolved every
//! execution), `lui` pre-shifts its immediate, `jal`/`jalr` precompute
//! their link values — and the wide [`Instr`] match collapses into a
//! handful of dense grouped tags.
//!
//! Two *superinstructions* fuse the common dependent pairs:
//!
//! * [`DecodedOp::CmpBr`] — a compare (`slt`/`sltu`/`slti`/`sltiu`)
//!   followed by a conditional branch reading the compare's destination;
//! * [`DecodedOp::LiBin`] — a load-immediate feeding a register-register
//!   ALU op.
//!
//! Fused ops perform *all* architectural effects of both constituents
//! (the compare's destination write happens, the branch re-reads the
//! register file), count as two instructions, and cost the sum of their
//! constituent latencies — so they are observationally identical to the
//! unfused pair.

use crate::instr::{Instr, Target};
use crate::reg::Reg;

/// Register-register ALU operations ([`DecodedOp::Bin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinAlu {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    Slt,
    Sltu,
}

/// Register-immediate ALU operations ([`DecodedOp::Imm`]). The immediate
/// is stored as raw `u32` bits; `Addi`/`Slti` reinterpret it as `i32`,
/// exactly as the interpreted path does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImmAlu {
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
}

/// Shift kinds, shared by the immediate and variable forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShKind {
    Sll,
    Srl,
    Sra,
}

/// Conditional-branch conditions. `Eq`/`Ne` read two registers; the rest
/// read one (the second operand is pinned to [`Reg::Zero`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrCond {
    Eq,
    Ne,
    Lez,
    Gtz,
    Ltz,
    Gez,
}

/// The compare half of a fused [`DecodedOp::CmpBr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `slt`/`sltu` (only [`BinAlu::Slt`]/[`BinAlu::Sltu`] occur here).
    Reg {
        op: BinAlu,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// `slti`/`sltiu` (only [`ImmAlu::Slti`]/[`ImmAlu::Sltiu`] occur here).
    Imm {
        op: ImmAlu,
        rt: Reg,
        rs: Reg,
        imm: u32,
    },
}

impl CmpOp {
    /// The compare's destination register.
    pub fn dest(&self) -> Reg {
        match *self {
            CmpOp::Reg { rd, .. } => rd,
            CmpOp::Imm { rt, .. } => rt,
        }
    }
}

/// One pre-decoded operation. Ops other than the two fused variants map
/// 1:1 onto a burstable [`Instr`]; the fused variants cover two
/// consecutive instructions ([`DecodedOp::constituents`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodedOp {
    /// Register-register ALU.
    Bin {
        op: BinAlu,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Register-immediate ALU.
    Imm {
        op: ImmAlu,
        rt: Reg,
        rs: Reg,
        imm: u32,
    },
    /// Load immediate.
    Li { rt: Reg, imm: i32 },
    /// Load upper immediate — `upper` is pre-shifted (`imm << 16`).
    Lui { rt: Reg, upper: u32 },
    /// Register move.
    Move { rd: Reg, rs: Reg },
    /// Shift by constant amount.
    ShImm {
        op: ShKind,
        rd: Reg,
        rt: Reg,
        sh: u8,
    },
    /// Shift by register amount (masked to 5 bits, as interpreted).
    ShVar {
        op: ShKind,
        rd: Reg,
        rt: Reg,
        rs: Reg,
    },
    /// No-operation (control cost class, like the interpreter).
    Nop,
    /// Conditional branch to a resolved absolute target. `rt` is only
    /// read for `Eq`/`Ne` and pinned to [`Reg::Zero`] otherwise.
    Br {
        cond: BrCond,
        rs: Reg,
        rt: Reg,
        target: u32,
    },
    /// Unconditional jump.
    J { target: u32 },
    /// Jump-and-link; `link` is the precomputed return pc.
    Jal { target: u32, link: u32 },
    /// Jump register (dynamic target).
    Jr { rs: Reg },
    /// Jump-and-link register; the destination is read *before* the link
    /// write, exactly as interpreted.
    Jalr { rd: Reg, rs: Reg, link: u32 },
    /// Fused superinstruction: `li li_rt, imm` + a dependent
    /// register-register ALU op (2 constituents, 2 ALU counts).
    LiBin {
        li_rt: Reg,
        imm: i32,
        op: BinAlu,
        rd: Reg,
        rs: Reg,
        rt: Reg,
    },
    /// Fused superinstruction: a compare writing `cmp.dest()` + a
    /// conditional branch reading it (2 constituents: 1 ALU + 1 branch).
    /// The branch condition is evaluated from the register file *after*
    /// the compare's write, so `$zero`-destination edge cases behave
    /// identically to the unfused pair.
    CmpBr {
        cmp: CmpOp,
        cond: BrCond,
        brs: Reg,
        brt: Reg,
        target: u32,
    },
}

impl DecodedOp {
    /// How many architectural instructions this op covers (2 for the
    /// fused superinstructions, 1 otherwise).
    pub fn constituents(&self) -> u64 {
        match self {
            DecodedOp::LiBin { .. } | DecodedOp::CmpBr { .. } => 2,
            _ => 1,
        }
    }

    /// The first constituent of a fused op, as the op it was before
    /// fusion; any other op is its own head.
    pub fn head(&self) -> DecodedOp {
        match *self {
            DecodedOp::LiBin { li_rt, imm, .. } => DecodedOp::Li { rt: li_rt, imm },
            DecodedOp::CmpBr {
                cmp: CmpOp::Reg { op, rd, rs, rt },
                ..
            } => DecodedOp::Bin { op, rd, rs, rt },
            DecodedOp::CmpBr {
                cmp: CmpOp::Imm { op, rt, rs, imm },
                ..
            } => DecodedOp::Imm { op, rt, rs, imm },
            op => op,
        }
    }

    /// True when this op (possibly conditionally) redirects the pc — the
    /// ops that end a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            DecodedOp::Br { .. }
                | DecodedOp::J { .. }
                | DecodedOp::Jal { .. }
                | DecodedOp::Jr { .. }
                | DecodedOp::Jalr { .. }
                | DecodedOp::CmpBr { .. }
        )
    }
}

fn abs(t: &Target) -> Option<u32> {
    match t {
        Target::Abs(a) => Some(*a),
        // Unlinked label targets cannot be pre-resolved; the interpreted
        // path surfaces the usual panic.
        Target::Label(_) => None,
    }
}

/// Pre-decode the instruction at `pc` if it belongs to the pure-local
/// subset; `None` for every other instruction (which therefore ends a
/// basic block), and for a branch whose target is still a label.
/// Always inlined: the simulator's interpreted issue path calls it for
/// every instruction, from another crate, and straight into the execution
/// of the op it builds.
#[inline(always)]
pub fn decode_instr(ins: &Instr, pc: u32) -> Option<DecodedOp> {
    use Instr as I;
    Some(match *ins {
        I::Add { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Add,
            rd,
            rs,
            rt,
        },
        I::Sub { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Sub,
            rd,
            rs,
            rt,
        },
        I::And { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::And,
            rd,
            rs,
            rt,
        },
        I::Or { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Or,
            rd,
            rs,
            rt,
        },
        I::Xor { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Xor,
            rd,
            rs,
            rt,
        },
        I::Nor { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Nor,
            rd,
            rs,
            rt,
        },
        I::Slt { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Slt,
            rd,
            rs,
            rt,
        },
        I::Sltu { rd, rs, rt } => DecodedOp::Bin {
            op: BinAlu::Sltu,
            rd,
            rs,
            rt,
        },
        I::Addi { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Addi,
            rt,
            rs,
            imm: imm as u32,
        },
        I::Andi { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Andi,
            rt,
            rs,
            imm,
        },
        I::Ori { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Ori,
            rt,
            rs,
            imm,
        },
        I::Xori { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Xori,
            rt,
            rs,
            imm,
        },
        I::Slti { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Slti,
            rt,
            rs,
            imm: imm as u32,
        },
        I::Sltiu { rt, rs, imm } => DecodedOp::Imm {
            op: ImmAlu::Sltiu,
            rt,
            rs,
            imm,
        },
        I::Li { rt, imm } => DecodedOp::Li { rt, imm },
        I::Lui { rt, imm } => DecodedOp::Lui {
            rt,
            upper: imm << 16,
        },
        I::Move { rd, rs } => DecodedOp::Move { rd, rs },
        I::Sll { rd, rt, sh } => DecodedOp::ShImm {
            op: ShKind::Sll,
            rd,
            rt,
            sh,
        },
        I::Srl { rd, rt, sh } => DecodedOp::ShImm {
            op: ShKind::Srl,
            rd,
            rt,
            sh,
        },
        I::Sra { rd, rt, sh } => DecodedOp::ShImm {
            op: ShKind::Sra,
            rd,
            rt,
            sh,
        },
        I::Sllv { rd, rt, rs } => DecodedOp::ShVar {
            op: ShKind::Sll,
            rd,
            rt,
            rs,
        },
        I::Srlv { rd, rt, rs } => DecodedOp::ShVar {
            op: ShKind::Srl,
            rd,
            rt,
            rs,
        },
        I::Srav { rd, rt, rs } => DecodedOp::ShVar {
            op: ShKind::Sra,
            rd,
            rt,
            rs,
        },
        I::Beq { rs, rt, ref target } => DecodedOp::Br {
            cond: BrCond::Eq,
            rs,
            rt,
            target: abs(target)?,
        },
        I::Bne { rs, rt, ref target } => DecodedOp::Br {
            cond: BrCond::Ne,
            rs,
            rt,
            target: abs(target)?,
        },
        I::Blez { rs, ref target } => DecodedOp::Br {
            cond: BrCond::Lez,
            rs,
            rt: Reg::Zero,
            target: abs(target)?,
        },
        I::Bgtz { rs, ref target } => DecodedOp::Br {
            cond: BrCond::Gtz,
            rs,
            rt: Reg::Zero,
            target: abs(target)?,
        },
        I::Bltz { rs, ref target } => DecodedOp::Br {
            cond: BrCond::Ltz,
            rs,
            rt: Reg::Zero,
            target: abs(target)?,
        },
        I::Bgez { rs, ref target } => DecodedOp::Br {
            cond: BrCond::Gez,
            rs,
            rt: Reg::Zero,
            target: abs(target)?,
        },
        I::J { ref target } => DecodedOp::J {
            target: abs(target)?,
        },
        I::Jal { ref target } => DecodedOp::Jal {
            target: abs(target)?,
            link: pc + 1,
        },
        I::Jr { rs } => DecodedOp::Jr { rs },
        I::Jalr { rd, rs } => DecodedOp::Jalr {
            rd,
            rs,
            link: pc + 1,
        },
        I::Nop => DecodedOp::Nop,
        _ => return None,
    })
}

/// Fuse two consecutive decoded ops into a superinstruction, if they form
/// one of the recognized dependent pairs. `a` must immediately precede
/// `b` in the instruction stream.
pub fn fuse(a: &DecodedOp, b: &DecodedOp) -> Option<DecodedOp> {
    use DecodedOp as D;
    match (*a, *b) {
        (D::Li { rt: li_rt, imm }, D::Bin { op, rd, rs, rt }) if rs == li_rt || rt == li_rt => {
            Some(D::LiBin {
                li_rt,
                imm,
                op,
                rd,
                rs,
                rt,
            })
        }
        (
            D::Bin {
                op: op @ (BinAlu::Slt | BinAlu::Sltu),
                rd,
                rs,
                rt,
            },
            D::Br {
                cond,
                rs: brs,
                rt: brt,
                target,
            },
        ) if brs == rd || (matches!(cond, BrCond::Eq | BrCond::Ne) && brt == rd) => {
            Some(D::CmpBr {
                cmp: CmpOp::Reg { op, rd, rs, rt },
                cond,
                brs,
                brt,
                target,
            })
        }
        (
            D::Imm {
                op: op @ (ImmAlu::Slti | ImmAlu::Sltiu),
                rt,
                rs,
                imm,
            },
            D::Br {
                cond,
                rs: brs,
                rt: brt,
                target,
            },
        ) if brs == rt || (matches!(cond, BrCond::Eq | BrCond::Ne) && brt == rt) => {
            Some(D::CmpBr {
                cmp: CmpOp::Imm { op, rt, rs, imm },
                cond,
                brs,
                brt,
                target,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burstable_subset_decodes_and_the_rest_does_not() {
        let yes = [
            Instr::Add {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2,
            },
            Instr::Slti {
                rt: Reg::T0,
                rs: Reg::T1,
                imm: -7,
            },
            Instr::Lui {
                rt: Reg::T0,
                imm: 0x1234,
            },
            Instr::Srav {
                rd: Reg::T0,
                rt: Reg::T1,
                rs: Reg::T2,
            },
            Instr::Bgez {
                rs: Reg::T0,
                target: Target::Abs(3),
            },
            Instr::Jalr {
                rd: Reg::S1,
                rs: Reg::T3,
            },
            Instr::Nop,
        ];
        for i in &yes {
            assert!(decode_instr(i, 5).is_some(), "{i:?} should decode");
        }
        let no = [
            Instr::Lw {
                rt: Reg::T0,
                base: Reg::T1,
                off: 0,
            },
            Instr::Mul {
                rd: Reg::T0,
                rs: Reg::T1,
                rt: Reg::T2,
            },
            Instr::Ps {
                rt: Reg::T0,
                gr: crate::GlobalReg::THREAD_ALLOC,
            },
            Instr::Print { rs: Reg::T0 },
            Instr::Halt,
            Instr::Join,
            Instr::Fence,
        ];
        for i in &no {
            assert!(decode_instr(i, 5).is_none(), "{i:?} must not decode");
        }
    }

    #[test]
    fn targets_resolve_and_links_precompute() {
        let j = decode_instr(
            &Instr::Jal {
                target: Target::Abs(17),
            },
            9,
        )
        .unwrap();
        assert_eq!(
            j,
            DecodedOp::Jal {
                target: 17,
                link: 10
            }
        );
        // Unresolved labels refuse to decode instead of panicking.
        assert!(decode_instr(
            &Instr::J {
                target: Target::label("loop")
            },
            0
        )
        .is_none());
        let l = decode_instr(
            &Instr::Lui {
                rt: Reg::T0,
                imm: 3,
            },
            0,
        )
        .unwrap();
        assert_eq!(
            l,
            DecodedOp::Lui {
                rt: Reg::T0,
                upper: 3 << 16
            }
        );
    }

    #[test]
    fn fusion_pairs() {
        let li = decode_instr(
            &Instr::Li {
                rt: Reg::T0,
                imm: 42,
            },
            0,
        )
        .unwrap();
        let add = decode_instr(
            &Instr::Add {
                rd: Reg::T1,
                rs: Reg::T0,
                rt: Reg::T2,
            },
            1,
        )
        .unwrap();
        let fused = fuse(&li, &add).unwrap();
        assert_eq!(fused.constituents(), 2);
        assert!(!fused.is_terminator());

        let slt = decode_instr(
            &Instr::Slt {
                rd: Reg::T3,
                rs: Reg::T1,
                rt: Reg::T2,
            },
            2,
        )
        .unwrap();
        let bne = decode_instr(
            &Instr::Bne {
                rs: Reg::T3,
                rt: Reg::Zero,
                target: Target::Abs(0),
            },
            3,
        )
        .unwrap();
        let cb = fuse(&slt, &bne).unwrap();
        assert_eq!(cb.constituents(), 2);
        assert!(cb.is_terminator());

        // Independent pairs do not fuse.
        let unrelated = decode_instr(
            &Instr::Add {
                rd: Reg::T5,
                rs: Reg::T6,
                rt: Reg::T7,
            },
            1,
        )
        .unwrap();
        assert!(fuse(&li, &unrelated).is_none());
        let beq_other = decode_instr(
            &Instr::Beq {
                rs: Reg::T6,
                rt: Reg::T7,
                target: Target::Abs(0),
            },
            3,
        )
        .unwrap();
        assert!(fuse(&slt, &beq_other).is_none());
    }
}
