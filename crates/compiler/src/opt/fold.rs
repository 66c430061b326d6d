//! Constant folding and algebraic simplification (per basic block).
//!
//! Virtual registers defined by `Li` are tracked within each block;
//! integer operands are replaced by constants, fully-constant operations
//! are evaluated, and multiplications by powers of two become shifts
//! (the MDU is a shared, contended resource — paper Fig. 1 — so trading
//! a `mul` for a per-TCU shift is a real win).

use crate::ir::*;

/// Run folding over every block of a function.
pub fn run(f: &mut IrFunction) {
    // vreg -> known constant, valid until redefinition: `since[v]` is
    // when `v` was last loaded with a constant (0 = not), and a value
    // from before the current block's start is not known.
    let nv = f.vclass.len();
    let mut value = vec![0i32; nv];
    let mut since = vec![0u32; nv];
    let mut now = 0;
    for b in &mut f.blocks {
        now += 1;
        let block_start = now;
        let known = |v: V, since: &[u32]| since[v as usize] >= block_start;
        for inst in &mut b.insts {
            now += 1;
            // Replace operands with constants where known.
            if let Inst::Bin { a, b: ob, .. } = inst {
                for o in [a, ob] {
                    if let Operand::V(v) = *o {
                        if known(v, &since) {
                            *o = Operand::C(value[v as usize]);
                        }
                    }
                }
            }
            // Evaluate / simplify.
            if let Inst::Bin { op, d, a, b: ob } = *inst {
                let folded = match (a, ob) {
                    (Operand::C(x), Operand::C(y)) => eval(op, x, y).map(|imm| Inst::Li { d, imm }),
                    (Operand::V(x), Operand::C(y)) => simplify_vc(op, d, x, y),
                    (Operand::C(x), Operand::V(y)) => simplify_cv(op, d, x, y),
                    _ => None,
                };
                if let Some(s) = folded {
                    *inst = s;
                }
            }
            // Update known-constant map.
            match inst {
                Inst::Li { d, imm } => {
                    value[*d as usize] = *imm;
                    since[*d as usize] = now;
                }
                other => {
                    if let Some(d) = other.def() {
                        since[d as usize] = 0;
                    }
                }
            }
        }
    }
}

fn eval(op: BinK, a: i32, b: i32) -> Option<i32> {
    Some(match op {
        BinK::Add => a.wrapping_add(b),
        BinK::Sub => a.wrapping_sub(b),
        BinK::Mul => a.wrapping_mul(b),
        BinK::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinK::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinK::And => a & b,
        BinK::Or => a | b,
        BinK::Xor => a ^ b,
        BinK::Shl => ((a as u32) << (b as u32 & 31)) as i32,
        BinK::Sra => a >> (b as u32 & 31),
        BinK::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
        BinK::Slt => (a < b) as i32,
        BinK::Sltu => ((a as u32) < b as u32) as i32,
        BinK::Seq => (a == b) as i32,
        BinK::Sne => (a != b) as i32,
        BinK::Sle => (a <= b) as i32,
        BinK::Sgt => (a > b) as i32,
        BinK::Sge => (a >= b) as i32,
    })
}

/// Simplify `d = x op const`.
fn simplify_vc(op: BinK, d: V, x: V, y: i32) -> Option<Inst> {
    match (op, y) {
        (BinK::Add | BinK::Sub | BinK::Or | BinK::Xor | BinK::Shl | BinK::Sra | BinK::Srl, 0) => {
            Some(Inst::Mov { d, s: x })
        }
        (BinK::Mul, 0) | (BinK::And, 0) => Some(Inst::Li { d, imm: 0 }),
        (BinK::Mul, 1) | (BinK::Div, 1) => Some(Inst::Mov { d, s: x }),
        (BinK::Mul, m) if m > 0 && (m as u32).is_power_of_two() => Some(Inst::Bin {
            op: BinK::Shl,
            d,
            a: Operand::V(x),
            b: Operand::C((m as u32).trailing_zeros() as i32),
        }),
        (BinK::Rem, 1) => Some(Inst::Li { d, imm: 0 }),
        _ => None,
    }
}

/// Simplify `d = const op x`.
fn simplify_cv(op: BinK, d: V, x: i32, y: V) -> Option<Inst> {
    match (op, x) {
        (BinK::Add | BinK::Or | BinK::Xor, 0) => Some(Inst::Mov { d, s: y }),
        (BinK::Mul, 0) | (BinK::And, 0) => Some(Inst::Li { d, imm: 0 }),
        (BinK::Mul, 1) => Some(Inst::Mov { d, s: y }),
        (BinK::Mul, m) if m > 0 && (m as u32).is_power_of_two() => Some(Inst::Bin {
            op: BinK::Shl,
            d,
            a: Operand::V(y),
            b: Operand::C((m as u32).trailing_zeros() as i32),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func_with(insts: Vec<Inst>) -> IrFunction {
        IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Int; 16],
            blocks: vec![BlockIr { insts, term: Term::Halt, parallel: false, src_line: 0 }],
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: true,
        }
    }

    #[test]
    fn folds_constants_through_chain() {
        let mut f = func_with(vec![
            Inst::Li { d: 0, imm: 6 },
            Inst::Li { d: 1, imm: 7 },
            Inst::Bin { op: BinK::Mul, d: 2, a: Operand::V(0), b: Operand::V(1) },
            Inst::Bin { op: BinK::Add, d: 3, a: Operand::V(2), b: Operand::C(8) },
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts[2], Inst::Li { d: 2, imm: 42 });
        assert_eq!(f.blocks[0].insts[3], Inst::Li { d: 3, imm: 50 });
    }

    #[test]
    fn mul_by_pow2_becomes_shift() {
        let mut f = func_with(vec![Inst::Bin {
            op: BinK::Mul,
            d: 1,
            a: Operand::V(0),
            b: Operand::C(8),
        }]);
        run(&mut f);
        assert_eq!(
            f.blocks[0].insts[0],
            Inst::Bin { op: BinK::Shl, d: 1, a: Operand::V(0), b: Operand::C(3) }
        );
    }

    #[test]
    fn identities_become_moves() {
        let mut f = func_with(vec![
            Inst::Bin { op: BinK::Add, d: 1, a: Operand::V(0), b: Operand::C(0) },
            Inst::Bin { op: BinK::Mul, d: 2, a: Operand::V(0), b: Operand::C(0) },
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts[0], Inst::Mov { d: 1, s: 0 });
        assert_eq!(f.blocks[0].insts[1], Inst::Li { d: 2, imm: 0 });
    }

    #[test]
    fn redefinition_invalidates_constants() {
        // v0 = 5; v0 = load; v1 = v0 + 1 — must NOT fold v1 to 6.
        let mut f = func_with(vec![
            Inst::Li { d: 0, imm: 5 },
            Inst::Ld { d: 0, addr: 3, off: 0, ro: false, volatile: false },
            Inst::Bin { op: BinK::Add, d: 1, a: Operand::V(0), b: Operand::C(1) },
        ]);
        run(&mut f);
        assert_eq!(
            f.blocks[0].insts[2],
            Inst::Bin { op: BinK::Add, d: 1, a: Operand::V(0), b: Operand::C(1) }
        );
    }

    #[test]
    fn division_by_zero_constant_folds_to_zero() {
        // The simulator defines x/0 = 0; folding must agree.
        let mut f = func_with(vec![Inst::Bin {
            op: BinK::Div,
            d: 1,
            a: Operand::C(9),
            b: Operand::C(0),
        }]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts[0], Inst::Li { d: 1, imm: 0 });
    }
}
