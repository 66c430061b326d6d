//! Dead-code elimination.
//!
//! Removes pure instructions whose results are never used (anywhere in
//! the function — the IR is not SSA, so use counts are global), and
//! iterates until a fixed point since removing one dead instruction can
//! make its operands' definitions dead too. Unreachable blocks are also
//! emptied.

use crate::ir::*;

const NONE: u32 = u32::MAX;

/// Run DCE on one function.
///
/// Keeps a use count per vreg and a worklist of vregs whose count fell to
/// zero: removing an instruction only ever lowers counts, so this reaches
/// the same fixed point as re-scanning every use until nothing changes.
pub fn run(f: &mut IrFunction) {
    remove_unreachable(f);
    let nv = f.vclass.len();
    let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
    // Uses per vreg. (A param's def is the prologue, which never dies.)
    let mut uses = vec![0u32; nv];
    // The pure instructions defining each vreg, as linked lists over
    // instruction ids (function order).
    let mut first_def = vec![NONE; nv];
    let mut next_def = vec![NONE; insts.len()];
    for (id, i) in insts.iter().enumerate() {
        i.each_use(|u| uses[u as usize] += 1);
        if let Some(d) = i.def().filter(|_| i.is_pure()) {
            next_def[id] = first_def[d as usize];
            first_def[d as usize] = id as u32;
        }
    }
    for b in &f.blocks {
        b.term.each_use(|u| uses[u as usize] += 1);
    }
    let mut work: Vec<V> = insts
        .iter()
        .filter_map(|i| i.def().filter(|&d| i.is_pure() && uses[d as usize] == 0))
        .collect();
    let mut dead = vec![false; insts.len()];
    while let Some(v) = work.pop() {
        // Taking the list makes a vreg queued twice a no-op.
        let mut id = std::mem::replace(&mut first_def[v as usize], NONE);
        while id != NONE {
            dead[id as usize] = true;
            insts[id as usize].each_use(|u| {
                uses[u as usize] -= 1;
                if uses[u as usize] == 0 {
                    work.push(u);
                }
            });
            id = next_def[id as usize];
        }
    }
    let mut id = 0;
    for b in &mut f.blocks {
        b.insts.retain(|_| {
            id += 1;
            !dead[id - 1]
        });
    }
}

/// Empty blocks that no path reaches (they keep their slot so block ids
/// stay stable, but cost nothing downstream).
fn remove_unreachable(f: &mut IrFunction) {
    let mut reach = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut reach[b as usize], true) {
            continue;
        }
        for s in f.blocks[b as usize].term.succs() {
            stack.push(s);
        }
    }
    for (k, b) in f.blocks.iter_mut().enumerate() {
        if !reach[k] {
            b.insts.clear();
            b.term = Term::Jmp(k as Bb); // harmless self-loop, never emitted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(blocks: Vec<BlockIr>) -> IrFunction {
        IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Int; 32],
            blocks,
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: true,
        }
    }

    #[test]
    fn removes_dead_chains() {
        let mut f = func(vec![BlockIr {
            insts: vec![
                Inst::Li { d: 0, imm: 1 },                                        // dead chain
                Inst::Bin { op: BinK::Add, d: 1, a: Operand::V(0), b: Operand::C(2) }, // dead
                Inst::Li { d: 2, imm: 5 },
                Inst::Print { s: 2 }, // keeps v2 alive
            ],
            term: Term::Halt,
            parallel: false,
            src_line: 0,
        }]);
        run(&mut f);
        assert_eq!(
            f.blocks[0].insts,
            vec![Inst::Li { d: 2, imm: 5 }, Inst::Print { s: 2 }]
        );
    }

    #[test]
    fn side_effects_always_kept() {
        let mut f = func(vec![BlockIr {
            insts: vec![
                Inst::St { s: 0, addr: 1, off: 0, nb: false },
                Inst::Psm { s_d: 2, addr: 1, off: 0 }, // result unused but effectful
                Inst::Ld { d: 3, addr: 1, off: 0, ro: false, volatile: false },
            ],
            term: Term::Halt,
            parallel: false,
            src_line: 0,
        }]);
        run(&mut f);
        // The load's result is unused, but `is_pure` excludes every
        // memory operation, loads included: DCE keeps it like the store
        // and the prefix-sum.
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn terminator_uses_keep_values() {
        let mut f = func(vec![
            BlockIr {
                insts: vec![Inst::Li { d: 0, imm: 1 }],
                term: Term::Br { cond: 0, t: 1, f: 1 },
                parallel: false,
                src_line: 0,
            },
            BlockIr { insts: vec![], term: Term::Halt, parallel: false, src_line: 0 },
        ]);
        run(&mut f);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn unreachable_blocks_emptied() {
        let mut f = func(vec![
            BlockIr { insts: vec![], term: Term::Halt, parallel: false, src_line: 0 },
            BlockIr {
                insts: vec![Inst::Li { d: 0, imm: 9 }, Inst::Print { s: 0 }],
                term: Term::Halt,
                parallel: false,
                src_line: 0,
            },
        ]);
        run(&mut f);
        assert!(f.blocks[1].insts.is_empty());
    }
}
