//! Local (per-block) copy propagation and common-subexpression
//! elimination.
//!
//! Both passes respect the XMT memory model obligations (§IV-A):
//! `ps`, `psm` and `fence` kill all memory-dependent facts, so no load is
//! ever reused across a prefix-sum, and `volatile` loads are never
//! coalesced at all.

use crate::ir::*;
use std::collections::HashMap;

const NONE: V = V::MAX;

/// Facts of the form "`d` holds the value of `s`", learned within one
/// block, on dense vreg ids. Time advances by two per instruction: kills
/// happen at even times, facts are learned at odd ones, and a fact holds
/// while nothing killed its source after it was learned. A fact from an
/// earlier block is older than `block_start`, so blocks need no reset.
struct Facts {
    src: Vec<V>,
    learned: Vec<u32>,
    /// When each vreg last stopped being a valid source.
    killed: Vec<u32>,
    block_start: u32,
}

impl Facts {
    fn new(nv: usize) -> Self {
        Facts { src: vec![NONE; nv], learned: vec![0; nv], killed: vec![0; nv], block_start: 0 }
    }

    /// The source `v` is known to copy, if any.
    #[inline]
    fn get(&self, v: V) -> Option<V> {
        let (s, t) = (self.src[v as usize], self.learned[v as usize]);
        (s != NONE && t >= self.block_start && self.killed[s as usize] < t).then_some(s)
    }

    fn learn(&mut self, d: V, s: V, now: u32) {
        self.src[d as usize] = s;
        self.learned[d as usize] = now;
    }

    /// Forget what `d` copies, and every fact whose source is `d`.
    fn kill(&mut self, d: V, now: u32) {
        self.src[d as usize] = NONE;
        self.killed[d as usize] = now;
    }
}

/// Replace uses of `Mov` destinations by their sources within blocks.
pub fn copy_propagate(f: &mut IrFunction) {
    let mut copies = Facts::new(f.vclass.len());
    let mut now = 0;
    let resolve = |copies: &Facts, v: V| -> V {
        let mut v = v;
        let mut depth = 0;
        while let Some(s) = copies.get(v) {
            v = s;
            depth += 1;
            if depth > 32 {
                break;
            }
        }
        v
    };
    for b in &mut f.blocks {
        now += 2;
        copies.block_start = now;
        for inst in &mut b.insts {
            now += 2;
            // Rewrite uses first.
            rewrite_uses(inst, |v| resolve(&copies, v));
            // Kill facts about the redefined register.
            if let Some(d) = inst.def() {
                copies.kill(d, now);
            }
            // Learn new copies.
            match inst {
                Inst::Mov { d, s } | Inst::FMov { d, s } if d != s => {
                    copies.learn(*d, *s, now + 1);
                }
                _ => {}
            }
        }
        // Terminator uses.
        match &mut b.term {
            Term::Br { cond, .. } => *cond = resolve(&copies, *cond),
            Term::Ret(Some(v)) => *v = resolve(&copies, *v),
            Term::SpawnStart { lo, hi, .. } => {
                *lo = resolve(&copies, *lo);
                *hi = resolve(&copies, *hi);
            }
            _ => {}
        }
    }
}

/// A value CSE can reuse: the operation and its operands, packed.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct Key(u64, u64);

/// The vreg holding an available value, when it became available, and
/// what kills it: its operand vregs and, for loads, any memory effect.
#[derive(Clone, Copy)]
struct Avail {
    v: V,
    at: u32,
    operands: [V; 2],
    load: bool,
}

/// The key of a value `inst` computes, and its operand vregs: a tag, an
/// operation and two operand words (each flagged as a constant or a
/// vreg), so two keys are equal exactly when the instructions compute
/// the same value from the same operands.
fn key_of(inst: &Inst, syms: &mut HashMap<String, u32>) -> Option<(Key, [V; 2])> {
    let v = |v: V| (v as u64, v, 0);
    let c = |c: u32| (c as u64, NONE, 1);
    let opnd = |o: Operand| match o {
        Operand::V(x) => v(x),
        Operand::C(k) => c(k as u32),
    };
    let pack = |tag: u64, op: u64, (a, va, ca): (u64, V, u64), (b, vb, cb): (u64, V, u64)| {
        (Key(tag | op << 4 | ca << 9 | cb << 10, a | b << 32), [va, vb])
    };
    Some(match inst {
        Inst::Bin { op, a, b, .. } => pack(0, *op as u64, opnd(*a), opnd(*b)),
        Inst::FBin { op, a, b, .. } => pack(1, *op as u64, v(*a), v(*b)),
        Inst::Li { imm, .. } => pack(2, 0, c(*imm as u32), c(0)),
        Inst::FLi { imm, .. } => pack(3, 0, c(imm.to_bits()), c(0)),
        Inst::La { symbol, .. } => {
            let id = match syms.get(symbol.as_str()) {
                Some(&id) => id,
                None => {
                    let id = syms.len() as u32;
                    syms.insert(symbol.clone(), id);
                    id
                }
            };
            pack(4, 0, c(id), c(0))
        }
        Inst::SlotAddr { slot, .. } => pack(5, 0, c(*slot), c(0)),
        Inst::CvtIF { s, .. } => pack(6, 1, v(*s), c(0)),
        Inst::CvtFI { s, .. } => pack(6, 0, v(*s), c(0)),
        Inst::FCmp { op, a, b, .. } => pack(7, *op as u64, v(*a), v(*b)),
        Inst::Ld { addr, off, volatile: false, .. } => pack(8, 0, v(*addr), c(*off as u32)),
        Inst::FLd { addr, off, .. } => pack(9, 0, v(*addr), c(*off as u32)),
        _ => return None,
    })
}

/// Local CSE over pure operations and (non-volatile) loads.
pub fn cse(f: &mut IrFunction) {
    let nv = f.vclass.len();
    let mut st = Cse {
        avail: HashMap::new(),
        reg_killed: vec![0; nv],
        mem_killed: 0,
        replaced: Facts::new(nv),
        syms: HashMap::new(),
        now: 0,
    };
    for b in &mut f.blocks {
        st.block(b);
    }
}

/// CSE state for one function, on dense vreg ids and the clock of
/// [`Facts`]: an available value holds while neither it, an operand nor
/// (for a load) memory was killed after it became available.
struct Cse {
    /// At most one live entry per key: a key is only added when no live
    /// entry has it, so lookup is the first match.
    avail: HashMap<Key, Avail>,
    reg_killed: Vec<u32>,
    mem_killed: u32,
    /// Destinations of reused values → the vreg they were replaced by.
    replaced: Facts,
    /// `La` symbols, numbered for keys.
    syms: HashMap<String, u32>,
    now: u32,
}

impl Cse {
    fn live(&self, a: &Avail) -> bool {
        let killed = |v: V| v != NONE && self.reg_killed[v as usize] >= a.at;
        let [x, y] = a.operands;
        !(killed(a.v) || killed(x) || killed(y) || a.load && self.mem_killed >= a.at)
    }

    fn block(&mut self, b: &mut BlockIr) {
        self.avail.clear();
        self.now += 2;
        self.replaced.block_start = self.now;
        for inst in &mut b.insts {
            self.now += 2;
            let now = self.now;
            let replaced = &self.replaced;
            rewrite_uses(inst, |v| replaced.get(v).unwrap_or(v));

            let key = key_of(inst, &mut self.syms);
            if let (Some((key, ..)), Some(d)) = (key, inst.def()) {
                if let Some(prev) = self.avail.get(&key).filter(|a| self.live(a)).map(|a| a.v) {
                    // Only safe if `prev` hasn't been redefined since — the
                    // kill logic guarantees that. But the destination may be
                    // live elsewhere (non-SSA), so keep the def as a move.
                    let is_float = matches!(
                        inst,
                        Inst::FBin { .. } | Inst::FLi { .. } | Inst::FLd { .. } | Inst::CvtIF { .. }
                    );
                    *inst = if is_float {
                        Inst::FMov { d, s: prev }
                    } else {
                        Inst::Mov { d, s: prev }
                    };
                    self.replaced.learn(d, prev, now + 1);
                    self.reg_killed[d as usize] = now;
                    continue;
                }
            }

            // Effects on available facts.
            match inst {
                Inst::St { .. } | Inst::FSt { .. } | Inst::Psm { .. } | Inst::Fence
                | Inst::Call { .. } | Inst::Alloc { .. } => self.mem_killed = now,
                Inst::Ps { .. } | Inst::GrPut { .. } => self.mem_killed = now,
                _ => {}
            }
            if let Some(d) = inst.def() {
                self.reg_killed[d as usize] = now;
                self.replaced.kill(d, now);
                if let Some((key, operands)) = key {
                    let load = matches!(inst, Inst::Ld { .. } | Inst::FLd { .. });
                    self.avail.insert(key, Avail { v: d, at: now + 1, operands, load });
                }
            }
        }
        // Fix terminator uses.
        let replaced = &self.replaced;
        let fix = |v: &mut V| *v = replaced.get(*v).unwrap_or(*v);
        match &mut b.term {
            Term::Br { cond, .. } => fix(cond),
            Term::Ret(Some(v)) => fix(v),
            Term::SpawnStart { lo, hi, .. } => {
                fix(lo);
                fix(hi);
            }
            _ => {}
        }
    }
}

/// Rewrite every vreg use in an instruction.
fn rewrite_uses(inst: &mut Inst, f: impl Fn(V) -> V) {
    use Inst::*;
    match inst {
        Bin { a, b, .. } => {
            if let Operand::V(v) = a {
                *v = f(*v);
            }
            if let Operand::V(v) = b {
                *v = f(*v);
            }
        }
        FBin { a, b, .. } | FCmp { a, b, .. } => {
            *a = f(*a);
            *b = f(*b);
        }
        Mov { s, .. } | FMov { s, .. } | FNeg { s, .. } | CvtIF { s, .. } | CvtFI { s, .. }
        | GrPut { s, .. } | Print { s } | PrintF { s } | PrintC { s } => *s = f(*s),
        Ld { addr, .. } | FLd { addr, .. } | Pref { addr, .. } => *addr = f(*addr),
        St { s, addr, .. } | FSt { s, addr, .. } => {
            *s = f(*s);
            *addr = f(*addr);
        }
        Psm { addr, .. } => {
            // `s_d` is both a use and a def held in one field: rewriting
            // it would redirect the *definition* to another vreg. Leave
            // it alone; only the address operand is a pure use.
            *addr = f(*addr);
        }
        Ps { .. } => {}
        Call { args, .. } => {
            for a in args {
                *a = f(*a);
            }
        }
        Alloc { size, .. } => *size = f(*size),
        Li { .. } | FLi { .. } | Tid { .. } | La { .. } | SlotAddr { .. } | Fence
        | GrGet { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func_with(insts: Vec<Inst>) -> IrFunction {
        IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Int; 32],
            blocks: vec![BlockIr { insts, term: Term::Halt, parallel: false, src_line: 0 }],
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: true,
        }
    }

    #[test]
    fn copies_propagate_into_uses() {
        let mut f = func_with(vec![
            Inst::Li { d: 0, imm: 3 },
            Inst::Mov { d: 1, s: 0 },
            Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(1), b: Operand::V(1) },
        ]);
        copy_propagate(&mut f);
        assert_eq!(
            f.blocks[0].insts[2],
            Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(0), b: Operand::V(0) }
        );
    }

    #[test]
    fn copy_killed_by_source_redefinition() {
        let mut f = func_with(vec![
            Inst::Mov { d: 1, s: 0 },
            Inst::Li { d: 0, imm: 9 }, // kills the copy
            Inst::Print { s: 1 },
        ]);
        copy_propagate(&mut f);
        assert_eq!(f.blocks[0].insts[2], Inst::Print { s: 1 });
    }

    #[test]
    fn cse_reuses_pure_computation() {
        let mut f = func_with(vec![
            Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(0), b: Operand::V(1) },
            Inst::Bin { op: BinK::Add, d: 3, a: Operand::V(0), b: Operand::V(1) },
        ]);
        cse(&mut f);
        assert_eq!(f.blocks[0].insts[1], Inst::Mov { d: 3, s: 2 });
    }

    #[test]
    fn cse_load_killed_by_store_and_psm() {
        let mut f = func_with(vec![
            Inst::Ld { d: 1, addr: 0, off: 0, ro: false, volatile: false },
            Inst::St { s: 5, addr: 0, off: 0, nb: false },
            Inst::Ld { d: 2, addr: 0, off: 0, ro: false, volatile: false },
            Inst::Psm { s_d: 6, addr: 0, off: 0 },
            Inst::Ld { d: 3, addr: 0, off: 0, ro: false, volatile: false },
        ]);
        cse(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::Ld { .. }));
        assert!(matches!(f.blocks[0].insts[4], Inst::Ld { .. }));
    }

    #[test]
    fn cse_reuses_load_when_safe() {
        let mut f = func_with(vec![
            Inst::Ld { d: 1, addr: 0, off: 4, ro: false, volatile: false },
            Inst::Ld { d: 2, addr: 0, off: 4, ro: false, volatile: false },
        ]);
        cse(&mut f);
        assert_eq!(f.blocks[0].insts[1], Inst::Mov { d: 2, s: 1 });
    }

    #[test]
    fn volatile_loads_never_coalesce() {
        let mut f = func_with(vec![
            Inst::Ld { d: 1, addr: 0, off: 0, ro: false, volatile: true },
            Inst::Ld { d: 2, addr: 0, off: 0, ro: false, volatile: true },
        ]);
        cse(&mut f);
        assert!(matches!(f.blocks[0].insts[1], Inst::Ld { .. }));
    }

    #[test]
    fn cse_respects_operand_redefinition() {
        let mut f = func_with(vec![
            Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(0), b: Operand::V(1) },
            Inst::Li { d: 0, imm: 7 },
            Inst::Bin { op: BinK::Add, d: 3, a: Operand::V(0), b: Operand::V(1) },
        ]);
        cse(&mut f);
        assert!(matches!(f.blocks[0].insts[2], Inst::Bin { .. }));
    }
}
