//! Property test of the linear-scan register allocator on random IR
//! functions: straight-line code, loops, calls and parallel blocks.
//!
//! Liveness is recomputed here the naive way — a live set per
//! instruction, iterated backwards to a fixed point — and the allocation
//! is checked against it:
//!
//! * two same-class vregs that interfere (one is defined while the other
//!   is live, or both are parameters) never share a register or a slot;
//! * a vreg used, defined or live in a parallel block is never spilled;
//! * an integer live across a call sits in an `s` register or a spill
//!   slot, a float in a spill slot (there are no callee-saved FP
//!   registers).
//!
//! A case whose parallel code needs more registers than a TCU has is the
//! paper's register-spill error, not a failure; the test requires at
//! least half of the cases to allocate.

use xmt_harness::prop::{self, Config, Gen};
use xmt_isa::Reg;
use xmtc::ir::*;
use xmtc::regalloc::{allocate, Loc};
use xmtc::CompileError;

const CASES: u32 = 256;

const S_REGS: [Reg; 8] =
    [Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::S4, Reg::S5, Reg::S6, Reg::S7];

/// Uniform in `lo..=hi`.
fn incl(g: &mut Gen, lo: usize, hi: usize) -> usize {
    g.usize_in(lo, hi + 1)
}

/// A random function: `nv` vregs, blocks in layout order, block 0 the
/// entry. An optional spawn region is a run of parallel blocks entered
/// through a `SpawnStart`; calls appear only in serial blocks.
fn gen_function(g: &mut Gen) -> IrFunction {
    let scale = (g.size() as usize / 32).max(1);
    let nb = incl(g, 1, 2 + scale);
    // Parallel region [p0, p1), entered from block p0 - 1.
    let region = (nb >= 3 && g.bool_p(0.5)).then(|| {
        let p0 = incl(g, 1, nb - 2);
        (p0, incl(g, p0 + 1, nb - 1))
    });
    // Every value live across a spawn region is pinned to a register, so
    // such functions get fewer vregs: most of them fit the TCU.
    let nv = incl(g, 2, if region.is_some() { 22 } else { 6 + 6 * scale });
    let vclass: Vec<Class> =
        (0..nv).map(|_| if g.bool_p(0.2) { Class::Float } else { Class::Int }).collect();
    let ints: Vec<V> = (0..nv as V).filter(|&v| vclass[v as usize] == Class::Int).collect();
    let floats: Vec<V> = (0..nv as V).filter(|&v| vclass[v as usize] == Class::Float).collect();
    let parallel = |b: usize| region.is_some_and(|(p0, p1)| p0 <= b && b < p1);
    let mut blocks = Vec::with_capacity(nb);
    for b in 0..nb {
        let par = parallel(b);
        let mut insts = Vec::new();
        for _ in 0..incl(g, 0, 4 + 4 * scale) {
            insts.push(gen_inst(g, &ints, &floats, par));
        }
        let term = match region {
            Some((p0, p1)) if b + 1 == p0 && !ints.is_empty() => Term::SpawnStart {
                lo: *g.choose(&ints),
                hi: *g.choose(&ints),
                harness: p0 as Bb,
                cont: p1 as Bb,
            },
            // Parallel blocks branch only within the region.
            Some((p0, p1)) if par => {
                let t = incl(g, p0, p1 - 1) as Bb;
                match ints.first() {
                    Some(_) if g.bool_p(0.5) => Term::Br {
                        cond: *g.choose(&ints),
                        t,
                        f: incl(g, p0, p1 - 1) as Bb,
                    },
                    _ => Term::Jmp(t),
                }
            }
            _ if b + 1 == nb => {
                if g.bool_p(0.5) || ints.is_empty() {
                    Term::Halt
                } else {
                    Term::Ret(Some(*g.choose(&ints)))
                }
            }
            _ => {
                // Serial blocks may loop back; they never enter the region.
                let pick = |g: &mut Gen| loop {
                    let t = incl(g, 0, nb - 1);
                    if !parallel(t) {
                        return t as Bb;
                    }
                };
                if !ints.is_empty() && g.bool_p(0.5) {
                    let cond = *g.choose(&ints);
                    let t = pick(g);
                    let f = if g.bool_p(0.5) { (b + 1) as Bb } else { pick(g) };
                    let f = if parallel(f as usize) { t } else { f };
                    Term::Br { cond, t, f }
                } else {
                    let t = (b + 1) as Bb;
                    Term::Jmp(if parallel(t as usize) { pick(g) } else { t })
                }
            }
        };
        blocks.push(BlockIr { insts, term, parallel: par, src_line: 0 });
    }
    let params: Vec<V> = ints.iter().copied().filter(|_| g.bool_p(0.15)).take(6).collect();
    IrFunction {
        name: "f".into(),
        params,
        vclass,
        blocks,
        entry: 0,
        slots: vec![4; incl(g, 0, 2)],
        ret: None,
        is_main: false,
    }
}

fn gen_inst(g: &mut Gen, ints: &[V], floats: &[V], parallel: bool) -> Inst {
    let int = |g: &mut Gen| *g.choose(ints);
    let float = |g: &mut Gen| *g.choose(floats);
    let opnd = |g: &mut Gen| {
        if g.bool_p(0.3) {
            Operand::C(g.int_in(-8, 8) as i32)
        } else {
            Operand::V(*g.choose(ints))
        }
    };
    loop {
        let inst = match incl(g, 0, 11) {
            0 | 1 if !ints.is_empty() => Inst::Li { d: int(g), imm: g.int_in(-100, 100) as i32 },
            2 | 3 if !ints.is_empty() => {
                Inst::Bin { op: BinK::Add, d: int(g), a: Operand::V(int(g)), b: opnd(g) }
            }
            4 if !ints.is_empty() => Inst::Mov { d: int(g), s: int(g) },
            5 if !ints.is_empty() => Inst::Print { s: int(g) },
            6 if !ints.is_empty() => Inst::St { s: int(g), addr: int(g), off: 0, nb: false },
            7 if !ints.is_empty() => {
                Inst::Ld { d: int(g), addr: int(g), off: 4, ro: false, volatile: false }
            }
            8 if !floats.is_empty() => Inst::FLi { d: float(g), imm: 1.5 },
            9 if !floats.is_empty() => {
                Inst::FBin { op: FBinK::Mul, d: float(g), a: float(g), b: float(g) }
            }
            10 if !floats.is_empty() && !ints.is_empty() => {
                Inst::CvtIF { d: float(g), s: int(g) }
            }
            11 if !parallel && !ints.is_empty() => {
                let args = (0..incl(g, 0, 3)).map(|_| int(g)).collect();
                let ret = g.bool_p(0.5).then(|| (int(g), Class::Int));
                Inst::Call { name: "g".into(), args, ret }
            }
            _ if ints.is_empty() && floats.is_empty() => return Inst::Fence,
            _ => continue,
        };
        return inst;
    }
}

/// What the allocator must respect, from naive liveness.
struct Facts {
    /// Same-class pairs that must not share a location.
    interfere: Vec<(V, V)>,
    /// Vregs of parallel blocks.
    parallel: Vec<V>,
    /// Vregs live across a call.
    across_call: Vec<V>,
    /// Every vreg the function mentions or keeps live.
    mentioned: Vec<V>,
}

fn uses(i: &Inst) -> Vec<V> {
    let mut out = Vec::new();
    i.each_use(|v| out.push(v));
    out
}

fn facts(f: &IrFunction) -> Facts {
    let nv = f.vclass.len();
    let nb = f.blocks.len();
    // Backwards to a fixed point: live-in of each block.
    let mut live_in = vec![vec![false; nv]; nb];
    // Live set after each instruction, per block (recomputed each round).
    let mut after: Vec<Vec<Vec<bool>>> = vec![Vec::new(); nb];
    loop {
        let mut changed = false;
        for b in (0..nb).rev() {
            let block = &f.blocks[b];
            let mut live = vec![false; nv];
            for s in block.term.succs() {
                for v in 0..nv {
                    live[v] |= live_in[s as usize][v];
                }
            }
            block.term.each_use(|v| live[v as usize] = true);
            let mut outs = vec![Vec::new(); block.insts.len()];
            for (k, inst) in block.insts.iter().enumerate().rev() {
                outs[k] = live.clone();
                if let Some(d) = inst.def() {
                    live[d as usize] = false;
                }
                for u in uses(inst) {
                    live[u as usize] = true;
                }
            }
            after[b] = outs;
            if live != live_in[b] {
                live_in[b] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut fx = Facts {
        interfere: Vec::new(),
        parallel: Vec::new(),
        across_call: Vec::new(),
        mentioned: Vec::new(),
    };
    let same = |a: V, b: V| a != b && f.vclass[a as usize] == f.vclass[b as usize];
    // Parameters are all defined at entry. (Other vregs live there are
    // read before any definition: their value is undefined anyway.)
    for &p in &f.params {
        for &q in &f.params {
            if same(p, q) {
                fx.interfere.push((p, q));
            }
        }
    }
    for (b, block) in f.blocks.iter().enumerate() {
        let live_in_b: Vec<V> = (0..nv as V).filter(|&v| live_in[b][v as usize]).collect();
        let mut seen: Vec<V> = live_in_b.clone();
        for (k, inst) in block.insts.iter().enumerate() {
            let out: Vec<V> = (0..nv as V).filter(|&v| after[b][k][v as usize]).collect();
            if let Some(d) = inst.def() {
                for &v in &out {
                    if same(d, v) {
                        fx.interfere.push((d, v));
                    }
                }
                seen.push(d);
            }
            if let Inst::Call { ret, .. } = inst {
                let ret = ret.map(|(v, _)| v);
                fx.across_call.extend(out.iter().copied().filter(|&v| Some(v) != ret));
            }
            seen.extend(uses(inst));
            seen.extend(out);
        }
        block.term.each_use(|v| seen.push(v));
        if block.parallel {
            fx.parallel.extend(&seen);
        }
        fx.mentioned.extend(seen);
    }
    fx.mentioned.extend(&f.params);
    fx
}

#[test]
fn regalloc_respects_liveness() {
    let mut ran = 0u32;
    let mut allocated = 0u32;
    prop::run("regalloc_props", Config::with_cases(CASES), |g| {
        ran += 1;
        let f = gen_function(g);
        let asg = match allocate(&f) {
            Ok(asg) => asg,
            Err(CompileError::RegisterSpill { .. }) => return,
            Err(e) => panic!("{e}\n{f:#?}"),
        };
        allocated += 1;
        let fx = facts(&f);
        let loc = |v: V| asg.loc[v as usize];
        for &v in &fx.mentioned {
            assert_ne!(loc(v), Loc::None, "v{v} has no location\n{f:#?}");
        }
        for &(a, b) in &fx.interfere {
            assert!(loc(a) != loc(b), "v{a} and v{b} interfere but share {:?}\n{f:#?}", loc(a));
        }
        for &v in &fx.parallel {
            assert!(!matches!(loc(v), Loc::Spill(_)), "parallel v{v} spilled\n{f:#?}");
        }
        for &v in &fx.across_call {
            let ok = match (f.vclass[v as usize], loc(v)) {
                (Class::Int, Loc::Reg(r)) => S_REGS.contains(&r),
                (_, Loc::Spill(_)) => true,
                _ => false,
            };
            assert!(ok, "v{v} lives across a call in {:?}\n{f:#?}", loc(v));
        }
    });
    println!("regalloc_props: ran {ran} cases, {allocated} allocated");
    assert!(allocated * 2 >= ran, "only {allocated} of {ran} cases allocated");
}
