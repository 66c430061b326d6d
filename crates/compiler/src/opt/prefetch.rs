//! Compiler prefetch insertion (paper §IV-C, reference \[8\]).
//!
//! The shared first level of cache sits ~30 cycles away over the
//! interconnect, so consecutive blocking loads serialize round trips.
//! This pass batches independent loads within a (parallel) basic block:
//! address computations of later loads are hoisted above the first load
//! of the group and `pref` instructions are issued for them, so all the
//! round trips overlap and later loads hit the TCU prefetch buffer.
//!
//! Safety here is conservative and local, as in the paper's pass: a
//! group never extends across a store, `psm`, `fence` or call, and only
//! single-definition temporaries (the normal shape of lowered address
//! arithmetic) are hoisted.

use crate::ir::*;

/// Insert prefetches in all parallel blocks; returns the number of
/// `pref` instructions inserted.
pub fn insert_prefetches(f: &mut IrFunction, max_batch: usize) -> usize {
    // Count definitions per vreg across the whole function: only
    // single-def temporaries may be hoisted.
    let mut def_count = vec![0u32; f.vclass.len()];
    for b in &f.blocks {
        for i in &b.insts {
            if let Some(d) = i.def() {
                def_count[d as usize] += 1;
            }
        }
    }
    let single_def = |v: V| def_count[v as usize] == 1;

    let mut inserted = 0;
    for b in &mut f.blocks {
        if !b.parallel {
            continue;
        }
        inserted += prefetch_block(b, max_batch, &single_def);
    }
    inserted
}

fn is_barrier(i: &Inst) -> bool {
    matches!(
        i,
        Inst::St { .. }
            | Inst::FSt { .. }
            | Inst::Psm { .. }
            | Inst::Ps { .. }
            | Inst::Fence
            | Inst::Call { .. }
            | Inst::Alloc { .. }
            | Inst::Tid { .. }
    )
}

fn is_plain_load(i: &Inst) -> Option<(V, i32)> {
    match i {
        Inst::Ld { addr, off, ro: false, volatile: false, .. } => Some((*addr, *off)),
        Inst::FLd { addr, off, .. } => Some((*addr, *off)),
        _ => None,
    }
}

fn prefetch_block(b: &mut BlockIr, max_batch: usize, single_def: &dyn Fn(V) -> bool) -> usize {
    // Find the first group: first load index.
    let mut inserted = 0;
    let mut start = 0usize;
    loop {
        let insts = &b.insts;
        let Some(i0) = (start..insts.len()).find(|&k| is_plain_load(&insts[k]).is_some())
        else {
            break;
        };
        // Collect later loads eligible for this group.
        let mut hoist: Vec<usize> = Vec::new(); // instruction indices to copy above i0
        let mut prefs: Vec<(V, i32)> = Vec::new();
        let mut k = i0 + 1;
        while k < insts.len() && prefs.len() + 1 < max_batch {
            if is_barrier(&insts[k]) {
                break;
            }
            if let Some((addr, off)) = is_plain_load(&insts[k]) {
                // Is the address computable at i0 (possibly by hoisting)?
                let mut extra: Vec<usize> = Vec::new();
                if addr_available(insts, addr, i0, k, single_def, &mut extra) {
                    for e in extra {
                        if !hoist.contains(&e) {
                            hoist.push(e);
                        }
                    }
                    if !prefs.contains(&(addr, off)) {
                        // Don't prefetch what the first load already fetches.
                        let first = is_plain_load(&insts[i0]).unwrap();
                        if (addr, off) != first {
                            prefs.push((addr, off));
                        }
                    }
                }
            }
            k += 1;
        }
        if prefs.is_empty() {
            start = i0 + 1;
            continue;
        }
        // Apply: move hoisted instructions (in original order) to just
        // before i0, then insert the prefs.
        hoist.sort_unstable();
        let group_end = i0 + hoist.len() + prefs.len() + (k - i0);
        let mut moved: Vec<Inst> = hoist.iter().rev().map(|&h| b.insts.remove(h)).collect();
        moved.reverse();
        inserted += prefs.len();
        let prefs = prefs.into_iter().map(|(addr, off)| Inst::Pref { addr, off });
        b.insts.splice(i0..i0, moved.into_iter().chain(prefs));
        start = group_end.min(b.insts.len());
    }
    inserted
}

/// Can `addr`'s value be made available at position `i0` (its use is at
/// `use_pos`)? Either it is defined before `i0`, or its (single)
/// definition between `i0..use_pos` is pure and recursively hoistable —
/// those definition indices are appended to `extra`.
fn addr_available(
    insts: &[Inst],
    addr: V,
    i0: usize,
    use_pos: usize,
    single_def: &dyn Fn(V) -> bool,
    extra: &mut Vec<usize>,
) -> bool {
    fn go(
        insts: &[Inst],
        v: V,
        i0: usize,
        use_pos: usize,
        single_def: &dyn Fn(V) -> bool,
        extra: &mut Vec<usize>,
        depth: u32,
    ) -> bool {
        if depth > 6 {
            return false;
        }
        let dp = (0..use_pos).rev().find(|&k| insts[k].def() == Some(v));
        match dp {
            None => true,                 // live-in: defined before the block
            Some(p) if p < i0 => true,    // already above the group head
            Some(p) => {
                if !insts[p].is_pure() || !single_def(v) {
                    return false;
                }
                // A pure instruction reads at most two vregs.
                let (mut uses, mut n) = ([0; 2], 0);
                insts[p].each_use(|u| {
                    uses[n] = u;
                    n += 1;
                });
                for &u in &uses[..n] {
                    if !go(insts, u, i0, p, single_def, extra, depth + 1) {
                        return false;
                    }
                }
                if !extra.contains(&p) {
                    extra.push(p);
                }
                true
            }
        }
    }
    go(insts, addr, i0, use_pos, single_def, extra, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par_func(insts: Vec<Inst>, nv: usize) -> IrFunction {
        IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![Class::Int; nv],
            blocks: vec![BlockIr { insts, term: Term::Halt, parallel: true, src_line: 0 }],
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: false,
        }
    }

    #[test]
    fn batches_two_independent_loads() {
        // a1 = base+x; load1; a2 = base+y; load2
        let mut f = par_func(
            vec![
                Inst::Bin { op: BinK::Add, d: 2, a: Operand::V(0), b: Operand::V(1) },
                Inst::Ld { d: 3, addr: 2, off: 0, ro: false, volatile: false },
                Inst::Bin { op: BinK::Add, d: 4, a: Operand::V(0), b: Operand::C(64) },
                Inst::Ld { d: 5, addr: 4, off: 0, ro: false, volatile: false },
            ],
            8,
        );
        let n = insert_prefetches(&mut f, 8);
        assert_eq!(n, 1);
        let insts = &f.blocks[0].insts;
        // Hoisted addr computation and pref appear before the first load.
        let pref_pos = insts.iter().position(|i| matches!(i, Inst::Pref { .. })).unwrap();
        let load1_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::Ld { d: 3, .. }))
            .unwrap();
        let addr2_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::Bin { d: 4, .. }))
            .unwrap();
        assert!(addr2_pos < pref_pos);
        assert!(pref_pos < load1_pos);
    }

    #[test]
    fn group_stops_at_store() {
        let mut f = par_func(
            vec![
                Inst::Ld { d: 1, addr: 0, off: 0, ro: false, volatile: false },
                Inst::St { s: 1, addr: 0, off: 4, nb: false },
                Inst::Ld { d: 2, addr: 0, off: 8, ro: false, volatile: false },
            ],
            8,
        );
        let n = insert_prefetches(&mut f, 8);
        assert_eq!(n, 0, "store is a barrier: no batching across it");
    }

    #[test]
    fn volatile_and_ro_loads_not_batched() {
        let mut f = par_func(
            vec![
                Inst::Ld { d: 1, addr: 0, off: 0, ro: false, volatile: false },
                Inst::Ld { d: 2, addr: 0, off: 4, ro: false, volatile: true },
                Inst::Ld { d: 3, addr: 0, off: 8, ro: true, volatile: false },
            ],
            8,
        );
        let n = insert_prefetches(&mut f, 8);
        assert_eq!(n, 0);
    }

    #[test]
    fn batch_size_respected() {
        let insts: Vec<Inst> = (0..6)
            .map(|k| Inst::Ld { d: 10 + k, addr: 0, off: 4 * k as i32, ro: false, volatile: false })
            .collect();
        let mut f = par_func(insts, 20);
        let n = insert_prefetches(&mut f, 3);
        // First group: first load + 2 prefetched = batch of 3; then the
        // pass continues on the remaining loads.
        assert!(n >= 2, "inserted {n}");
        let prefs = f.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Pref { .. }))
            .count();
        assert_eq!(prefs, n);
    }

    #[test]
    fn serial_blocks_untouched() {
        let mut f = par_func(
            vec![
                Inst::Ld { d: 1, addr: 0, off: 0, ro: false, volatile: false },
                Inst::Ld { d: 2, addr: 0, off: 4, ro: false, volatile: false },
            ],
            8,
        );
        f.blocks[0].parallel = false;
        assert_eq!(insert_prefetches(&mut f, 8), 0);
    }
}
