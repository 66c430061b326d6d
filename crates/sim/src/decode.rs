//! The one statement of what a pure-local instruction does ([`exec_op`]),
//! and the pre-decoded basic-block cache that replays it (DESIGN.md §10).
//!
//! Every path that executes the pure-local subset (registers and pc only:
//! ALU, shifts, immediates, branches and jumps) runs [`exec_op`] on a
//! [`DecodedOp`]. Interpreted issue — `exec::issue`, and
//! `exec::issue_local` under the burst loops, the closed-form first round
//! and the functional `psm` peephole — decodes the instruction in hand.
//! The cache decodes the straight-line *basic block* starting at a pc the
//! first time that pc is executed under it — operands resolved, dense
//! tags, fused superinstructions for dependent pairs — and every later
//! visit *replays* the slice.
//!
//! Replay is a pure fast-forward: one semantics, two control policies.
//! The burst loops in `cycle` stay the referee: replay executes decoded
//! ops only while every burst break condition provably holds — a block a
//! conservative free-slot budget covers runs whole, and near a boundary
//! [`ReplayEnv::slot_blocked`], which mirrors the oracle checks
//! condition-for-condition, is checked per constituent instruction — and
//! the moment it stops — for any reason — control
//! returns to the interpreted loop, which re-evaluates the same conditions
//! on the same state and performs the exact break bookkeeping. Fused ops
//! whose second constituent would cross a boundary execute their first
//! constituent ([`DecodedOp::head`]) alone and bail, which is exactly where
//! the interpreted loop would have stopped. The 256-case `decode_diff`
//! suite checks replay's control policy against the interpreted loop.
//!
//! The cache is a pure function of the immutable [`Executable::text`], so
//! invalidation ([`DecodeCache::invalidate_all`]) never affects
//! architectural state — it is issued on tracer/filter attachment and on
//! checkpoint restore (the checkpoint strategy: blocks are *deterministically
//! rebuilt* on demand rather than serialized, so checkpoint bytes are
//! unchanged by the cache).

use crate::cycle::BURST_CAP;
use crate::engine::Time;
use crate::exec::CostClass;
use crate::machine::ThreadCtx;
use xmt_isa::decode::{decode_instr, fuse, BinAlu, BrCond, CmpOp, DecodedOp, ImmAlu, ShKind};
use xmt_isa::{Executable, FuKind, Reg};

/// The cost class of a taken branch or jump, the one pure-local class
/// that costs 2 clock periods.
const TAKEN: CostClass = CostClass::Branch { taken: true };

/// Execute `op`, decoded at `pc`, on `ctx`: the one statement of what a
/// pure-local instruction does. Charges each constituent's cost class to
/// `charge`, in order, and returns the next pc (setting `ctx.pc` is the
/// caller's). Every path instantiates it with its own `charge`, which
/// inlines, so each arm's accounting folds to constants.
#[inline(always)]
pub(crate) fn exec_op(
    op: &DecodedOp,
    pc: u32,
    ctx: &mut ThreadCtx,
    mut charge: impl FnMut(CostClass),
) -> u32 {
    let r = &mut ctx.regs;
    match *op {
        DecodedOp::Bin { op, rd, rs, rt } => {
            r.set(rd, bin(op, r.get(rs), r.get(rt)));
            charge(CostClass::Alu);
        }
        DecodedOp::Imm { op, rt, rs, imm } => {
            r.set(rt, imm_alu(op, r.get(rs), imm));
            charge(CostClass::Alu);
        }
        DecodedOp::Li { rt, imm } => {
            r.set_i(rt, imm);
            charge(CostClass::Alu);
        }
        DecodedOp::Lui { rt, upper } => {
            r.set(rt, upper);
            charge(CostClass::Alu);
        }
        DecodedOp::Move { rd, rs } => {
            r.set(rd, r.get(rs));
            charge(CostClass::Alu);
        }
        DecodedOp::ShImm { op, rd, rt, sh } => {
            r.set(rd, shift(op, r.get(rt), sh.into()));
            charge(CostClass::Sft);
        }
        DecodedOp::ShVar { op, rd, rt, rs } => {
            r.set(rd, shift(op, r.get(rt), r.get(rs) & 31));
            charge(CostClass::Sft);
        }
        DecodedOp::Nop => charge(CostClass::Ctl),
        DecodedOp::Br {
            cond,
            rs,
            rt,
            target,
        } => {
            return jump_if(holds(cond, r.get(rs), r.get(rt)), target, pc + 1, charge);
        }
        DecodedOp::J { target } => {
            charge(TAKEN);
            return target;
        }
        DecodedOp::Jal { target, link } => {
            r.set(Reg::Ra, link);
            charge(TAKEN);
            return target;
        }
        DecodedOp::Jr { rs } => {
            charge(TAKEN);
            return r.get(rs);
        }
        DecodedOp::Jalr { rd, rs, link } => {
            // The target is read before the link is written (`rd == rs`).
            let dest = r.get(rs);
            r.set(rd, link);
            charge(TAKEN);
            return dest;
        }
        DecodedOp::LiBin {
            li_rt,
            imm,
            op,
            rd,
            rs,
            rt,
        } => {
            r.set_i(li_rt, imm);
            charge(CostClass::Alu);
            r.set(rd, bin(op, r.get(rs), r.get(rt)));
            charge(CostClass::Alu);
            return pc + 2;
        }
        DecodedOp::CmpBr {
            cmp,
            cond,
            brs,
            brt,
            target,
        } => {
            match cmp {
                CmpOp::Reg { op, rd, rs, rt } => r.set(rd, bin(op, r.get(rs), r.get(rt))),
                CmpOp::Imm { op, rt, rs, imm } => r.set(rt, imm_alu(op, r.get(rs), imm)),
            }
            charge(CostClass::Alu);
            // The branch reads the register file after the compare's write.
            return jump_if(holds(cond, r.get(brs), r.get(brt)), target, pc + 2, charge);
        }
    }
    pc + 1
}

#[inline(always)]
fn bin(op: BinAlu, a: u32, b: u32) -> u32 {
    match op {
        BinAlu::Add => a.wrapping_add(b),
        BinAlu::Sub => a.wrapping_sub(b),
        BinAlu::And => a & b,
        BinAlu::Or => a | b,
        BinAlu::Xor => a ^ b,
        BinAlu::Nor => !(a | b),
        BinAlu::Slt => ((a as i32) < (b as i32)) as u32,
        BinAlu::Sltu => (a < b) as u32,
    }
}

/// `imm` holds the raw bits; `addi`/`slti` read them as `i32`.
#[inline(always)]
fn imm_alu(op: ImmAlu, a: u32, imm: u32) -> u32 {
    match op {
        ImmAlu::Addi => a.wrapping_add(imm),
        ImmAlu::Andi => a & imm,
        ImmAlu::Ori => a | imm,
        ImmAlu::Xori => a ^ imm,
        ImmAlu::Slti => ((a as i32) < (imm as i32)) as u32,
        ImmAlu::Sltiu => (a < imm) as u32,
    }
}

#[inline(always)]
fn shift(op: ShKind, v: u32, sh: u32) -> u32 {
    match op {
        ShKind::Sll => v << sh,
        ShKind::Srl => v >> sh,
        ShKind::Sra => ((v as i32) >> sh) as u32,
    }
}

/// Does the branch condition hold for operands `a` (`rs`) and `b` (`rt`,
/// read only by `Eq`/`Ne`)?
#[inline(always)]
fn holds(cond: BrCond, a: u32, b: u32) -> bool {
    match cond {
        BrCond::Eq => a == b,
        BrCond::Ne => a != b,
        BrCond::Lez => (a as i32) <= 0,
        BrCond::Gtz => (a as i32) > 0,
        BrCond::Ltz => (a as i32) < 0,
        BrCond::Gez => (a as i32) >= 0,
    }
}

#[inline(always)]
fn jump_if(taken: bool, target: u32, fall: u32, mut charge: impl FnMut(CostClass)) -> u32 {
    charge(CostClass::Branch { taken });
    if taken {
        target
    } else {
        fall
    }
}

/// Replay's `charge` for [`exec_op`]: count each constituent, under its
/// functional-unit kind and in `executed`, and add its latency to the
/// burst's completion time — 2 clock periods for a taken branch, 1 for
/// every other pure-local class.
#[inline(always)]
fn book<'a>(
    counts: &'a mut [u64; FuKind::ALL.len()],
    executed: &'a mut u64,
    done: &'a mut Time,
    cp: Time,
) -> impl FnMut(CostClass) + 'a {
    move |cost| {
        counts[cost.fu() as usize] += 1;
        *executed += 1;
        *done += if cost == TAKEN { 2 * cp } else { cp };
    }
}

/// Minimum op count for a block with no backward terminator to be worth
/// *entering* a replay at (see [`Block::worth`]): below this, per-call
/// cursor setup and stat merging cost about as much as interpreting the
/// block. Backward-branching blocks are always worth it regardless of
/// size — the chain replays whole loop iterations per call.
const WORTH_MIN_OPS: usize = 3;

/// One decoded basic block: the pure-local straight line starting at
/// `start`, terminator (branch/jump, possibly fused) inclusive. Blocks
/// clip *before* the first non-local instruction; a block entered by a
/// jump into the middle of another block's range is simply decoded again
/// from its own entry pc (blocks are immutable and overlap freely).
#[derive(Debug)]
pub struct Block {
    start: u32,
    ops: Vec<DecodedOp>,
    /// Is *entering* a replay at this block expected to pay for the
    /// cursor/env setup? True for blocks with enough ops or a backward
    /// terminator (a loop back edge — the chain replays whole
    /// iterations). Entry-only heuristic: once a chain is running,
    /// not-worth blocks still replay (the marginal cost is tiny), and
    /// skipping entry is always sound because replay is a pure optional
    /// fast-forward over the interpreted oracle.
    worth: bool,
    /// The block's books, which do not depend on operands: its
    /// constituents, under each functional-unit kind and in all, and its
    /// fused superinstructions. Only whether its terminator is taken waits
    /// for execution.
    counts: [u32; FuKind::ALL.len()],
    len: u64,
    fused: u64,
}

#[derive(Debug)]
enum Slot {
    Unvisited,
    /// The instruction at this pc is not pure-local (or not decodable):
    /// cached negative result.
    NotLocal,
    /// Boxed, so a slot per text pc stays 16 bytes: only a hit reads the
    /// block and its books.
    Decoded(Box<Block>),
}

/// Decode-time counters (execution-time counters travel per-call in
/// [`Cursor`] and are merged into `HostProfile` by the engines).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Basic blocks decoded (including re-decodes after invalidation).
    pub blocks_decoded: u64,
    /// Fused superinstructions created at decode time.
    pub fused_pairs: u64,
    /// `invalidate_all` calls that discarded at least one decoded block.
    pub invalidations: u64,
}

/// The per-simulator decode cache: one slot per text pc.
#[derive(Debug)]
pub struct DecodeCache {
    slots: Vec<Slot>,
    /// Decode-time counters.
    pub stats: DecodeStats,
}

/// Window-constant burst break conditions, mirroring the interpreted
/// burst loops exactly (`CycleSim::master_step` / `tcu_step`). A field is
/// `None` when the corresponding oracle loop has no such check (e.g.
/// `stop_cycle` for a master burst outside the quiescent case).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplayEnv {
    pub cp: Time,
    pub next_sample_at: Option<Time>,
    pub max_cycles: Option<u64>,
    pub max_instrs: Option<u64>,
    pub checkpoint_any_at: Option<u64>,
    /// No constituent issues at or after this cycle: the master's
    /// quiescent checkpoint target, or a TCU burst's instruction-limit
    /// horizon.
    pub stop_cycle: Option<u64>,
    pub cycles_base: u64,
    pub period_changed_at: Time,
    /// `stats.instructions` at replay entry; the oracle's instruction
    /// count at constituent `i` is `instrs_base + i`.
    pub instrs_base: u64,
}

impl ReplayEnv {
    /// An environment for functional mode: no timing, only the
    /// instruction limit (`executed >= limit` before each instruction).
    pub(crate) fn functional(limit: u64, executed: u64) -> Self {
        ReplayEnv {
            cp: 1,
            next_sample_at: None,
            max_cycles: None,
            max_instrs: Some(limit),
            checkpoint_any_at: None,
            stop_cycle: None,
            cycles_base: 0,
            period_changed_at: 0,
            instrs_base: executed,
        }
    }

    /// `CycleSim::cycles_at` from window-constant state.
    #[inline]
    fn cycles_at(&self, t: Time) -> u64 {
        self.cycles_base + (t - self.period_changed_at) / self.cp
    }

    /// Would the oracle burst loop break before executing the next
    /// instruction, given the burst length, completion time, and
    /// instruction count it would check? Condition-for-condition the
    /// `master_step`/`tcu_step`/`burst_local` loop heads.
    #[inline]
    fn slot_blocked(&self, len: u64, done: Time, instrs: u64) -> bool {
        len >= BURST_CAP
            || self.next_sample_at.is_some_and(|s| done > s)
            || self.max_cycles.is_some_and(|l| self.cycles_at(done) > l)
            || self.max_instrs.is_some_and(|l| instrs >= l)
            || self
                .checkpoint_any_at
                .is_some_and(|c| self.cycles_at(done) >= c)
            || self
                .stop_cycle
                .is_some_and(|c| self.cycles_at(done) >= c)
    }

    /// Earliest absolute time at which `cycles_at(t) >= c`, saturating.
    fn time_reaching_cycles(&self, c: u64) -> Time {
        match c.checked_sub(self.cycles_base) {
            None | Some(0) => 0,
            Some(d) => self
                .period_changed_at
                .saturating_add(d.saturating_mul(self.cp)),
        }
    }

    /// A conservative number of constituent instructions guaranteed to
    /// pass `slot_blocked` without re-checking, assuming the worst-case
    /// per-constituent cost of 2 clock periods (a taken branch; every
    /// other constituent costs 1). Underestimating is always safe — the
    /// per-op checked path covers the remainder — so every bound rounds
    /// down.
    fn free_slots(&self, len: u64, done: Time, instrs: u64) -> u64 {
        let mut k = BURST_CAP.saturating_sub(len);
        let step = 2 * self.cp;
        if let Some(s) = self.next_sample_at {
            // Safe while the pre-op check sees `done <= s`.
            k = k.min(s.saturating_sub(done) / step);
        }
        if let Some(l) = self.max_instrs {
            k = k.min(l.saturating_sub(instrs));
        }
        let mut t_break = Time::MAX;
        if let Some(l) = self.max_cycles {
            // Breaks when cycles_at(done) > l, i.e. reaches l + 1.
            t_break = t_break.min(self.time_reaching_cycles(l.saturating_add(1)));
        }
        if let Some(c) = self.checkpoint_any_at {
            t_break = t_break.min(self.time_reaching_cycles(c));
        }
        if let Some(c) = self.stop_cycle {
            t_break = t_break.min(self.time_reaching_cycles(c));
        }
        if t_break != Time::MAX {
            // Safe while the pre-op check sees `done < t_break`.
            k = k.min(t_break.saturating_sub(done).saturating_sub(1) / step);
        }
        k
    }
}

/// Why [`DecodeCache::replay_chain`] stopped. In every case `ctx.pc`
/// already points at the next instruction for the interpreted loop.
enum ChainStop {
    /// A break condition would fire before the next constituent (or the
    /// chain bailed mid-fused-pair): the interpreted loop re-checks and
    /// takes over.
    Done,
    /// The chain reached a pc with no decoded block: the decode-on-miss
    /// driver decodes an `Unvisited` slot and continues; a non-local
    /// instruction (or a pc outside the program) ends the replay.
    Miss,
}

/// Per-replay-call accumulator. `len`/`done` continue the caller's burst
/// bookkeeping; the rest are deltas the caller merges into `Stats` /
/// `HostProfile` after the call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cursor {
    /// Burst length so far (constituent instructions, incl. pre-replay).
    pub len: u64,
    /// Aggregate completion time so far.
    pub done: Time,
    /// Constituent instructions executed by this replay call.
    pub executed: u64,
    /// Executed constituents by functional-unit kind (`FuKind as usize`).
    pub counts: [u64; FuKind::ALL.len()],
    /// Fused superinstructions executed whole.
    pub fused: u64,
    /// Blocks replayed.
    pub replays: u64,
    /// Blocks decoded during this call.
    pub decoded: u64,
}

impl Cursor {
    pub(crate) fn new(len: u64, done: Time) -> Self {
        Cursor {
            len,
            done,
            executed: 0,
            counts: [0; FuKind::ALL.len()],
            fused: 0,
            replays: 0,
            decoded: 0,
        }
    }
}

impl DecodeCache {
    /// Fast-forward `ctx` through already-decoded blocks, chaining across
    /// taken branches, until a break condition, a mid-pair bail, a
    /// non-local pc, or an un-decoded cache slot stops it. This is the
    /// simulator's hottest loop: the burst books accumulate in locals
    /// (written back to `cur` once), and the conservative `free`-slot
    /// budget — every constituent pessimized to 2 clock periods —
    /// survives across chained blocks, re-derived from actual state only
    /// when it cannot cover the next block. A covered block runs with no
    /// per-constituent books or checks (its counts are precomputed), so
    /// both run only near a boundary. Kept out of line: inlined into
    /// `replay`, its one caller, it cost `bench/e2e`'s `par_compute`
    /// about 4 % of `sim_minstr_per_s`.
    #[inline(never)]
    fn replay_chain(&self, ctx: &mut ThreadCtx, env: &ReplayEnv, cur: &mut Cursor) -> ChainStop {
        let cp = env.cp;
        let mut done = cur.done;
        let mut executed = cur.executed;
        // `len` and `executed` grow together: the burst length is
        // `len_base + executed` throughout.
        let len_base = cur.len - cur.executed;
        // Counted from zero and added in at the end: copying `cur.counts`
        // in would read 16 bytes at a time what the caller has just
        // written 8 at a time, which stalls on store forwarding.
        let mut counts = [0u64; FuKind::ALL.len()];
        let mut fused = cur.fused;
        let mut replays = cur.replays;
        let mut free = 0u64;
        let stop = 'chain: loop {
            // A positive leftover budget *is* a proof the slot is open.
            if free == 0 && env.slot_blocked(len_base + executed, done, env.instrs_base + executed)
            {
                break 'chain ChainStop::Done;
            }
            let block = match self.slots.get(ctx.pc as usize) {
                Some(Slot::Decoded(b)) => b,
                _ => break 'chain ChainStop::Miss,
            };
            replays += 1;
            if free < block.len {
                // The worst-case budget pessimizes every constituent to 2
                // clock periods, so a fresh derivation from the *actual*
                // current state may hand back more slots.
                free = env.free_slots(len_base + executed, done, env.instrs_base + executed);
            }
            let mut pc = block.start;
            if free >= block.len {
                // The whole block fits the budget: no per-constituent
                // checks, and the block's own books.
                free -= block.len;
                for op in &block.ops {
                    pc = exec_op(op, pc, ctx, |cost| {
                        if cost == TAKEN {
                            done += cp;
                        }
                    });
                }
                done += block.len * cp;
                executed += block.len;
                for (c, &k) in counts.iter_mut().zip(&block.counts) {
                    *c += u64::from(k);
                }
                fused += block.fused;
            } else {
                // Near a boundary: one checked constituent at a time.
                for op in &block.ops {
                    let n = op.constituents();
                    if free < n {
                        free =
                            env.free_slots(len_base + executed, done, env.instrs_base + executed);
                    }
                    if free < n {
                        let len = len_base + executed;
                        if env.slot_blocked(len, done, env.instrs_base + executed) {
                            ctx.pc = pc;
                            break 'chain ChainStop::Done;
                        }
                        if n == 2
                            && env.slot_blocked(len + 1, done + cp, env.instrs_base + executed + 1)
                        {
                            // Execute the first constituent alone (always a
                            // 1-cycle ALU op) and hand the pair's tail back
                            // to the interpreter — the exact point the
                            // oracle would stop.
                            let books = book(&mut counts, &mut executed, &mut done, cp);
                            ctx.pc = exec_op(&op.head(), pc, ctx, books);
                            break 'chain ChainStop::Done;
                        }
                        // Checked: this op runs, and the next is checked
                        // afresh.
                        free = n;
                    }
                    free -= n;
                    fused += n - 1;
                    pc = exec_op(op, pc, ctx, book(&mut counts, &mut executed, &mut done, cp));
                }
            }
            // The block ended at its terminator, wherever that led, or
            // before a non-local instruction, whose slot stops the chain.
            ctx.pc = pc;
        };
        cur.done = done;
        cur.len = len_base + executed;
        cur.executed = executed;
        for (total, k) in cur.counts.iter_mut().zip(counts) {
            *total += k;
        }
        cur.fused = fused;
        cur.replays = replays;
        stop
    }
}

impl DecodeCache {
    /// An empty cache for a program of `text_len` instructions.
    pub fn new(text_len: usize) -> Self {
        DecodeCache {
            slots: (0..text_len).map(|_| Slot::Unvisited).collect(),
            stats: DecodeStats::default(),
        }
    }

    /// Discard every decoded block (tracer/filter activation, checkpoint
    /// restore). Blocks rebuild deterministically on demand — the cache
    /// is a pure function of the immutable text — so this is hygiene and
    /// bookkeeping, never a correctness event.
    pub fn invalidate_all(&mut self) {
        let had_any = self.slots.iter().any(|s| !matches!(s, Slot::Unvisited));
        for s in &mut self.slots {
            *s = Slot::Unvisited;
        }
        if had_any {
            self.stats.invalidations += 1;
        }
    }

    /// Once per block, so out of line: inlined, it makes `replay` too big
    /// to inline into the issue loops that call it.
    #[inline(never)]
    fn decode_block(&mut self, exe: &Executable, pc: u32) {
        let mut ops: Vec<DecodedOp> = Vec::new();
        let mut fused_here = 0u64;
        let mut cur = pc;
        loop {
            let Some(op) = exe.instr(cur).and_then(|i| decode_instr(i, cur)) else {
                break;
            };
            let fused = ops.last().and_then(|prev| fuse(prev, &op));
            let op = match fused {
                Some(f) => {
                    ops.pop();
                    fused_here += 1;
                    f
                }
                None => op,
            };
            let terminator = op.is_terminator();
            ops.push(op);
            if terminator {
                break;
            }
            cur += 1;
        }
        self.slots[pc as usize] = if ops.is_empty() {
            Slot::NotLocal
        } else {
            self.stats.blocks_decoded += 1;
            self.stats.fused_pairs += fused_here;
            // A lone backward jump (`[j]`) is excluded: unless the rest
            // of the loop is also pure-local (in which case some other
            // block carries the entry), its chain ends after the jump
            // plus whatever the head block holds — too short to pay.
            let worth = ops.len() >= WORTH_MIN_OPS
                || (ops.len() >= 2
                    && matches!(
                        ops.last(),
                        Some(
                            DecodedOp::Br { target, .. }
                                | DecodedOp::J { target }
                                | DecodedOp::Jal { target, .. }
                                | DecodedOp::CmpBr { target, .. }
                        ) if *target <= pc
                    ));
            // Executing the ops on a scratch context books each
            // constituent's class, a branch's included.
            let mut counts = [0u32; FuKind::ALL.len()];
            let mut scratch = ThreadCtx::default();
            for op in &ops {
                exec_op(op, 0, &mut scratch, |cost| counts[cost.fu() as usize] += 1);
            }
            Slot::Decoded(Box::new(Block {
                start: pc,
                ops,
                worth,
                len: counts.iter().map(|&k| u64::from(k)).sum(),
                counts,
                fused: fused_here,
            }))
        };
    }

    /// Read-only lookup, never decodes.
    #[cfg(test)]
    fn lookup(&self, pc: u32) -> Option<&Block> {
        match self.slots.get(pc as usize) {
            Some(Slot::Decoded(b)) => Some(b.as_ref()),
            _ => None,
        }
    }

    /// Is *entering* a replay at `pc` worthwhile? `false` for a
    /// cached-negative (`NotLocal`) or out-of-range slot, and for decoded
    /// blocks below the [`Block::worth`] entry threshold — the cheap
    /// pre-check that keeps known-miss and tiny straight-line pcs at
    /// interpreter cost. `Unvisited` is replayable (decode-on-miss may
    /// turn it into a worthwhile block).
    #[inline]
    pub(crate) fn replayable(&self, pc: u32) -> bool {
        match self.slots.get(pc as usize) {
            Some(Slot::Unvisited) => true,
            Some(Slot::Decoded(b)) => b.worth,
            None | Some(Slot::NotLocal) => false,
        }
    }

    /// Fast-forward `ctx` through decoded blocks until a break condition,
    /// a non-local pc, or a mid-pair bail stops it. A chain stopping on
    /// an `Unvisited` slot decodes it and chains on.
    pub(crate) fn replay(
        &mut self,
        exe: &Executable,
        ctx: &mut ThreadCtx,
        env: &ReplayEnv,
        cur: &mut Cursor,
    ) {
        let decoded0 = self.stats.blocks_decoded;
        while let ChainStop::Miss = self.replay_chain(ctx, env, cur) {
            let pc = ctx.pc as usize;
            if pc >= self.slots.len() || !matches!(self.slots[pc], Slot::Unvisited) {
                break;
            }
            self.decode_block(exe, ctx.pc);
            if !matches!(self.slots[pc], Slot::Decoded(_)) {
                break;
            }
        }
        cur.decoded += self.stats.blocks_decoded - decoded0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use xmt_isa::{AsmProgram, Instr, MemoryMap, Target};

    /// Decode `ins` at `pc` and run it through `exec_op` on a context
    /// holding `inputs`: the context after, the next pc, and the costs
    /// charged.
    fn run_op(op: &DecodedOp, pc: u32, inputs: &[(Reg, u32)]) -> (ThreadCtx, u32, Vec<CostClass>) {
        let mut ctx = ThreadCtx::default();
        for &(r, v) in inputs {
            ctx.regs.set(r, v);
        }
        let mut costs = Vec::new();
        let next = exec_op(op, pc, &mut ctx, |c| costs.push(c));
        (ctx, next, costs)
    }

    /// What every pure-local opcode does, written out by hand rather than
    /// derived from `exec_op`: fixed inputs, the one register it writes
    /// and its value, the next pc and the cost class. Decoded at pc 10;
    /// every branch targets 3.
    #[test]
    fn exec_op_golden_table() {
        use CostClass::{Alu, Branch, Ctl, Sft};
        use Instr::*;
        use Reg::{Ra, Zero, T0, T1, T2};
        const MIN: u32 = i32::MIN as u32;
        const MAX: u32 = u32::MAX;
        let t = || Target::Abs(3);
        let (taken, fall) = (Branch { taken: true }, Branch { taken: false });
        // (instruction, inputs, register written and its value, next pc, cost)
        type Row = (Instr, Vec<(Reg, u32)>, (Reg, u32), u32, CostClass);
        #[rustfmt::skip]
        let table: Vec<Row> = vec![
            (Add { rd: T2, rs: T0, rt: T1 }, vec![(T0, 7), (T1, MAX)], (T2, 6), 11, Alu),
            (Add { rd: Zero, rs: T0, rt: T1 }, vec![(T0, 7), (T1, 1)], (Zero, 0), 11, Alu),
            (Sub { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0), (T1, 1)], (T2, MAX), 11, Alu),
            (And { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0b1100), (T1, 0b1010)], (T2, 0b1000), 11, Alu),
            (Or { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0b1100), (T1, 0b1010)], (T2, 0b1110), 11, Alu),
            (Xor { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0b1100), (T1, 0b1010)], (T2, 0b0110), 11, Alu),
            (Nor { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0b1100), (T1, 0b1010)], (T2, !0b1110), 11, Alu),
            (Slt { rd: T2, rs: T0, rt: T1 }, vec![(T0, MIN), (T1, 0)], (T2, 1), 11, Alu),
            (Slt { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0), (T1, MAX)], (T2, 0), 11, Alu),
            (Sltu { rd: T2, rs: T0, rt: T1 }, vec![(T0, MIN), (T1, 0)], (T2, 0), 11, Alu),
            (Sltu { rd: T2, rs: T0, rt: T1 }, vec![(T0, 0), (T1, MAX)], (T2, 1), 11, Alu),
            (Sltu { rd: Zero, rs: T0, rt: T1 }, vec![(T0, 0), (T1, MAX)], (Zero, 0), 11, Alu),
            (Addi { rt: T2, rs: T0, imm: -1 }, vec![(T0, 0)], (T2, MAX), 11, Alu),
            (Andi { rt: T2, rs: T0, imm: 0xff }, vec![(T0, 0x1234)], (T2, 0x34), 11, Alu),
            (Ori { rt: T2, rs: T0, imm: 0xff00 }, vec![(T0, 0x12)], (T2, 0xff12), 11, Alu),
            (Xori { rt: T2, rs: T0, imm: 0xffff }, vec![(T0, 0xff)], (T2, 0xff00), 11, Alu),
            (Slti { rt: T2, rs: T0, imm: -1 }, vec![(T0, MIN)], (T2, 1), 11, Alu),
            (Slti { rt: T2, rs: T0, imm: 0 }, vec![(T0, MAX)], (T2, 1), 11, Alu),
            (Sltiu { rt: T2, rs: T0, imm: 5 }, vec![(T0, MAX)], (T2, 0), 11, Alu),
            (Sltiu { rt: T2, rs: T0, imm: MAX }, vec![(T0, 5)], (T2, 1), 11, Alu),
            (Li { rt: T2, imm: -7 }, vec![], (T2, -7i32 as u32), 11, Alu),
            (Li { rt: Zero, imm: 9 }, vec![], (Zero, 0), 11, Alu),
            (Lui { rt: T2, imm: 0x1234 }, vec![], (T2, 0x1234_0000), 11, Alu),
            (Move { rd: T2, rs: T0 }, vec![(T0, 42)], (T2, 42), 11, Alu),
            (Sll { rd: T2, rt: T0, sh: 4 }, vec![(T0, 0x8000_0001)], (T2, 0x10), 11, Sft),
            (Srl { rd: T2, rt: T0, sh: 4 }, vec![(T0, MIN)], (T2, 0x0800_0000), 11, Sft),
            (Sra { rd: T2, rt: T0, sh: 4 }, vec![(T0, MIN)], (T2, 0xf800_0000), 11, Sft),
            (Sra { rd: T2, rt: T0, sh: 31 }, vec![(T0, 0x7fff_ffff)], (T2, 0), 11, Sft),
            // Variable shift amounts use their low five bits.
            (Sllv { rd: T2, rt: T0, rs: T1 }, vec![(T0, 1), (T1, 33)], (T2, 2), 11, Sft),
            (Srlv { rd: T2, rt: T0, rs: T1 }, vec![(T0, MIN), (T1, 36)], (T2, 0x0800_0000), 11, Sft),
            (Srav { rd: T2, rt: T0, rs: T1 }, vec![(T0, MIN), (T1, 63)], (T2, MAX), 11, Sft),
            (Srav { rd: T2, rt: T0, rs: T1 }, vec![(T0, MIN), (T1, 32)], (T2, MIN), 11, Sft),
            (Beq { rs: T0, rt: T1, target: t() }, vec![(T0, 5), (T1, 5)], (Zero, 0), 3, taken),
            (Beq { rs: T0, rt: T1, target: t() }, vec![(T0, 5), (T1, 6)], (Zero, 0), 11, fall),
            (Bne { rs: T0, rt: T1, target: t() }, vec![(T0, 5), (T1, 5)], (Zero, 0), 11, fall),
            (Bne { rs: T0, rt: T1, target: t() }, vec![(T0, 5), (T1, 6)], (Zero, 0), 3, taken),
            (Blez { rs: T0, target: t() }, vec![(T0, 0)], (Zero, 0), 3, taken),
            (Blez { rs: T0, target: t() }, vec![(T0, 1)], (Zero, 0), 11, fall),
            (Bgtz { rs: T0, target: t() }, vec![(T0, MIN)], (Zero, 0), 11, fall),
            (Bgtz { rs: T0, target: t() }, vec![(T0, 1)], (Zero, 0), 3, taken),
            (Bltz { rs: T0, target: t() }, vec![(T0, MAX)], (Zero, 0), 3, taken),
            (Bltz { rs: T0, target: t() }, vec![(T0, 0)], (Zero, 0), 11, fall),
            (Bgez { rs: T0, target: t() }, vec![(T0, 0)], (Zero, 0), 3, taken),
            (Bgez { rs: T0, target: t() }, vec![(T0, MIN)], (Zero, 0), 11, fall),
            (J { target: t() }, vec![], (Zero, 0), 3, taken),
            (Jal { target: t() }, vec![], (Ra, 11), 3, taken),
            (Jr { rs: T0 }, vec![(T0, 40)], (Zero, 0), 40, taken),
            (Jalr { rd: T1, rs: T0 }, vec![(T0, 40)], (T1, 11), 40, taken),
            // The target is read before the link is written.
            (Jalr { rd: T0, rs: T0 }, vec![(T0, 40)], (T0, 11), 40, taken),
            (Nop, vec![], (Zero, 0), 11, Ctl),
        ];
        for (ins, inputs, (rd, value), next, cost) in table {
            let op = decode_instr(&ins, 10).unwrap();
            let (ctx, got_next, costs) = run_op(&op, 10, &inputs);
            let mut want = ThreadCtx::default();
            for &(r, v) in &inputs {
                want.regs.set(r, v);
            }
            want.regs.set(rd, value);
            assert_eq!(ctx.regs, want.regs, "{ins:?} on {inputs:?}");
            assert_eq!(
                (got_next, costs),
                (next, vec![cost]),
                "{ins:?} on {inputs:?}"
            );
        }
    }

    /// A fused op does what its two constituents do one after the other —
    /// registers, next pc and the two costs in order — and its head is the
    /// first of them.
    #[test]
    fn fused_ops_match_their_unfused_pairs() {
        use Instr::*;
        use Reg::{Zero, T0, T1, T2};
        let t = || Target::Abs(3);
        #[rustfmt::skip]
        let pairs = [
            // li + a dependent add: T0 = 5, T2 = 5 + 3.
            (Li { rt: T0, imm: 5 }, Add { rd: T2, rs: T0, rt: T1 }, vec![(T1, 3)], (T2, 8), 12),
            // slt at i32::MIN, then bne on its result: taken.
            (Slt { rd: T2, rs: T0, rt: T1 }, Bne { rs: T2, rt: Zero, target: t() },
             vec![(T0, i32::MIN as u32), (T1, 0)], (T2, 1), 3),
            // sltu on the same inputs is false: falls through past the pair.
            (Sltu { rd: T2, rs: T0, rt: T1 }, Bne { rs: T2, rt: Zero, target: t() },
             vec![(T0, i32::MIN as u32), (T1, 0)], (T2, 0), 12),
            // slti into $zero: the write is dropped, and the branch reads 0.
            (Slti { rt: Zero, rs: T0, imm: 5 }, Beq { rs: Zero, rt: Zero, target: t() },
             vec![(T0, 1)], (Zero, 0), 3),
            (Sltiu { rt: T2, rs: T0, imm: 5 }, Blez { rs: T2, target: t() },
             vec![(T0, u32::MAX)], (T2, 0), 3),
        ];
        for (a, b, inputs, (rd, value), next) in pairs {
            let (da, db) = (decode_instr(&a, 10).unwrap(), decode_instr(&b, 11).unwrap());
            let fused = fuse(&da, &db).unwrap_or_else(|| panic!("{a:?} + {b:?} fuses"));
            assert_eq!(fused.head(), da);
            let (ctx, got_next, costs) = run_op(&fused, 10, &inputs);
            assert_eq!((ctx.regs.get(rd), got_next), (value, next), "{a:?} + {b:?}");

            let (mut pair, mid, mut pair_costs) = run_op(&da, 10, &inputs);
            assert_eq!(mid, 11);
            let pair_next = exec_op(&db, 11, &mut pair, |c| pair_costs.push(c));
            assert_eq!(
                (ctx.regs, got_next, costs),
                (pair.regs, pair_next, pair_costs),
                "{a:?} + {b:?}"
            );
        }
    }

    /// A program covering every decoded op kind, both fusion pairs, a
    /// taken/untaken branch mix, and a jump chain — mirrored after
    /// `exec`'s `issue_local_matches_issue_on_the_burstable_subset`.
    fn mixed_program() -> Executable {
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 7,
        }); // fuses with next
        p.push(Instr::Add {
            rd: Reg::T1,
            rs: Reg::T0,
            rt: Reg::T0,
        });
        p.push(Instr::Li {
            rt: Reg::T2,
            imm: -3,
        });
        p.push(Instr::Lui {
            rt: Reg::T3,
            imm: 0x1234,
        });
        p.push(Instr::Sub {
            rd: Reg::T4,
            rs: Reg::T1,
            rt: Reg::T2,
        });
        p.push(Instr::And {
            rd: Reg::T5,
            rs: Reg::T4,
            rt: Reg::T3,
        });
        p.push(Instr::Or {
            rd: Reg::T5,
            rs: Reg::T5,
            rt: Reg::T0,
        });
        p.push(Instr::Xor {
            rd: Reg::T6,
            rs: Reg::T5,
            rt: Reg::T1,
        });
        p.push(Instr::Nor {
            rd: Reg::T7,
            rs: Reg::T6,
            rt: Reg::T2,
        });
        p.push(Instr::Slt {
            rd: Reg::S0,
            rs: Reg::T2,
            rt: Reg::T0,
        });
        p.push(Instr::Sltu {
            rd: Reg::S1,
            rs: Reg::T2,
            rt: Reg::T0,
        });
        p.push(Instr::Addi {
            rt: Reg::S2,
            rs: Reg::T0,
            imm: -100,
        });
        p.push(Instr::Andi {
            rt: Reg::S3,
            rs: Reg::T7,
            imm: 0xff,
        });
        p.push(Instr::Ori {
            rt: Reg::S3,
            rs: Reg::S3,
            imm: 0x100,
        });
        p.push(Instr::Xori {
            rt: Reg::S4,
            rs: Reg::S3,
            imm: 0xf0f0,
        });
        p.push(Instr::Slti {
            rt: Reg::S5,
            rs: Reg::T2,
            imm: 5,
        });
        p.push(Instr::Sltiu {
            rt: Reg::S6,
            rs: Reg::T2,
            imm: 5,
        });
        p.push(Instr::Move {
            rd: Reg::S7,
            rs: Reg::T4,
        });
        p.push(Instr::Sll {
            rd: Reg::A0,
            rt: Reg::T0,
            sh: 3,
        });
        p.push(Instr::Srl {
            rd: Reg::A1,
            rt: Reg::T2,
            sh: 2,
        });
        p.push(Instr::Sra {
            rd: Reg::A2,
            rt: Reg::T2,
            sh: 2,
        });
        p.push(Instr::Li {
            rt: Reg::A3,
            imm: 33,
        }); // shift amount masks to 1
        p.push(Instr::Sllv {
            rd: Reg::T8,
            rt: Reg::T0,
            rs: Reg::A3,
        });
        p.push(Instr::Srlv {
            rd: Reg::T9,
            rt: Reg::T2,
            rs: Reg::A3,
        });
        p.push(Instr::Srav {
            rd: Reg::V0,
            rt: Reg::T2,
            rs: Reg::A3,
        });
        p.push(Instr::Nop);
        // compare+branch fusion, untaken then taken
        p.push(Instr::Slt {
            rd: Reg::V1,
            rs: Reg::T0,
            rt: Reg::T2,
        }); // 7 < -3: 0
        p.push(Instr::Bne {
            rs: Reg::V1,
            rt: Reg::Zero,
            target: Target::label("skip"),
        });
        p.push(Instr::Slti {
            rt: Reg::V1,
            rs: Reg::T2,
            imm: 0,
        }); // -3 < 0: 1
        p.push(Instr::Bne {
            rs: Reg::V1,
            rt: Reg::Zero,
            target: Target::label("jump_chain"),
        });
        p.label("skip");
        p.push(Instr::Nop);
        p.label("jump_chain");
        p.push(Instr::Jal {
            target: Target::label("sub"),
        });
        p.push(Instr::Beq {
            rs: Reg::T0,
            rt: Reg::T0,
            target: Target::label("out"),
        });
        p.label("sub");
        p.push(Instr::Jr { rs: Reg::Ra });
        p.label("out");
        p.push(Instr::Halt);
        p.link(MemoryMap::new()).unwrap()
    }

    fn unlimited_env() -> ReplayEnv {
        ReplayEnv {
            cp: 500,
            next_sample_at: None,
            max_cycles: None,
            max_instrs: None,
            checkpoint_any_at: None,
            stop_cycle: None,
            cycles_base: 0,
            period_changed_at: 0,
            instrs_base: 0,
        }
    }

    /// Replay must leave the context (registers, pc) and the cost/count
    /// books in exactly the state the interpreted `issue_local` walk
    /// produces, fusion and all.
    #[test]
    fn replay_matches_interpreted_walk_on_the_mixed_program() {
        let exe = mixed_program();
        let cp: Time = 500;

        // Oracle: per-instruction interpreted walk.
        let mut oracle = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let mut o_done: Time = 0;
        let mut o_counts = [0u64; FuKind::ALL.len()];
        let mut o_instrs = 0u64;
        while exec::peek_burstable(&exe, oracle.pc) {
            let cost = exec::issue_local(&exe, &mut oracle).unwrap();
            let cycles = if cost == TAKEN { 2 } else { 1 };
            o_counts[cost.fu() as usize] += 1;
            o_done += cycles * cp;
            o_instrs += 1;
        }

        // Replayed walk.
        let mut cache = DecodeCache::new(exe.len());
        let mut ctx = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let env = unlimited_env();
        let mut cur = Cursor::new(0, 0);
        cache.replay(&exe, &mut ctx, &env, &mut cur);

        assert_eq!(ctx.pc, oracle.pc, "stops at the same (non-local) pc");
        assert_eq!(ctx.regs, oracle.regs, "identical register file");
        assert_eq!(cur.executed, o_instrs);
        assert_eq!(cur.counts, o_counts);
        assert_eq!(cur.done, o_done, "identical aggregate latency");
        assert!(cur.fused >= 2, "both fusion kinds executed");
        assert!(cache.stats.fused_pairs >= 2);
        assert!(cache.stats.blocks_decoded > 0);
    }

    /// Replaying the same blocks twice must not re-decode, and must
    /// produce the same result from the same entry state.
    #[test]
    fn second_replay_hits_the_cache() {
        let exe = mixed_program();
        let mut cache = DecodeCache::new(exe.len());
        let env = unlimited_env();

        let mut a = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let mut ca = Cursor::new(0, 0);
        cache.replay(&exe, &mut a, &env, &mut ca);
        let decoded_once = cache.stats.blocks_decoded;
        assert!(ca.decoded > 0);

        let mut b = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let mut cb = Cursor::new(0, 0);
        cache.replay(&exe, &mut b, &env, &mut cb);
        assert_eq!(cache.stats.blocks_decoded, decoded_once, "no re-decode");
        assert_eq!(cb.decoded, 0);
        assert_eq!(a.regs, b.regs);
        assert_eq!(
            (ca.executed, ca.counts, ca.done),
            (cb.executed, cb.counts, cb.done)
        );
    }

    /// Every break condition must stop replay at exactly the constituent
    /// the interpreted loop would refuse to execute.
    #[test]
    fn limits_clip_replay_exactly() {
        let exe = mixed_program();
        let cp: Time = 500;
        for limit in [0u64, 1, 2, 3, 5, 9, 20] {
            // Instruction limit.
            let mut cache = DecodeCache::new(exe.len());
            let mut ctx = ThreadCtx {
                pc: exe.entry,
                ..Default::default()
            };
            let env = ReplayEnv {
                max_instrs: Some(limit),
                ..unlimited_env()
            };
            let mut cur = Cursor::new(0, 0);
            cache.replay(&exe, &mut ctx, &env, &mut cur);
            assert_eq!(cur.executed, limit.min(35), "max_instrs={limit}");

            // Oracle state after `limit` interpreted steps.
            let mut oracle = ThreadCtx {
                pc: exe.entry,
                ..Default::default()
            };
            for _ in 0..cur.executed {
                exec::issue_local(&exe, &mut oracle).unwrap();
            }
            assert_eq!(ctx.regs, oracle.regs, "max_instrs={limit}");
            assert_eq!(ctx.pc, oracle.pc, "max_instrs={limit}");

            // Sample boundary: the oracle executes while `done <= s`
            // (checked before each op) and breaks once `done > s`; a stop
            // cycle `c`: while `done < c · cp`.
            let s = limit * cp;
            for (env, runs) in [
                (ReplayEnv { next_sample_at: Some(s), ..unlimited_env() }, s + 1),
                (ReplayEnv { stop_cycle: Some(limit), ..unlimited_env() }, s),
            ] {
                let mut cache = DecodeCache::new(exe.len());
                let mut ctx = ThreadCtx {
                    pc: exe.entry,
                    ..Default::default()
                };
                let mut cur = Cursor::new(0, 0);
                cache.replay(&exe, &mut ctx, &env, &mut cur);

                let mut oracle = ThreadCtx {
                    pc: exe.entry,
                    ..Default::default()
                };
                let mut o_done: Time = 0;
                let mut o_instrs = 0u64;
                while o_done < runs && exec::peek_burstable(&exe, oracle.pc) {
                    let cost = exec::issue_local(&exe, &mut oracle).unwrap();
                    let cycles = match cost {
                        exec::CostClass::Branch { taken: true } => 2,
                        _ => 1,
                    };
                    o_done += cycles * cp;
                    o_instrs += 1;
                }
                let what = format!("break at {limit} cycles: {env:?}");
                assert_eq!(cur.executed, o_instrs, "{what}");
                assert_eq!(cur.done, o_done, "{what}");
                assert_eq!(ctx.regs, oracle.regs, "{what}");
                assert_eq!(ctx.pc, oracle.pc, "{what}");
            }
        }
    }

    #[test]
    fn invalidate_all_discards_and_counts() {
        let exe = mixed_program();
        let mut cache = DecodeCache::new(exe.len());
        // Invalidating an empty cache is not an invalidation event.
        cache.invalidate_all();
        assert_eq!(cache.stats.invalidations, 0);

        let mut ctx = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let env = unlimited_env();
        let mut cur = Cursor::new(0, 0);
        cache.replay(&exe, &mut ctx, &env, &mut cur);
        let decoded = cache.stats.blocks_decoded;
        assert!(decoded > 0);

        cache.invalidate_all();
        assert_eq!(cache.stats.invalidations, 1);
        assert!(cache.lookup(exe.entry).is_none(), "blocks discarded");

        // Re-decode on demand, deterministically.
        let mut ctx2 = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let mut cur2 = Cursor::new(0, 0);
        cache.replay(&exe, &mut ctx2, &env, &mut cur2);
        assert_eq!(cache.stats.blocks_decoded, 2 * decoded);
        assert_eq!(ctx.regs, ctx2.regs);
    }
}
