//! The pre-decoded basic-block cache (DESIGN.md §10).
//!
//! Burst issue ([`crate::config::IssueModel::Burst`]) elides scheduler
//! events, but still walks every instruction through `exec::issue`'s wide
//! [`xmt_isa::Instr`] match, every time around a loop. This module caches
//! the result of that classification: the first time a pc is executed
//! under the cache, the straight-line *basic block* starting there is
//! decoded once into a flat `Vec<DecodedOp>` — operands resolved, dense
//! tags, fused superinstructions for dependent pairs — and every later
//! visit *replays* the slice.
//!
//! Replay is a pure fast-forward. The burst loops in `cycle` (and the
//! parallel engine's worker-side `burst_local`) stay the referee: replay
//! executes decoded ops only while every burst break condition provably
//! holds ([`ReplayEnv::slot_blocked`] mirrors the oracle checks
//! condition-for-condition, checked per constituent instruction), and the
//! moment it stops — for any reason — control returns to the interpreted
//! loop, which re-evaluates the same conditions on the same state and
//! performs the exact break bookkeeping. Fused ops whose second
//! constituent would cross a boundary execute their first constituent
//! alone and bail, which is exactly where the interpreted loop would have
//! stopped. Bit-identity to the un-cached oracle therefore holds by
//! construction; the 256-case `decode_diff` suite enforces it anyway.
//!
//! The cache is a pure function of the immutable [`Executable::text`], so
//! invalidation ([`DecodeCache::invalidate_all`]) never affects
//! architectural state — it is issued on tracer/filter attachment and on
//! checkpoint restore (the checkpoint strategy: blocks are *deterministically
//! rebuilt* on demand rather than serialized, so checkpoint bytes are
//! unchanged by the cache).

use crate::cycle::BURST_CAP;
use crate::engine::Time;
use crate::machine::ThreadCtx;
use xmt_isa::decode::{fuse, BinAlu, BrCond, CmpOp, DecodedOp, ImmAlu, ShKind};
use xmt_isa::{decode::decode_instr, Executable, Reg};

/// Count-array slots for the four cost classes a pure-local op can have —
/// the same `[Alu, Sft, Br, Ctl]` layout the parallel engine's
/// `StepDone::counts` uses.
pub(crate) const C_ALU: usize = 0;
pub(crate) const C_SFT: usize = 1;
pub(crate) const C_BR: usize = 2;
pub(crate) const C_CTL: usize = 3;

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
}

#[derive(Debug)]
enum Slot {
    Unvisited,
    /// The instruction at this pc is not pure-local (or not decodable):
    /// cached negative result.
    NotLocal,
    Decoded(Block),
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
/// burst loops exactly (`CycleSim::master_step` / `tcu_step` /
/// `parallel::burst_local`). A field is `None` when the corresponding
/// oracle loop has no such check (e.g. `stop_cycle` for a master burst
/// outside the quiescent case, `max_instrs` under the parallel offload
/// headroom guard).
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
    /// chain bailed mid-fused-pair, or fell off a block onto a non-local
    /// instruction): the interpreted loop re-checks and takes over.
    Done,
    /// The chain reached a pc whose cache slot is `Unvisited`: the
    /// decode-on-miss driver may decode it and continue.
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
    /// Executed constituents by cost class (`[Alu, Sft, Br, Ctl]`).
    pub counts: [u64; 4],
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
            counts: [0; 4],
            fused: 0,
            replays: 0,
            decoded: 0,
        }
    }
}

#[inline]
fn eval_cond(ctx: &ThreadCtx, cond: BrCond, rs: Reg, rt: Reg) -> bool {
    let a = ctx.regs.get(rs);
    match cond {
        BrCond::Eq => a == ctx.regs.get(rt),
        BrCond::Ne => a != ctx.regs.get(rt),
        BrCond::Lez => (a as i32) <= 0,
        BrCond::Gtz => (a as i32) > 0,
        BrCond::Ltz => (a as i32) < 0,
        BrCond::Gez => (a as i32) >= 0,
    }
}

#[inline]
fn exec_bin(ctx: &mut ThreadCtx, op: BinAlu, rd: Reg, rs: Reg, rt: Reg) {
    let r = &mut ctx.regs;
    let a = r.get(rs);
    let b = r.get(rt);
    let v = match op {
        BinAlu::Add => a.wrapping_add(b),
        BinAlu::Sub => a.wrapping_sub(b),
        BinAlu::And => a & b,
        BinAlu::Or => a | b,
        BinAlu::Xor => a ^ b,
        BinAlu::Nor => !(a | b),
        BinAlu::Slt => ((a as i32) < (b as i32)) as u32,
        BinAlu::Sltu => (a < b) as u32,
    };
    r.set(rd, v);
}

#[inline]
fn exec_cmp(ctx: &mut ThreadCtx, cmp: CmpOp) {
    match cmp {
        CmpOp::Reg { op, rd, rs, rt } => exec_bin(ctx, op, rd, rs, rt),
        CmpOp::Imm { op, rt, rs, imm } => {
            let r = &mut ctx.regs;
            let a = r.get(rs);
            let v = match op {
                ImmAlu::Slti => ((a as i32) < (imm as i32)) as u32,
                _ => (a < imm) as u32, // Sltiu — nothing else occurs here
            };
            r.set(rt, v);
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
    /// when exhausted, so the per-constituent break checks run only near
    /// a boundary.
    fn replay_chain(&self, ctx: &mut ThreadCtx, env: &ReplayEnv, cur: &mut Cursor) -> ChainStop {
        let cp = env.cp;
        let mut done = cur.done;
        let mut len = cur.len;
        let mut executed = cur.executed;
        let mut counts = cur.counts;
        let mut fused = cur.fused;
        let mut replays = cur.replays;
        let mut free = 0u64;
        let stop = 'chain: loop {
            // A positive leftover budget *is* a proof the slot is open.
            if free == 0 && env.slot_blocked(len, done, env.instrs_base + executed) {
                break 'chain ChainStop::Done;
            }
            let block = match self.slots.get(ctx.pc as usize) {
                Some(Slot::Decoded(b)) => b,
                _ => break 'chain ChainStop::Miss,
            };
            replays += 1;
            let mut pc = block.start;
            for op in &block.ops {
                let n = op.constituents();
                if free >= n {
                    free -= n;
                } else {
                    // The worst-case budget pessimizes every constituent to 2
                    // clock periods, so a fresh derivation from the *actual*
                    // current state may hand back more slots before the
                    // per-constituent checks have to take over.
                    free = env.free_slots(len, done, env.instrs_base + executed);
                    if free >= n {
                        free -= n;
                    } else {
                        free = 0;
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
                            match *op {
                                DecodedOp::LiBin { li_rt, imm, .. } => ctx.regs.set_i(li_rt, imm),
                                DecodedOp::CmpBr { cmp, .. } => exec_cmp(ctx, cmp),
                                _ => unreachable!("only fused ops have two constituents"),
                            }
                            counts[C_ALU] += 1;
                            len += 1;
                            executed += 1;
                            done += cp;
                            ctx.pc = pc + 1;
                            break 'chain ChainStop::Done;
                        }
                    }
                }
                match *op {
                    DecodedOp::Bin { op, rd, rs, rt } => {
                        exec_bin(ctx, op, rd, rs, rt);
                        counts[C_ALU] += 1;
                        done += cp;
                    }
                    DecodedOp::Imm { op, rt, rs, imm } => {
                        let r = &mut ctx.regs;
                        let a = r.get(rs);
                        let v = match op {
                            ImmAlu::Addi => a.wrapping_add(imm),
                            ImmAlu::Andi => a & imm,
                            ImmAlu::Ori => a | imm,
                            ImmAlu::Xori => a ^ imm,
                            ImmAlu::Slti => ((a as i32) < (imm as i32)) as u32,
                            ImmAlu::Sltiu => (a < imm) as u32,
                        };
                        r.set(rt, v);
                        counts[C_ALU] += 1;
                        done += cp;
                    }
                    DecodedOp::Li { rt, imm } => {
                        ctx.regs.set_i(rt, imm);
                        counts[C_ALU] += 1;
                        done += cp;
                    }
                    DecodedOp::Lui { rt, upper } => {
                        ctx.regs.set(rt, upper);
                        counts[C_ALU] += 1;
                        done += cp;
                    }
                    DecodedOp::Move { rd, rs } => {
                        let v = ctx.regs.get(rs);
                        ctx.regs.set(rd, v);
                        counts[C_ALU] += 1;
                        done += cp;
                    }
                    DecodedOp::ShImm { op, rd, rt, sh } => {
                        let r = &mut ctx.regs;
                        match op {
                            ShKind::Sll => {
                                let v = r.get(rt) << sh;
                                r.set(rd, v);
                            }
                            ShKind::Srl => {
                                let v = r.get(rt) >> sh;
                                r.set(rd, v);
                            }
                            ShKind::Sra => {
                                let v = r.get_i(rt) >> sh;
                                r.set_i(rd, v);
                            }
                        }
                        counts[C_SFT] += 1;
                        done += cp;
                    }
                    DecodedOp::ShVar { op, rd, rt, rs } => {
                        let r = &mut ctx.regs;
                        let sh = r.get(rs) & 31;
                        match op {
                            ShKind::Sll => {
                                let v = r.get(rt) << sh;
                                r.set(rd, v);
                            }
                            ShKind::Srl => {
                                let v = r.get(rt) >> sh;
                                r.set(rd, v);
                            }
                            ShKind::Sra => {
                                let v = r.get_i(rt) >> sh;
                                r.set_i(rd, v);
                            }
                        }
                        counts[C_SFT] += 1;
                        done += cp;
                    }
                    DecodedOp::Nop => {
                        counts[C_CTL] += 1;
                        done += cp;
                    }
                    DecodedOp::Br {
                        cond,
                        rs,
                        rt,
                        target,
                    } => {
                        let taken = eval_cond(ctx, cond, rs, rt);
                        ctx.pc = if taken { target } else { pc + 1 };
                        counts[C_BR] += 1;
                        done += if taken { 2 * cp } else { cp };
                        len += 1;
                        executed += 1;
                        continue 'chain;
                    }
                    DecodedOp::J { target } => {
                        ctx.pc = target;
                        counts[C_BR] += 1;
                        done += 2 * cp;
                        len += 1;
                        executed += 1;
                        continue 'chain;
                    }
                    DecodedOp::Jal { target, link } => {
                        ctx.regs.set(Reg::Ra, link);
                        ctx.pc = target;
                        counts[C_BR] += 1;
                        done += 2 * cp;
                        len += 1;
                        executed += 1;
                        continue 'chain;
                    }
                    DecodedOp::Jr { rs } => {
                        ctx.pc = ctx.regs.get(rs);
                        counts[C_BR] += 1;
                        done += 2 * cp;
                        len += 1;
                        executed += 1;
                        continue 'chain;
                    }
                    DecodedOp::Jalr { rd, rs, link } => {
                        // Destination read *before* the link write (rd == rs).
                        let dest = ctx.regs.get(rs);
                        ctx.regs.set(rd, link);
                        ctx.pc = dest;
                        counts[C_BR] += 1;
                        done += 2 * cp;
                        len += 1;
                        executed += 1;
                        continue 'chain;
                    }
                    DecodedOp::LiBin {
                        li_rt,
                        imm,
                        op,
                        rd,
                        rs,
                        rt,
                    } => {
                        ctx.regs.set_i(li_rt, imm);
                        exec_bin(ctx, op, rd, rs, rt);
                        counts[C_ALU] += 2;
                        done += 2 * cp;
                        len += 2;
                        executed += 2;
                        fused += 1;
                        pc += 2;
                        continue;
                    }
                    DecodedOp::CmpBr {
                        cmp,
                        cond,
                        brs,
                        brt,
                        target,
                    } => {
                        exec_cmp(ctx, cmp);
                        let taken = eval_cond(ctx, cond, brs, brt);
                        ctx.pc = if taken { target } else { pc + 2 };
                        counts[C_ALU] += 1;
                        counts[C_BR] += 1;
                        done += cp + if taken { 2 * cp } else { cp };
                        len += 2;
                        executed += 2;
                        fused += 1;
                        continue 'chain;
                    }
                }
                len += 1;
                executed += 1;
                pc += 1;
            }
            // Fell past the last decoded op: the next instruction is
            // non-local.
            ctx.pc = pc;
            break 'chain ChainStop::Done;
        };
        cur.done = done;
        cur.len = len;
        cur.executed = executed;
        cur.counts = counts;
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
            Slot::Decoded(Block {
                start: pc,
                ops,
                worth,
            })
        };
    }

    /// Read-only lookup, never decodes.
    #[cfg(test)]
    fn lookup(&self, pc: u32) -> Option<&Block> {
        match self.slots.get(pc as usize) {
            Some(Slot::Decoded(b)) => Some(b),
            _ => None,
        }
    }

    /// Pre-decode the block at `pc` and (transitively) its static
    /// successors, up to `budget` blocks — the coordinator-side warm-up
    /// that lets read-only worker replays run whole loops. Returns once
    /// the frontier is exhausted or the budget spent.
    pub(crate) fn warm(&mut self, exe: &Executable, pc: u32, mut budget: u32) {
        let mut frontier = vec![pc];
        while let Some(p) = frontier.pop() {
            if budget == 0 {
                return;
            }
            if (p as usize) < self.slots.len() && matches!(self.slots[p as usize], Slot::Unvisited)
            {
                budget -= 1;
                self.decode_block(exe, p);
                if let Slot::Decoded(b) = &self.slots[p as usize] {
                    let end = b.start + b.ops.iter().map(|o| o.constituents() as u32).sum::<u32>();
                    match *b.ops.last().expect("decoded blocks are non-empty") {
                        DecodedOp::Br { target, .. } | DecodedOp::CmpBr { target, .. } => {
                            frontier.push(target);
                            frontier.push(end);
                        }
                        DecodedOp::J { target } | DecodedOp::Jal { target, .. } => {
                            frontier.push(target)
                        }
                        // Dynamic jump targets are unknown statically;
                        // fall-through past a non-terminator end is
                        // non-local by construction.
                        _ => {}
                    }
                }
            }
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

    /// [`Self::replayable`] for the read-only worker drivers, which never
    /// decode: only an already-`Decoded`, worthwhile slot can pay off.
    #[inline]
    pub(crate) fn replayable_shared(&self, pc: u32) -> bool {
        matches!(self.slots.get(pc as usize), Some(Slot::Decoded(b)) if b.worth)
    }

    /// Fast-forward `ctx` through decoded blocks until a break condition,
    /// a non-local pc, or a mid-pair bail stops it — the sequential
    /// (decode-on-miss) driver: a chain stopping on an `Unvisited` slot
    /// decodes it and chains on.
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

    /// [`Self::replay`] without decode-on-miss — the worker-thread driver
    /// over a shared read-only cache: an un-decoded pc simply ends the
    /// fast-forward and the interpreted `burst_local` loop takes over.
    pub(crate) fn replay_shared(&self, ctx: &mut ThreadCtx, env: &ReplayEnv, cur: &mut Cursor) {
        let _ = self.replay_chain(ctx, env, cur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use xmt_isa::{AsmProgram, Instr, MemoryMap, Target};

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
        let mut o_counts = [0u64; 4];
        let mut o_instrs = 0u64;
        while exec::peek_burstable(&exe, oracle.pc) {
            let cost = exec::issue_local(&exe, &mut oracle).unwrap();
            use crate::exec::CostClass as C;
            let (slot, cycles) = match cost {
                C::Alu => (C_ALU, 1),
                C::Sft => (C_SFT, 1),
                C::Branch { taken } => (C_BR, if taken { 2 } else { 1 }),
                _ => (C_CTL, 1),
            };
            o_counts[slot] += 1;
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

    #[test]
    fn warm_predecodes_loop_blocks_for_readonly_replay() {
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::T1,
            imm: 10,
        });
        p.label("loop");
        p.push(Instr::Addi {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Slt {
            rd: Reg::T2,
            rs: Reg::T0,
            rt: Reg::T1,
        });
        p.push(Instr::Bne {
            rs: Reg::T2,
            rt: Reg::Zero,
            target: Target::label("loop"),
        });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();

        let mut cache = DecodeCache::new(exe.len());
        cache.warm(&exe, exe.entry, 16);
        assert!(cache.stats.blocks_decoded >= 2, "entry + loop body");

        // A read-only replay from the warmed cache runs the whole loop.
        let mut ctx = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        let env = unlimited_env();
        let mut cur = Cursor::new(0, 0);
        cache.replay_shared(&mut ctx, &env, &mut cur);
        assert_eq!(ctx.regs.get(Reg::T0), 10, "loop ran to completion");
        assert!(cur.replays >= 10);
        assert!(cur.fused >= 10, "compare+branch fused in the loop");
    }
}
