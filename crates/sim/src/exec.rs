//! Operational semantics of the XMT ISA — the *functional model* of paper
//! Fig. 3.
//!
//! The pure-local instructions (ALU, shifts, immediates, branches and
//! jumps: registers and pc only) are stated once, as the
//! [`DecodedOp`]s that [`crate::decode::exec_op`] executes. This module
//! states everything else, split so the cycle-accurate model can
//! interleave timing with state changes the way the hardware does:
//!
//! 1. [`issue`] — fetch + decode + execute at the TCU. Everything that
//!    happens inside the TCU (ALU ops, branches, `ps`, prints) takes
//!    effect immediately; memory operations are *decoded* into a
//!    [`MemRequest`] with their address and store value captured, but not
//!    yet applied.
//! 2. [`perform`] — apply a memory request to the shared memory. The
//!    cycle model calls this when the request is *serviced at the cache
//!    module*, so stores and `psm`s from different TCUs hit memory in
//!    service order, not issue order — this is precisely the relaxation
//!    the XMT memory model exposes (paper §IV-A).
//! 3. [`complete`] — deliver a load/`psm` result to the destination
//!    register when the response arrives back at the TCU.
//!
//! The serialized executor (`functional::Serial`: functional mode and
//! phase sampling's fast-forward) runs the three back to back.

use crate::decode::exec_op;
use crate::machine::{Machine, OutputItem, ThreadCtx, Trap};
use xmt_harness::{json_enum, json_struct};
use xmt_isa::decode::{decode_instr, DecodedOp};
use xmt_isa::{Executable, FReg, FuKind, Instr, Reg};

/// Cost classification of an immediately-executed instruction, consumed by
/// the cycle-accurate model to charge latency and shared-resource time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    Alu,
    Sft,
    /// Branch or jump; `taken` distinguishes the (costlier) taken path.
    Branch { taken: bool },
    /// Multiply on the cluster-shared MDU.
    Mul,
    /// Divide/remainder on the cluster-shared MDU.
    Div,
    FpAdd,
    FpMul,
    FpDiv,
    /// FP moves, conversions, compares, immediates.
    FpMisc,
    /// Prefix-sum to global register (the dedicated ps unit).
    Ps,
    /// `print` family.
    Print,
    /// nop/other control.
    Ctl,
}

json_enum!(CostClass {
    Alu, Sft, Branch { taken }, Mul, Div, FpAdd, FpMul, FpDiv, FpMisc, Ps,
    Print, Ctl,
});

impl CostClass {
    /// The functional-unit kind an instruction of this class is counted
    /// under.
    #[inline]
    pub fn fu(self) -> FuKind {
        match self {
            CostClass::Alu => FuKind::Alu,
            CostClass::Sft => FuKind::Sft,
            CostClass::Branch { .. } => FuKind::Br,
            CostClass::Mul | CostClass::Div => FuKind::Mdu,
            CostClass::FpAdd | CostClass::FpMul | CostClass::FpDiv | CostClass::FpMisc => {
                FuKind::Fpu
            }
            CostClass::Ps => FuKind::Ps,
            CostClass::Print | CostClass::Ctl => FuKind::Ctl,
        }
    }
}

/// What kind of memory operation a [`MemRequest`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Word load.
    LoadW,
    /// Byte load (`signed` selects sign extension).
    LoadB { signed: bool },
    /// FP word load.
    LoadF,
    /// Word load eligible for the cluster read-only cache.
    LoadRo,
    /// Word store; `nb` marks the non-blocking variant.
    StoreW { nb: bool },
    /// Byte store.
    StoreB { nb: bool },
    /// FP word store.
    StoreF { nb: bool },
    /// Prefix-sum to memory (atomic fetch-and-add).
    Psm,
    /// Prefetch into the TCU prefetch buffer.
    Pref,
}

json_enum!(MemKind {
    LoadW, LoadB { signed }, LoadF, LoadRo, StoreW { nb }, StoreB { nb },
    StoreF { nb }, Psm, Pref,
});

impl MemKind {
    /// Does the issuing context wait for the response?
    /// (Loads and `psm` block; non-blocking stores and prefetches don't.)
    pub fn blocking(self) -> bool {
        match self {
            MemKind::LoadW | MemKind::LoadB { .. } | MemKind::LoadF | MemKind::LoadRo
            | MemKind::Psm => true,
            MemKind::StoreW { nb } | MemKind::StoreB { nb } | MemKind::StoreF { nb } => !nb,
            MemKind::Pref => false,
        }
    }

    /// Does this request read memory at the module?
    pub fn reads(self) -> bool {
        !matches!(
            self,
            MemKind::StoreW { .. } | MemKind::StoreB { .. } | MemKind::StoreF { .. }
        )
    }

    /// Does this request write memory at the module?
    pub fn writes(self) -> bool {
        matches!(
            self,
            MemKind::StoreW { .. } | MemKind::StoreB { .. } | MemKind::StoreF { .. }
                | MemKind::Psm
        )
    }
}

/// A decoded memory operation in flight between a TCU and a cache module.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRequest {
    pub kind: MemKind,
    /// Effective byte address.
    pub addr: u32,
    /// Integer destination register (loads, `psm`).
    pub dst_i: Option<Reg>,
    /// FP destination register (FP loads).
    pub dst_f: Option<FReg>,
    /// Store data / `psm` increment, captured at issue.
    pub value: u32,
    /// Instruction index that issued the request (for traces/statistics).
    pub pc: u32,
}

json_struct!(MemRequest { kind, addr, dst_i, dst_f, value, pc });

/// Result of issuing one instruction on a context.
#[derive(Debug, Clone, PartialEq)]
pub enum Issued {
    /// Instruction fully executed at the TCU; charge `CostClass`.
    Done(CostClass),
    /// Memory operation decoded; apply with [`perform`]/[`complete`].
    Mem(MemRequest),
    /// `spawn lo, hi` executed by the master; the runner starts the
    /// parallel section. `spawn_idx` is the index of the spawn itself,
    /// `join_idx` that of its `join`.
    Spawn { lo: i32, hi: i32, spawn_idx: u32, join_idx: u32 },
    /// `chkid` found the id out of bounds: park this TCU.
    ChkidBlocked,
    /// `fence`: the context must wait until its pending memory operations
    /// drain (a no-op in the functional mode, which is always drained).
    Fence,
    /// `halt` executed by the master.
    Halt,
}

json_enum!(Issued {
    Done(CostClass), Mem(MemRequest), Spawn { lo, hi, spawn_idx, join_idx },
    ChkidBlocked, Fence, Halt,
});

/// The execution mode of a context — decides which instructions trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The Master TCU running serial code.
    Master,
    /// A TCU running a virtual thread; the payload is the current spawn
    /// bound `hi` used by `chkid`.
    Parallel { hi: i32 },
}

/// Fetch, decode and execute one instruction on `ctx`.
///
/// On return the program counter has been advanced (branches resolved);
/// for memory operations the returned request still has to be applied.
pub fn issue(exe: &Executable, ctx: &mut ThreadCtx, m: &mut Machine, mode: Mode)
    -> Result<Issued, Trap>
{
    let pc = ctx.pc;
    let Some(ins) = exe.instr(pc) else {
        return Err(Trap::PcOutOfRange { pc });
    };
    // Pure local operations (ALU/shift/branch) are decoded ops, executed
    // by the one `exec_op` every path shares.
    if let Some(op) = decode_instr(ins, pc) {
        return Ok(Issued::Done(exec_decoded(&op, ctx)));
    }
    let r = &mut ctx.regs;
    // Default: fall through.
    ctx.pc = pc + 1;
    use Instr::*;
    let issued = match *ins {
        Mul { rd, rs, rt } => {
            let v = r.get(rs).wrapping_mul(r.get(rt));
            r.set(rd, v);
            Issued::Done(CostClass::Mul)
        }
        Div { rd, rs, rt } => {
            let (a, b) = (r.get_i(rs), r.get_i(rt));
            // Division by zero yields 0 (defined behaviour in the
            // simulator; MIPS leaves it unspecified).
            let v = if b == 0 { 0 } else { a.wrapping_div(b) };
            r.set_i(rd, v);
            Issued::Done(CostClass::Div)
        }
        Rem { rd, rs, rt } => {
            let (a, b) = (r.get_i(rs), r.get_i(rt));
            let v = if b == 0 { 0 } else { a.wrapping_rem(b) };
            r.set_i(rd, v);
            Issued::Done(CostClass::Div)
        }
        // ---- memory (decode only) ----
        Lw { rt, base, off } => mem(MemKind::LoadW, r.get(base), off, pc, Some(rt), None, 0)?,
        Lb { rt, base, off } => {
            mem(MemKind::LoadB { signed: true }, r.get(base), off, pc, Some(rt), None, 0)?
        }
        Lbu { rt, base, off } => {
            mem(MemKind::LoadB { signed: false }, r.get(base), off, pc, Some(rt), None, 0)?
        }
        Lwro { rt, base, off } => mem(MemKind::LoadRo, r.get(base), off, pc, Some(rt), None, 0)?,
        Sw { rt, base, off } => {
            mem(MemKind::StoreW { nb: false }, r.get(base), off, pc, None, None, r.get(rt))?
        }
        Swnb { rt, base, off } => {
            mem(MemKind::StoreW { nb: true }, r.get(base), off, pc, None, None, r.get(rt))?
        }
        Sb { rt, base, off } => {
            let v = r.get(rt) & 0xff;
            mem(MemKind::StoreB { nb: false }, r.get(base), off, pc, None, None, v)?
        }
        Pref { base, off } => mem(MemKind::Pref, r.get(base), off, pc, None, None, 0)?,
        Flw { ft, base, off } => mem(MemKind::LoadF, r.get(base), off, pc, None, Some(ft), 0)?,
        Fsw { ft, base, off } => {
            let v = r.getf(ft).to_bits();
            mem(MemKind::StoreF { nb: false }, r.get(base), off, pc, None, None, v)?
        }
        Psm { rt, base, off } => {
            mem(MemKind::Psm, r.get(base), off, pc, Some(rt), None, r.get(rt))?
        }
        // ---- floating point ----
        Fadd { fd, fs, ft } => {
            let v = r.getf(fs) + r.getf(ft);
            r.setf(fd, v);
            Issued::Done(CostClass::FpAdd)
        }
        Fsub { fd, fs, ft } => {
            let v = r.getf(fs) - r.getf(ft);
            r.setf(fd, v);
            Issued::Done(CostClass::FpAdd)
        }
        Fmul { fd, fs, ft } => {
            let v = r.getf(fs) * r.getf(ft);
            r.setf(fd, v);
            Issued::Done(CostClass::FpMul)
        }
        Fdiv { fd, fs, ft } => {
            let v = r.getf(fs) / r.getf(ft);
            r.setf(fd, v);
            Issued::Done(CostClass::FpDiv)
        }
        Fmov { fd, fs } => {
            let v = r.getf(fs);
            r.setf(fd, v);
            Issued::Done(CostClass::FpMisc)
        }
        Fneg { fd, fs } => {
            let v = -r.getf(fs);
            r.setf(fd, v);
            Issued::Done(CostClass::FpMisc)
        }
        Fcvtsw { fd, rs } => {
            let v = r.get_i(rs) as f32;
            r.setf(fd, v);
            Issued::Done(CostClass::FpMisc)
        }
        Fcvtws { rd, fs } => {
            let v = r.getf(fs) as i32;
            r.set_i(rd, v);
            Issued::Done(CostClass::FpMisc)
        }
        Fcmp { op, rd, fs, ft } => {
            let (a, b) = (r.getf(fs), r.getf(ft));
            let v = match op {
                xmt_isa::instr::FCmpOp::Eq => a == b,
                xmt_isa::instr::FCmpOp::Lt => a < b,
                xmt_isa::instr::FCmpOp::Le => a <= b,
            };
            r.set(rd, v as u32);
            Issued::Done(CostClass::FpMisc)
        }
        Fli { fd, imm } => {
            r.setf(fd, imm);
            Issued::Done(CostClass::FpMisc)
        }
        // ---- XMT primitives ----
        Spawn { lo, hi } => {
            if matches!(mode, Mode::Parallel { .. }) {
                return Err(Trap::SpawnInParallel { pc });
            }
            // The linker and the JSON reader pair every spawn; only an
            // image assembled by hand can lack the entry.
            let Some(join_idx) = exe.join_of(pc) else {
                return Err(Trap::UnmatchedSpawn { pc });
            };
            Issued::Spawn { lo: r.get_i(lo), hi: r.get_i(hi), spawn_idx: pc, join_idx }
        }
        Join => {
            // Reached only by falling through: for a TCU that means the
            // compiler forgot the loop-back jump; for the master it means
            // control entered a spawn region illegally.
            return Err(match mode {
                Mode::Parallel { .. } => Trap::FellThroughJoin { pc },
                Mode::Master => Trap::StrayJoin { pc },
            });
        }
        Ps { rt, gr } => {
            let inc = r.get_i(rt);
            if inc != 0 && inc != 1 {
                return Err(Trap::PsIncrementInvalid { pc, value: inc });
            }
            let old = m.ps(gr, inc as u32);
            r.set(rt, old);
            Issued::Done(CostClass::Ps)
        }
        Grput { gr, rs } => {
            if matches!(mode, Mode::Parallel { .. }) {
                return Err(Trap::GrputInParallel { pc });
            }
            m.gregs[gr.0 as usize] = ctx.regs.get(rs);
            Issued::Done(CostClass::Ps)
        }
        Chkid { rt } => {
            let Mode::Parallel { hi } = mode else {
                return Err(Trap::ChkidOutsideSpawn { pc });
            };
            if r.get_i(rt) > hi {
                ctx.pc = pc; // stay parked at the chkid
                Issued::ChkidBlocked
            } else {
                Issued::Done(CostClass::Branch { taken: false })
            }
        }
        Fence => Issued::Fence,
        // ---- system ----
        Print { rs } => {
            m.output.items.push(OutputItem::Int(r.get_i(rs)));
            Issued::Done(CostClass::Print)
        }
        Printf { fs } => {
            m.output.items.push(OutputItem::Float(r.getf(fs)));
            Issued::Done(CostClass::Print)
        }
        Printc { rs } => {
            m.output.items.push(OutputItem::Char((r.get(rs) & 0xff) as u8 as char));
            Issued::Done(CostClass::Print)
        }
        Halt => {
            if matches!(mode, Mode::Parallel { .. }) {
                return Err(Trap::HaltInParallel { pc });
            }
            m.halted = true;
            Issued::Halt
        }
        // `decode_instr` took every pure-local instruction but a branch
        // whose target is still a label, which the linker and the JSON
        // reader both refuse to leave.
        Beq { .. } | Bne { .. } | Blez { .. } | Bgtz { .. } | Bltz { .. } | Bgez { .. }
        | J { .. } | Jal { .. } => panic!("unresolved branch target at pc {pc}: {ins:?}"),
        Add { .. } | Sub { .. } | And { .. } | Or { .. } | Xor { .. } | Nor { .. } | Slt { .. }
        | Sltu { .. } | Addi { .. } | Andi { .. } | Ori { .. } | Xori { .. } | Slti { .. }
        | Sltiu { .. } | Li { .. } | Lui { .. } | Move { .. } | Sll { .. } | Srl { .. }
        | Sra { .. } | Sllv { .. } | Srlv { .. } | Srav { .. } | Jr { .. } | Jalr { .. } | Nop => {
            unreachable!("decoded above")
        }
    };
    Ok(issued)
}

/// Fetch, decode and execute one *pure local* instruction on `ctx`
/// without touching any shared state — the TCU burst loop's, the closed-form
/// first round's and the functional peephole's issue path. Returns `None`
/// (with `ctx` untouched) when the pc is out of range or the instruction
/// is not in the [`peek_burstable`] subset; the caller then takes the
/// general path.
pub fn issue_local(exe: &Executable, ctx: &mut ThreadCtx) -> Option<CostClass> {
    let pc = ctx.pc;
    Some(exec_decoded(&decode_instr(exe.instr(pc)?, pc)?, ctx))
}

/// [`exec_op`] for one unfused op at `ctx.pc`: its one cost class.
#[inline(always)]
fn exec_decoded(op: &DecodedOp, ctx: &mut ThreadCtx) -> CostClass {
    let mut cost = CostClass::Ctl;
    ctx.pc = exec_op(op, ctx.pc, ctx, |c| cost = c);
    cost
}

/// True when the instruction at `pc` is a *pure local* operation — one
/// [`decode_instr`] decodes: one [`issue`] is guaranteed to resolve to
/// [`Issued::Done`] with an unarbitrated cost class, that cannot trap in
/// any mode, and that touches only the issuing context's private state
/// (registers and pc). These are the instructions the cycle model's
/// compute-burst issue path ([`crate::config::IssueModel::Burst`]) may
/// fold into one aggregate step event without any other component being
/// able to observe the difference. Everything else breaks a burst: memory
/// operations can trap on alignment and travel shared resources,
/// `mul`/`div`/fp classes arbitrate the cluster-shared MDU/FPU,
/// `ps`/`grput` touch the global register file, `print*` appends to the
/// shared output stream, and `chkid`/`spawn`/`join`/`fence`/`halt` are
/// control boundaries. A `pc` outside the program also returns false, so
/// the fetch trap surfaces through the per-instruction path at its exact
/// per-instruction time. (This is a TCU's notion of "nobody can observe
/// it"; the Master TCU, alone on the machine in serial mode, folds more —
/// see `CycleSim::master_step`.)
pub fn peek_burstable(exe: &Executable, pc: u32) -> bool {
    exe.instr(pc).is_some_and(|ins| decode_instr(ins, pc).is_some())
}

/// What the instruction at `pc` is when it fails [`peek_burstable`], as an
/// index into [`NONLOCAL_CAUSES`] — the host profile's split of the
/// bursts that stopped at a non-local instruction.
pub fn nonlocal_cause(exe: &Executable, pc: u32) -> usize {
    use Instr::*;
    match exe.instr(pc) {
        Some(Ps { .. } | Psm { .. }) => 2,
        Some(Chkid { .. }) => 3,
        Some(Fence) => 4,
        Some(i) => match i.fu_kind() {
            FuKind::Mem => 0,
            FuKind::Mdu | FuKind::Fpu => 1,
            _ => 5,
        },
        None => 5,
    }
}

/// Names of the [`nonlocal_cause`] classes: a memory op, a cluster-shared
/// MDU/FPU op, `ps`/`psm`, `chkid`, `fence`, anything else (`print`, an
/// instruction that traps in parallel mode, a pc outside the program).
pub const NONLOCAL_CAUSES: [&str; 6] = ["mem", "shared_fu", "ps", "chkid", "fence", "other"];

/// The request a memory instruction at `pc` makes of `base + off`. A
/// word access must be word-aligned; a byte access may fall anywhere.
#[inline]
fn mem(
    kind: MemKind,
    base: u32,
    off: i32,
    pc: u32,
    dst_i: Option<Reg>,
    dst_f: Option<FReg>,
    value: u32,
) -> Result<Issued, Trap> {
    let addr = base.wrapping_add(off as u32);
    let bytes = matches!(kind, MemKind::LoadB { .. } | MemKind::StoreB { .. });
    if !bytes && !addr.is_multiple_of(4) {
        return Err(Trap::Misaligned { pc, addr });
    }
    Ok(Issued::Mem(MemRequest { kind, addr, dst_i, dst_f, value, pc }))
}

/// Apply a memory request to the machine; returns the response value
/// (load data, or the *old* value for `psm`; 0 for stores/prefetch).
///
/// In the cycle-accurate model this runs at the instant the cache module
/// services the request, which is what makes inter-thread orderings
/// follow the interconnect, not program order.
pub fn perform(m: &mut Machine, req: &MemRequest) -> u32 {
    match req.kind {
        MemKind::LoadW | MemKind::LoadRo | MemKind::LoadF => m.mem.read_u32(req.addr),
        MemKind::LoadB { signed } => {
            let b = m.mem.read_u8(req.addr);
            if signed {
                b as i8 as i32 as u32
            } else {
                b as u32
            }
        }
        MemKind::StoreW { .. } | MemKind::StoreF { .. } => {
            m.mem.write_u32(req.addr, req.value);
            0
        }
        MemKind::StoreB { .. } => {
            m.mem.write_u8(req.addr, req.value as u8);
            0
        }
        MemKind::Psm => {
            let old = m.mem.read_u32(req.addr);
            m.mem.write_u32(req.addr, old.wrapping_add(req.value));
            old
        }
        MemKind::Pref => 0,
    }
}

/// Deliver a response value to the issuing context's destination register.
pub fn complete(ctx: &mut ThreadCtx, req: &MemRequest, value: u32) {
    if let Some(rd) = req.dst_i {
        ctx.regs.set(rd, value);
    }
    if let Some(fd) = req.dst_f {
        ctx.regs.setf(fd, f32::from_bits(value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Target};

    fn run_serial(p: AsmProgram, mm: MemoryMap) -> (Machine, ThreadCtx) {
        let exe = p.link(mm).unwrap();
        let mut m = Machine::load(&exe).unwrap();
        let mut ctx = ThreadCtx { pc: exe.entry, ..Default::default() };
        ctx.regs.set(Reg::Sp, xmt_isa::STACK_TOP);
        for _ in 0..100_000 {
            match issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap() {
                Issued::Done(_) | Issued::Fence => {}
                Issued::Mem(req) => {
                    let v = perform(&mut m, &req);
                    complete(&mut ctx, &req, v);
                }
                Issued::Halt => return (m, ctx),
                other => panic!("unexpected in serial test: {other:?}"),
            }
        }
        panic!("did not halt");
    }

    /// `issue_local` takes exactly the `peek_burstable` subset: `Some`
    /// there, and `None`, with the context untouched, everywhere else
    /// (what each local opcode does is `decode`'s golden table). A program
    /// covering every local opcode plus representatives of every non-local
    /// class is probed at each pc, and one past the end.
    #[test]
    fn issue_local_matches_issue_on_the_burstable_subset() {
        use Instr::*;
        let mut p = AsmProgram::new();
        let t = |i: u32| Target::Abs(i);
        for ins in [
            Li { rt: Reg::T0, imm: 7 },
            Li { rt: Reg::T1, imm: -3 },
            Add { rd: Reg::T2, rs: Reg::T0, rt: Reg::T1 },
            Sub { rd: Reg::T3, rs: Reg::T0, rt: Reg::T1 },
            And { rd: Reg::T4, rs: Reg::T0, rt: Reg::T1 },
            Or { rd: Reg::T4, rs: Reg::T4, rt: Reg::T2 },
            Xor { rd: Reg::T5, rs: Reg::T4, rt: Reg::T0 },
            Nor { rd: Reg::T5, rs: Reg::T5, rt: Reg::T1 },
            Slt { rd: Reg::T6, rs: Reg::T1, rt: Reg::T0 },
            Sltu { rd: Reg::T6, rs: Reg::T1, rt: Reg::T0 },
            Addi { rt: Reg::T7, rs: Reg::T0, imm: -100 },
            Andi { rt: Reg::T7, rs: Reg::T7, imm: 0xff },
            Ori { rt: Reg::T7, rs: Reg::T7, imm: 0x10 },
            Xori { rt: Reg::T7, rs: Reg::T7, imm: 0x3 },
            Slti { rt: Reg::S0, rs: Reg::T1, imm: 0 },
            Sltiu { rt: Reg::S0, rs: Reg::T1, imm: 5 },
            Lui { rt: Reg::S1, imm: 0x1234 },
            Move { rd: Reg::S2, rs: Reg::S1 },
            Sll { rd: Reg::S3, rt: Reg::T0, sh: 3 },
            Srl { rd: Reg::S3, rt: Reg::S3, sh: 1 },
            Sra { rd: Reg::S4, rt: Reg::T1, sh: 2 },
            Sllv { rd: Reg::S5, rt: Reg::T0, rs: Reg::T0 },
            Srlv { rd: Reg::S5, rt: Reg::S5, rs: Reg::T0 },
            Srav { rd: Reg::S6, rt: Reg::T1, rs: Reg::T0 },
            Beq { rs: Reg::T0, rt: Reg::T0, target: t(25) },
            Bne { rs: Reg::T0, rt: Reg::T0, target: t(0) },
            Blez { rs: Reg::T1, target: t(27) },
            Bgtz { rs: Reg::T1, target: t(0) },
            Bltz { rs: Reg::T1, target: t(29) },
            Bgez { rs: Reg::T1, target: t(0) },
            J { target: t(31) },
            Jal { target: t(33) },
            Jr { rs: Reg::S7 },
            Jalr { rd: Reg::S7, rs: Reg::Ra },
            Nop,
            // Non-local representatives: issue_local must decline these.
            Mul { rd: Reg::T2, rs: Reg::T0, rt: Reg::T1 },
            Lw { rt: Reg::T2, base: Reg::Zero, off: 0x1000 },
            Ps { rt: Reg::T6, gr: GlobalReg(0) },
            Print { rs: Reg::T0 },
            Halt,
        ] {
            p.push(ins);
        }
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut local = 0;
        for pc in 0..=exe.len() as u32 {
            let before = ThreadCtx { pc, ..Default::default() };
            let mut ctx = before.clone();
            let burstable = peek_burstable(&exe, pc);
            let taken = issue_local(&exe, &mut ctx).is_some();
            assert_eq!(taken, burstable, "issue_local and peek_burstable disagree at pc {pc}");
            if taken {
                local += 1;
            } else {
                assert_eq!(ctx, before, "issue_local declined pc {pc} but moved the context");
            }
        }
        assert_eq!(local, 35, "every local opcode is burstable");
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum = 1 + 2 + ... + 10
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::T0, imm: 10 }); // i
        p.push(Instr::Li { rt: Reg::T1, imm: 0 }); // sum
        p.label("loop");
        p.push(Instr::Add { rd: Reg::T1, rs: Reg::T1, rt: Reg::T0 });
        p.push(Instr::Addi { rt: Reg::T0, rs: Reg::T0, imm: -1 });
        p.push(Instr::Bgtz { rs: Reg::T0, target: Target::label("loop") });
        p.push(Instr::Print { rs: Reg::T1 });
        p.push(Instr::Halt);
        let (m, _) = run_serial(p, MemoryMap::new());
        assert_eq!(m.output.ints(), vec![55]);
    }

    #[test]
    fn memory_roundtrip_and_bytes() {
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![0x8081_8283, 0]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::T0, imm: a as i32 });
        p.push(Instr::Lb { rt: Reg::T1, base: Reg::T0, off: 3 }); // 0x80 sign-extended
        p.push(Instr::Print { rs: Reg::T1 });
        p.push(Instr::Lbu { rt: Reg::T1, base: Reg::T0, off: 3 });
        p.push(Instr::Print { rs: Reg::T1 });
        p.push(Instr::Lw { rt: Reg::T2, base: Reg::T0, off: 0 });
        p.push(Instr::Sw { rt: Reg::T2, base: Reg::T0, off: 4 });
        p.push(Instr::Lw { rt: Reg::T3, base: Reg::T0, off: 4 });
        p.push(Instr::Sra { rd: Reg::T3, rt: Reg::T3, sh: 24 });
        p.push(Instr::Print { rs: Reg::T3 });
        p.push(Instr::Halt);
        let (m, _) = run_serial(p, mm);
        assert_eq!(m.output.ints(), vec![-128, 128, -128]);
    }

    #[test]
    fn psm_fetch_and_add() {
        let mut mm = MemoryMap::new();
        let a = mm.push("ctr", vec![100]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::T0, imm: a as i32 });
        p.push(Instr::Li { rt: Reg::T1, imm: -5 });
        p.push(Instr::Psm { rt: Reg::T1, base: Reg::T0, off: 0 });
        p.push(Instr::Print { rs: Reg::T1 }); // old value 100
        p.push(Instr::Lw { rt: Reg::T2, base: Reg::T0, off: 0 });
        p.push(Instr::Print { rs: Reg::T2 }); // new value 95
        p.push(Instr::Halt);
        let (m, _) = run_serial(p, mm);
        assert_eq!(m.output.ints(), vec![100, 95]);
    }

    #[test]
    fn ps_increment_restricted_to_0_and_1() {
        let exe = {
            let mut p = AsmProgram::new();
            p.push(Instr::Li { rt: Reg::T0, imm: 2 });
            p.push(Instr::Ps { rt: Reg::T0, gr: GlobalReg(1) });
            p.push(Instr::Halt);
            p.link(MemoryMap::new()).unwrap()
        };
        let mut m = Machine::load(&exe).unwrap();
        let mut ctx = ThreadCtx::default();
        issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap();
        let err = issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap_err();
        assert_eq!(err, Trap::PsIncrementInvalid { pc: 1, value: 2 });
    }

    #[test]
    fn fp_pipeline() {
        let mut p = AsmProgram::new();
        p.push(Instr::Li { rt: Reg::T0, imm: 7 });
        p.push(Instr::Fcvtsw { fd: FReg(1), rs: Reg::T0 });
        p.push(Instr::Fli { fd: FReg(2), imm: 0.5 });
        p.push(Instr::Fmul { fd: FReg(3), fs: FReg(1), ft: FReg(2) });
        p.push(Instr::Fcvtws { rd: Reg::T1, fs: FReg(3) });
        p.push(Instr::Print { rs: Reg::T1 }); // trunc(3.5) = 3
        p.push(Instr::Fcmp {
            op: xmt_isa::instr::FCmpOp::Lt,
            rd: Reg::T2,
            fs: FReg(2),
            ft: FReg(1),
        });
        p.push(Instr::Print { rs: Reg::T2 }); // 0.5 < 7.0 -> 1
        p.push(Instr::Halt);
        let (m, _) = run_serial(p, MemoryMap::new());
        assert_eq!(m.output.ints(), vec![3, 1]);
    }

    #[test]
    fn jal_jr_function_call() {
        let mut p = AsmProgram::new();
        p.label("main");
        p.push(Instr::Li { rt: Reg::A0, imm: 20 });
        p.push(Instr::Jal { target: Target::label("double") });
        p.push(Instr::Print { rs: Reg::V0 });
        p.push(Instr::Halt);
        p.label("double");
        p.push(Instr::Add { rd: Reg::V0, rs: Reg::A0, rt: Reg::A0 });
        p.push(Instr::Jr { rs: Reg::Ra });
        let (m, _) = run_serial(p, MemoryMap::new());
        assert_eq!(m.output.ints(), vec![40]);
    }

    #[test]
    fn chkid_blocks_out_of_range() {
        let exe = {
            let mut p = AsmProgram::new();
            p.push(Instr::Li { rt: Reg::A0, imm: 0 });
            p.push(Instr::Li { rt: Reg::A1, imm: 3 });
            p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
            p.push(Instr::Chkid { rt: Reg::T0 });
            p.push(Instr::Join);
            p.push(Instr::Halt);
            p.link(MemoryMap::new()).unwrap()
        };
        let mut m = Machine::load(&exe).unwrap();
        let mut ctx = ThreadCtx { pc: 3, ..Default::default() };
        ctx.regs.set(Reg::T0, 4); // out of range: hi = 3
        let res = issue(&exe, &mut ctx, &mut m, Mode::Parallel { hi: 3 }).unwrap();
        assert_eq!(res, Issued::ChkidBlocked);
        assert_eq!(ctx.pc, 3); // parked

        ctx.regs.set(Reg::T0, 3); // in range
        let res = issue(&exe, &mut ctx, &mut m, Mode::Parallel { hi: 3 }).unwrap();
        assert!(matches!(res, Issued::Done(CostClass::Branch { taken: false })));
        assert_eq!(ctx.pc, 4);
    }

    #[test]
    fn misaligned_word_access_traps() {
        let exe = {
            let mut p = AsmProgram::new();
            p.push(Instr::Li { rt: Reg::T0, imm: 0x1000_0002 });
            p.push(Instr::Lw { rt: Reg::T1, base: Reg::T0, off: 0 });
            p.push(Instr::Halt);
            p.link(MemoryMap::new()).unwrap()
        };
        let mut m = Machine::load(&exe).unwrap();
        let mut ctx = ThreadCtx::default();
        issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap();
        let err = issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap_err();
        assert_eq!(err, Trap::Misaligned { pc: 1, addr: 0x1000_0002 });
    }

    #[test]
    fn parallel_mode_traps() {
        let exe = {
            let mut p = AsmProgram::new();
            p.push(Instr::Spawn { lo: Reg::A0, hi: Reg::A1 });
            p.push(Instr::Halt);
            p.push(Instr::Join);
            p.link(MemoryMap::new()).unwrap()
        };
        let mut m = Machine::load(&exe).unwrap();
        let par = Mode::Parallel { hi: 10 };

        let mut ctx = ThreadCtx { pc: 0, ..Default::default() };
        assert_eq!(
            issue(&exe, &mut ctx, &mut m, par).unwrap_err(),
            Trap::SpawnInParallel { pc: 0 }
        );
        let mut ctx = ThreadCtx { pc: 1, ..Default::default() };
        assert_eq!(
            issue(&exe, &mut ctx, &mut m, par).unwrap_err(),
            Trap::HaltInParallel { pc: 1 }
        );
        let mut ctx = ThreadCtx { pc: 2, ..Default::default() };
        assert_eq!(
            issue(&exe, &mut ctx, &mut m, par).unwrap_err(),
            Trap::FellThroughJoin { pc: 2 }
        );
        let mut ctx = ThreadCtx { pc: 2, ..Default::default() };
        assert_eq!(
            issue(&exe, &mut ctx, &mut m, Mode::Master).unwrap_err(),
            Trap::StrayJoin { pc: 2 }
        );
    }
}
