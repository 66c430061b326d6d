//! The XMT instruction model.
//!
//! Instructions are kept in a structured (already decoded) form: the
//! simulator is a transaction-level architecture simulator, so no binary
//! encoding is needed — exactly like the Java `Instruction` class hierarchy
//! of XMTSim, where the assembly front-end instantiates instruction objects
//! directly.
//!
//! Each opcode is declared once, as one row of the ISA table at the end of
//! this module; the [`Instr`] enum, its JSON form, the assembler and
//! disassembler, the functional-unit class, the branch target and the
//! pure-local lowering ([`decode_instr`]) are all generated from the rows.

use crate::asm::{Operand, Ops};
use crate::decode::{BinAlu, BrCond, DecodedOp as D, ImmAlu, Lower, ShKind};
use crate::reg::{FReg, GlobalReg, Reg};
use std::fmt;
use xmt_harness::json_enum;
use xmt_harness::prop::Gen;

/// A control-flow target: a symbolic label before linking, or an absolute
/// instruction index afterwards.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Target {
    /// Unresolved symbolic label.
    Label(String),
    /// Resolved absolute instruction index into the text segment.
    Abs(u32),
}

json_enum!(Target { Label(String), Abs(u32) });

impl Target {
    /// The resolved instruction index. Panics when still symbolic; only the
    /// linker ([`crate::program::AsmProgram::link`]) may observe labels.
    pub fn abs(&self) -> u32 {
        match self {
            Target::Abs(i) => *i,
            Target::Label(l) => panic!("unresolved label `{l}` at execution time"),
        }
    }

    /// Convenience constructor from anything string-like.
    pub fn label(s: impl Into<String>) -> Target {
        Target::Label(s.into())
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Label(l) => write!(f, "{l}"),
            Target::Abs(i) => write!(f, "@{i}"),
        }
    }
}

/// Comparison operator of the FP compare instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    Eq,
    Lt,
    Le,
}

json_enum!(FCmpOp { Eq, Lt, Le });

impl fmt::Display for FCmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FCmpOp::Eq => "eq",
            FCmpOp::Lt => "lt",
            FCmpOp::Le => "le",
        })
    }
}

/// Functional-unit classification of an instruction (paper Fig. 1): which
/// hardware resource executes it. Drives both cycle-accurate routing and
/// the per-unit activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Lightweight per-TCU integer ALU.
    Alu,
    /// Per-TCU shift unit.
    Sft,
    /// Per-TCU branch unit.
    Br,
    /// Cluster-shared multiply/divide unit.
    Mdu,
    /// Cluster-shared floating point unit.
    Fpu,
    /// Memory operation travelling through the interconnection network to
    /// the shared cache modules.
    Mem,
    /// Global prefix-sum unit.
    Ps,
    /// Control: spawn/join/fence/halt/print/nop.
    Ctl,
}

json_enum!(FuKind { Alu, Sft, Br, Mdu, Fpu, Mem, Ps, Ctl });

impl FuKind {
    /// All functional-unit kinds, for iterating counters.
    pub const ALL: [FuKind; 8] = [
        FuKind::Alu,
        FuKind::Sft,
        FuKind::Br,
        FuKind::Mdu,
        FuKind::Fpu,
        FuKind::Mem,
        FuKind::Ps,
        FuKind::Ctl,
    ];

    /// Short lowercase name used in statistics output.
    pub fn name(self) -> &'static str {
        match self {
            FuKind::Alu => "alu",
            FuKind::Sft => "sft",
            FuKind::Br => "br",
            FuKind::Mdu => "mdu",
            FuKind::Fpu => "fpu",
            FuKind::Mem => "mem",
            FuKind::Ps => "ps",
            FuKind::Ctl => "ctl",
        }
    }
}

/// Expands the ISA table ([`Instr`]) into everything that lists the
/// opcodes: the enum and its JSON form, the assembler ([`FromStr`]) and
/// disassembler ([`Display`]), the functional-unit class, the memory-read
/// and jump flags, the branch target, the pure-local lowering
/// ([`decode_instr`]) and a random instance of each opcode. One row per
/// opcode:
///
/// ```text
/// Variant { field: Type, .. }  "mnemonic"[.field] operand, ..;  FuKind [read|jump] [=> lowering];
/// ```
///
/// * the variant and its fields, in the order the enum and its JSON keep;
/// * the mnemonic, with `.field` for a field spelled into it (`fcmp.lt`);
/// * the operands in assembly order, `off(base)` for a memory operand; a
///   field's type says how it reads and writes ([`Operand`]);
/// * the functional unit, then `read` for an instruction that reads memory
///   or `jump` for one that never falls through;
/// * for a pure-local instruction (registers and pc only), its
///   [`DecodedOp`](D): the fields by value, a branch target as its absolute
///   pc (`target?`: `None` while it is a label), and `pc` the instruction's
///   own.
///
/// [`FromStr`]: std::str::FromStr
/// [`Display`]: fmt::Display
macro_rules! isa {
    (
        lower($pc:ident);
        $(
            $(#[$doc:meta])*
            $V:ident $({ $($f:ident: $t:ty),* })?
            $mn:literal $(. $sfx:ident)? $($op:ident $(($base:ident))?),*;
            $fu:ident $($flag:ident)? $(=> $lower:expr)?;
        )*
    ) => {
        /// One XMT machine instruction.
        ///
        /// Naming follows MIPS conventions (`rd` destination, `rs`/`rt`
        /// sources, `imm` immediate). Pseudo-instructions that the real
        /// assembler would expand (`li`, `move`) are kept as first-class
        /// instructions; the simulator charges them ALU latency, which is
        /// what their expansion would cost on the real pipeline for 16-bit
        /// immediates.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Instr {
            $( $(#[$doc])* $V $({ $($f: $t),* })?, )*
        }

        json_enum!(Instr { $( $V $({ $($f),* })? ),* });

        impl Instr {
            /// Each opcode's mnemonic (`fcmp` for all three compares), in
            /// table order.
            pub const MNEMONICS: &'static [&'static str] = &[$($mn),*];

            /// This instruction's mnemonic, one of [`Instr::MNEMONICS`].
            pub fn mnemonic(&self) -> &'static str {
                match self { $( Instr::$V { .. } => $mn, )* }
            }

            /// The functional unit that executes this instruction.
            pub fn fu_kind(&self) -> FuKind {
                match self { $( Instr::$V { .. } => FuKind::$fu, )* }
            }

            /// Whether this instruction reads memory (loads, `psm`, prefetch).
            pub fn is_mem_read(&self) -> bool {
                match self { $( Instr::$V { .. } => isa!(@flag read $($flag)?), )* }
            }

            /// Whether control *always* leaves the fall-through path here
            /// (unconditional jump, return, halt).
            pub fn is_unconditional_jump(&self) -> bool {
                match self { $( Instr::$V { .. } => isa!(@flag jump $($flag)?), )* }
            }

            /// The branch/jump target, if this instruction has a static one.
            pub fn target(&self) -> Option<&Target> {
                match self { $( Instr::$V { $($($f),*)? } => None$($(.or($f.target()))*)?, )* }
            }

            /// Mutable access to the static branch/jump target.
            pub fn target_mut(&mut self) -> Option<&mut Target> {
                match self { $( Instr::$V { $($($f),*)? } => None$($(.or($f.target_mut()))*)?, )* }
            }

            /// An instruction of opcode `k` (an index into
            /// [`Instr::MNEMONICS`]) with every field drawn from `g` over all
            /// of its valid values — for property tests.
            #[allow(unused_variables)]
            pub fn arbitrary(k: usize, g: &mut Gen) -> Instr {
                let rows: [fn(&mut Gen) -> Instr; Instr::MNEMONICS.len()] =
                    [$( |g| Instr::$V { $($($f: <$t as Operand>::arbitrary(g)),*)? } ),*];
                rows[k](g)
            }
        }

        impl fmt::Display for Instr {
            #[allow(unused_mut, unused_variables)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $( Instr::$V { $($($f),*)? } => {
                        f.write_str($mn)?;
                        $( f.write_str(".")?; $sfx.write(f)?; )?
                        let mut sep = " ";
                        $(
                            f.write_str(std::mem::replace(&mut sep, ", "))?;
                            isa!(@write f, $op $(($base))?);
                        )*
                        Ok(())
                    } )*
                }
            }
        }

        impl std::str::FromStr for Instr {
            type Err = String;

            /// Parse one instruction: a mnemonic and its operands.
            fn from_str(code: &str) -> Result<Instr, String> {
                let (mn, rest) = match code.find(char::is_whitespace) {
                    Some(pos) => (&code[..pos], code[pos..].trim()),
                    None => (code, ""),
                };
                let unknown = || format!("unknown mnemonic `{mn}`");
                let (stem, sfx) = match mn.split_once('.') {
                    Some((stem, sfx)) => (stem, Some(sfx)),
                    None => (mn, None),
                };
                let mut o = Ops::new(rest);
                let instr = match stem {
                    $( $mn => {
                        isa!(@suffix sfx, unknown $(, $sfx)?);
                        $( isa!(@read o, $op $(($base))?); )*
                        Instr::$V { $($($f),*)? }
                    } )*
                    _ => return Err(unknown()),
                };
                o.done()?;
                Ok(instr)
            }
        }

        /// Pre-decode the instruction at `pc` if it belongs to the pure-local
        /// subset; `None` for every other instruction (which therefore ends a
        /// basic block), and for a branch whose target is still a label.
        /// Always inlined: the simulator's interpreted issue path calls it for
        /// every instruction, from another crate, and straight into the
        /// execution of the op it builds.
        #[inline(always)]
        #[allow(unused_variables)]
        pub fn decode_instr(ins: &Instr, $pc: u32) -> Option<D> {
            match ins { $( Instr::$V { $($($f),*)? } => isa!(@lower [$($($f),*)?] $($lower)?), )* }
        }
    };

    (@flag read read) => { true };
    (@flag jump jump) => { true };
    (@flag $want:ident $($got:ident)?) => { false };

    (@write $w:ident, $op:ident ($base:ident)) => {
        $op.write($w)?;
        $w.write_str("(")?;
        $base.write($w)?;
        $w.write_str(")")?;
    };
    (@write $w:ident, $op:ident) => { $op.write($w)?; };

    (@suffix $sfx:ident, $unknown:ident, $field:ident) => {
        let $field = $sfx.and_then(|s| Operand::parse(s).ok()).ok_or_else($unknown)?;
    };
    (@suffix $sfx:ident, $unknown:ident) => {
        if $sfx.is_some() {
            return Err($unknown());
        }
    };

    (@read $o:ident, $op:ident ($base:ident)) => { let ($base, $op) = $o.mem()?; };
    (@read $o:ident, $op:ident) => { let $op = $o.operand()?; };

    (@lower [$($f:ident),*] $lower:expr) => {{
        $( let $f = $f.lower(); )*
        Some($lower)
    }};
    (@lower [$($f:ident),*]) => { None };
}

isa! {
    lower(pc);

    // ---- integer ALU, register forms ----
    Add  { rd: Reg, rs: Reg, rt: Reg }  "add" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Add, rd, rs, rt };
    Sub  { rd: Reg, rs: Reg, rt: Reg }  "sub" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Sub, rd, rs, rt };
    And  { rd: Reg, rs: Reg, rt: Reg }  "and" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::And, rd, rs, rt };
    Or   { rd: Reg, rs: Reg, rt: Reg }  "or" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Or, rd, rs, rt };
    Xor  { rd: Reg, rs: Reg, rt: Reg }  "xor" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Xor, rd, rs, rt };
    Nor  { rd: Reg, rs: Reg, rt: Reg }  "nor" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Nor, rd, rs, rt };
    Slt  { rd: Reg, rs: Reg, rt: Reg }  "slt" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Slt, rd, rs, rt };
    Sltu { rd: Reg, rs: Reg, rt: Reg }  "sltu" rd, rs, rt;
        Alu => D::Bin { op: BinAlu::Sltu, rd, rs, rt };
    // ---- multiply/divide (cluster-shared MDU) ----
    Mul  { rd: Reg, rs: Reg, rt: Reg }  "mul" rd, rs, rt;   Mdu;
    Div  { rd: Reg, rs: Reg, rt: Reg }  "div" rd, rs, rt;   Mdu;
    Rem  { rd: Reg, rs: Reg, rt: Reg }  "rem" rd, rs, rt;   Mdu;
    // ---- integer ALU, immediate forms ----
    Addi  { rt: Reg, rs: Reg, imm: i32 }  "addi" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Addi, rt, rs, imm: imm as u32 };
    Andi  { rt: Reg, rs: Reg, imm: u32 }  "andi" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Andi, rt, rs, imm };
    Ori   { rt: Reg, rs: Reg, imm: u32 }  "ori" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Ori, rt, rs, imm };
    Xori  { rt: Reg, rs: Reg, imm: u32 }  "xori" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Xori, rt, rs, imm };
    Slti  { rt: Reg, rs: Reg, imm: i32 }  "slti" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Slti, rt, rs, imm: imm as u32 };
    Sltiu { rt: Reg, rs: Reg, imm: u32 }  "sltiu" rt, rs, imm;
        Alu => D::Imm { op: ImmAlu::Sltiu, rt, rs, imm };
    /// Load 32-bit immediate (pseudo for `lui`+`ori`).
    Li    { rt: Reg, imm: i32 }           "li" rt, imm;
        Alu => D::Li { rt, imm };
    Lui   { rt: Reg, imm: u32 }           "lui" rt, imm;
        Alu => D::Lui { rt, upper: imm << 16 };
    /// Register move (pseudo for `or rd, rs, $zero`).
    Move  { rd: Reg, rs: Reg }            "move" rd, rs;
        Alu => D::Move { rd, rs };
    // ---- shift unit ----
    Sll  { rd: Reg, rt: Reg, sh: u8 }   "sll" rd, rt, sh;
        Sft => D::ShImm { op: ShKind::Sll, rd, rt, sh };
    Srl  { rd: Reg, rt: Reg, sh: u8 }   "srl" rd, rt, sh;
        Sft => D::ShImm { op: ShKind::Srl, rd, rt, sh };
    Sra  { rd: Reg, rt: Reg, sh: u8 }   "sra" rd, rt, sh;
        Sft => D::ShImm { op: ShKind::Sra, rd, rt, sh };
    Sllv { rd: Reg, rt: Reg, rs: Reg }  "sllv" rd, rt, rs;
        Sft => D::ShVar { op: ShKind::Sll, rd, rt, rs };
    Srlv { rd: Reg, rt: Reg, rs: Reg }  "srlv" rd, rt, rs;
        Sft => D::ShVar { op: ShKind::Srl, rd, rt, rs };
    Srav { rd: Reg, rt: Reg, rs: Reg }  "srav" rd, rt, rs;
        Sft => D::ShVar { op: ShKind::Sra, rd, rt, rs };
    // ---- memory ----
    Lw   { rt: Reg, base: Reg, off: i32 }  "lw" rt, off(base);    Mem read;
    Sw   { rt: Reg, base: Reg, off: i32 }  "sw" rt, off(base);    Mem;
    Lb   { rt: Reg, base: Reg, off: i32 }  "lb" rt, off(base);    Mem read;
    Lbu  { rt: Reg, base: Reg, off: i32 }  "lbu" rt, off(base);   Mem read;
    Sb   { rt: Reg, base: Reg, off: i32 }  "sb" rt, off(base);    Mem;
    /// Non-blocking store: the TCU does not wait for completion (paper
    /// §IV-C, latency-tolerating mechanisms).
    Swnb { rt: Reg, base: Reg, off: i32 }  "swnb" rt, off(base);  Mem;
    /// Prefetch the addressed word into the TCU prefetch buffer.
    Pref { base: Reg, off: i32 }           "pref" off(base);      Mem read;
    /// Load via the cluster read-only cache (constant data only).
    Lwro { rt: Reg, base: Reg, off: i32 }  "lwro" rt, off(base);  Mem read;
    // ---- floating point (cluster-shared FPU) ----
    Fadd { fd: FReg, fs: FReg, ft: FReg }  "fadd" fd, fs, ft;  Fpu;
    Fsub { fd: FReg, fs: FReg, ft: FReg }  "fsub" fd, fs, ft;  Fpu;
    Fmul { fd: FReg, fs: FReg, ft: FReg }  "fmul" fd, fs, ft;  Fpu;
    Fdiv { fd: FReg, fs: FReg, ft: FReg }  "fdiv" fd, fs, ft;  Fpu;
    Fmov { fd: FReg, fs: FReg }            "fmov" fd, fs;      Fpu;
    Fneg { fd: FReg, fs: FReg }            "fneg" fd, fs;      Fpu;
    /// Convert integer in `rs` to float in `fd`.
    Fcvtsw { fd: FReg, rs: Reg }           "fcvtsw" fd, rs;    Fpu;
    /// Convert float in `fs` to integer in `rd` (truncating).
    Fcvtws { rd: Reg, fs: FReg }           "fcvtws" rd, fs;    Fpu;
    /// FP compare; writes 0/1 into integer register `rd`.
    Fcmp { op: FCmpOp, rd: Reg, fs: FReg, ft: FReg }  "fcmp".op rd, fs, ft;  Fpu;
    /// Load FP immediate (pseudo).
    Fli  { fd: FReg, imm: f32 }            "fli" fd, imm;      Fpu;
    Flw  { ft: FReg, base: Reg, off: i32 }  "flw" ft, off(base);  Mem read;
    Fsw  { ft: FReg, base: Reg, off: i32 }  "fsw" ft, off(base);  Mem;
    // ---- branches / jumps ----
    Beq  { rs: Reg, rt: Reg, target: Target }  "beq" rs, rt, target;
        Br => D::Br { cond: BrCond::Eq, rs, rt, target: target? };
    Bne  { rs: Reg, rt: Reg, target: Target }  "bne" rs, rt, target;
        Br => D::Br { cond: BrCond::Ne, rs, rt, target: target? };
    Blez { rs: Reg, target: Target }  "blez" rs, target;
        Br => D::Br { cond: BrCond::Lez, rs, rt: Reg::Zero, target: target? };
    Bgtz { rs: Reg, target: Target }  "bgtz" rs, target;
        Br => D::Br { cond: BrCond::Gtz, rs, rt: Reg::Zero, target: target? };
    Bltz { rs: Reg, target: Target }  "bltz" rs, target;
        Br => D::Br { cond: BrCond::Ltz, rs, rt: Reg::Zero, target: target? };
    Bgez { rs: Reg, target: Target }  "bgez" rs, target;
        Br => D::Br { cond: BrCond::Gez, rs, rt: Reg::Zero, target: target? };
    J    { target: Target }    "j" target;     Br jump => D::J { target: target? };
    Jal  { target: Target }    "jal" target;   Br => D::Jal { target: target?, link: pc + 1 };
    Jr   { rs: Reg }           "jr" rs;        Br jump => D::Jr { rs };
    Jalr { rd: Reg, rs: Reg }  "jalr" rd, rs;  Br => D::Jalr { rd, rs, link: pc + 1 };
    // ---- XMT parallel primitives ----
    /// Enter a parallel section over virtual threads `rs(lo) ..= rt(hi)`.
    /// Broadcasts the spawn-block instructions and the master register file
    /// to all TCUs and seeds `gr0` with `lo`.
    Spawn { lo: Reg, hi: Reg }  "spawn" lo, hi;  Ctl;
    /// End of the broadcast spawn block. The master resumes at the
    /// instruction following `join` once every TCU blocks at a `chkid`.
    Join  "join";  Ctl;
    /// Prefix-sum to global register: atomically `{ tmp = gr; gr += rt;
    /// rt = tmp }`. The hardware restricts the increment to 0 or 1.
    Ps { rt: Reg, gr: GlobalReg }  "ps" rt, gr;  Ps;
    /// Prefix-sum to memory: atomically `{ tmp = mem[rs+off]; mem += rt;
    /// rt = tmp }` with an arbitrary 32-bit signed increment.
    Psm { rt: Reg, base: Reg, off: i32 }  "psm" rt, off(base);  Mem read;
    /// Validate virtual-thread id in `rt` against the current spawn bound;
    /// blocks the TCU when `rt > hi`.
    Chkid { rt: Reg }  "chkid" rt;  Br;
    /// Write a global register (Master TCU only; used to initialize
    /// prefix-sum base variables from serial code).
    Grput { gr: GlobalReg, rs: Reg }  "grput" gr, rs;  Ps;
    /// Memory fence: wait until all pending memory operations issued by
    /// this thread have completed.
    Fence  "fence";  Ctl;
    // ---- system ----
    /// Print the signed integer in `rs` to the simulation output stream.
    Print { rs: Reg }    "print" rs;   Ctl;
    /// Print the float in `fs` to the simulation output stream.
    Printf { fs: FReg }  "printf" fs;  Ctl;
    /// Print the low byte of `rs` as a character.
    Printc { rs: Reg }   "printc" rs;  Ctl;
    /// Stop the machine (serial mode only).
    Halt  "halt";  Ctl jump;
    Nop   "nop";   Ctl => D::Nop;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_classification() {
        assert_eq!(
            Instr::Add { rd: Reg::T0, rs: Reg::T1, rt: Reg::T2 }.fu_kind(),
            FuKind::Alu
        );
        assert_eq!(
            Instr::Mul { rd: Reg::T0, rs: Reg::T1, rt: Reg::T2 }.fu_kind(),
            FuKind::Mdu
        );
        assert_eq!(
            Instr::Lw { rt: Reg::T0, base: Reg::Sp, off: 4 }.fu_kind(),
            FuKind::Mem
        );
        assert_eq!(Instr::Ps { rt: Reg::T0, gr: GlobalReg(1) }.fu_kind(), FuKind::Ps);
        assert_eq!(Instr::Join.fu_kind(), FuKind::Ctl);
        assert_eq!(Instr::Chkid { rt: Reg::T0 }.fu_kind(), FuKind::Br);
    }

    #[test]
    fn psm_is_read_and_write() {
        let i = Instr::Psm { rt: Reg::T0, base: Reg::T1, off: 0 };
        assert!(i.is_mem_read());
        assert_eq!(i.fu_kind(), FuKind::Mem);
        assert!(!Instr::Sw { rt: Reg::T0, base: Reg::T1, off: 0 }.is_mem_read());
    }

    #[test]
    fn target_mut_rewrites() {
        let mut i = Instr::Bne { rs: Reg::T0, rt: Reg::Zero, target: Target::label("a") };
        *i.target_mut().unwrap() = Target::Abs(7);
        assert_eq!(i.target(), Some(&Target::Abs(7)));
    }

    #[test]
    #[should_panic(expected = "unresolved label")]
    fn unresolved_target_panics() {
        Target::label("x").abs();
    }
}
