//! The three-address intermediate representation of the core-pass.
//!
//! Functions are control-flow graphs of basic blocks over virtual
//! registers. A spawn region appears as the [`Term::SpawnStart`]
//! terminator: its serial predecessor computes `lo`/`hi`, the *harness*
//! block allocates virtual-thread ids (the [`Inst::Tid`] pseudo expands
//! to the `ps`/`chkid` protocol of paper §IV-D), the parallel body blocks
//! jump back to the harness when a thread finishes, and the continuation
//! block is where the master resumes after `join`. Blocks carry a
//! `parallel` flag, which the XMT-specific passes and the register
//! allocator consult (parallel code must not spill, §IV-D).

use std::collections::BTreeMap;
use std::fmt;
use xmt_isa::MemoryMap;

/// A virtual register id.
pub type V = u32;
/// A basic-block id (index into `IrFunction::blocks`).
pub type Bb = u32;

/// Register class of a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Int,
    Float,
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinK {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic shift right.
    Sra,
    /// Logical shift right.
    Srl,
    Slt,
    Sltu,
    Seq,
    Sne,
    Sle,
    Sgt,
    Sge,
}

/// Float binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FBinK {
    Add,
    Sub,
    Mul,
    Div,
}

/// Float comparisons (produce an int 0/1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FCmpK {
    Eq,
    Lt,
    Le,
}

/// An operand of an integer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    V(V),
    C(i32),
}

impl Operand {
    /// The virtual register, if any.
    pub fn as_v(self) -> Option<V> {
        match self {
            Operand::V(v) => Some(v),
            Operand::C(_) => None,
        }
    }

    /// The constant, if any.
    pub fn as_c(self) -> Option<i32> {
        match self {
            Operand::C(c) => Some(c),
            Operand::V(_) => None,
        }
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `d = a op b` (integer).
    Bin { op: BinK, d: V, a: Operand, b: Operand },
    /// `d = a op b` (float).
    FBin { op: FBinK, d: V, a: V, b: V },
    /// Load integer constant.
    Li { d: V, imm: i32 },
    /// Load float constant.
    FLi { d: V, imm: f32 },
    Mov { d: V, s: V },
    FMov { d: V, s: V },
    FNeg { d: V, s: V },
    /// int → float.
    CvtIF { d: V, s: V },
    /// float → int (truncating).
    CvtFI { d: V, s: V },
    /// Float compare into an int register.
    FCmp { op: FCmpK, d: V, a: V, b: V },
    /// Integer word load. `ro` marks read-only-cache eligibility;
    /// `volatile` suppresses CSE.
    Ld { d: V, addr: V, off: i32, ro: bool, volatile: bool },
    FLd { d: V, addr: V, off: i32 },
    /// Integer word store; `nb` = non-blocking.
    St { s: V, addr: V, off: i32, nb: bool },
    FSt { s: V, addr: V, off: i32, nb: bool },
    /// Prefix-sum to memory: `s_d` holds the increment on entry and the
    /// fetched old value afterwards.
    Psm { s_d: V, addr: V, off: i32 },
    /// Prefix-sum on global register `gr` (increment/old value in `s_d`).
    Ps { s_d: V, gr: u8 },
    /// Read a global register (master or TCU; expands to `ps` with 0).
    GrGet { d: V, gr: u8 },
    /// Write a global register (master only).
    GrPut { gr: u8, s: V },
    /// Prefetch into the TCU prefetch buffer.
    Pref { addr: V, off: i32 },
    /// Memory fence.
    Fence,
    /// Serial function call (int/pointer args; optional return value).
    Call { name: String, args: Vec<V>, ret: Option<(V, Class)> },
    Print { s: V },
    PrintF { s: V },
    PrintC { s: V },
    /// Serial bump allocation: `d = alloc(size_bytes)`.
    Alloc { d: V, size: V },
    /// Virtual-thread id allocation (harness block only): expands to
    /// `li d,1; ps d,gr0; chkid d`.
    Tid { d: V },
    /// Address of a global symbol.
    La { d: V, symbol: String },
    /// Address of a serial stack slot.
    SlotAddr { d: V, slot: u32 },
}

impl Inst {
    /// Call `f` on each virtual register this instruction reads, in
    /// operand order.
    #[inline]
    pub fn each_use(&self, mut f: impl FnMut(V)) {
        use Inst::*;
        match self {
            Bin { a, b, .. } => {
                if let Operand::V(v) = a {
                    f(*v);
                }
                if let Operand::V(v) = b {
                    f(*v);
                }
            }
            FBin { a, b, .. } | FCmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Li { .. } | FLi { .. } | Tid { .. } | La { .. } | SlotAddr { .. } | Fence
            | GrGet { .. } => {}
            Mov { s, .. } | FMov { s, .. } | FNeg { s, .. } | CvtIF { s, .. }
            | CvtFI { s, .. } | GrPut { s, .. } | Print { s } | PrintF { s } | PrintC { s } => {
                f(*s)
            }
            Ld { addr, .. } | FLd { addr, .. } | Pref { addr, .. } => f(*addr),
            St { s, addr, .. } | FSt { s, addr, .. } => {
                f(*s);
                f(*addr);
            }
            Psm { s_d, addr, .. } => {
                f(*s_d);
                f(*addr);
            }
            Ps { s_d, .. } => f(*s_d),
            Call { args, .. } => args.iter().for_each(|&a| f(a)),
            Alloc { size, .. } => f(*size),
        }
    }

    /// The virtual register defined by this instruction, if any.
    pub fn def(&self) -> Option<V> {
        use Inst::*;
        match self {
            Bin { d, .. } | FBin { d, .. } | Li { d, .. } | FLi { d, .. } | Mov { d, .. }
            | FMov { d, .. } | FNeg { d, .. } | CvtIF { d, .. } | CvtFI { d, .. }
            | FCmp { d, .. } | Ld { d, .. } | FLd { d, .. } | GrGet { d, .. } | Alloc { d, .. }
            | Tid { d } | La { d, .. } | SlotAddr { d, .. } => Some(*d),
            Psm { s_d, .. } | Ps { s_d, .. } => Some(*s_d),
            Call { ret, .. } => ret.map(|(v, _)| v),
            St { .. } | FSt { .. } | GrPut { .. } | Pref { .. } | Fence | Print { .. }
            | PrintF { .. } | PrintC { .. } => None,
        }
    }

    /// Pure instructions have no side effects and can be removed when
    /// their result is unused, or reused by CSE.
    pub fn is_pure(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Bin { .. }
                | FBin { .. }
                | Li { .. }
                | FLi { .. }
                | Mov { .. }
                | FMov { .. }
                | FNeg { .. }
                | CvtIF { .. }
                | CvtFI { .. }
                | FCmp { .. }
                | La { .. }
                | SlotAddr { .. }
        )
    }

    /// Does this instruction touch memory (or order it, like `fence`)?
    pub fn is_memory(&self) -> bool {
        use Inst::*;
        matches!(
            self,
            Ld { .. }
                | FLd { .. }
                | St { .. }
                | FSt { .. }
                | Psm { .. }
                | Pref { .. }
                | Fence
                | Call { .. }
                | Alloc { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Jmp(Bb),
    /// Branch on an int register: nonzero → `t`, zero → `f`.
    Br { cond: V, t: Bb, f: Bb },
    /// Return (register class decides int vs float return slot).
    Ret(Option<V>),
    /// Enter a parallel section (serial block only): `harness` is the
    /// virtual-thread allocation block, `cont` is where the master
    /// resumes after `join`.
    SpawnStart { lo: V, hi: V, harness: Bb, cont: Bb },
    /// Stop the machine (end of `main`).
    Halt,
}

impl Term {
    /// Successor blocks.
    #[inline]
    pub fn succs(&self) -> Succs {
        match *self {
            Term::Jmp(b) => Succs { buf: [b, 0], len: 1 },
            Term::Br { t, f, .. } => Succs { buf: [t, f], len: 2 },
            Term::SpawnStart { harness, cont, .. } => Succs { buf: [harness, cont], len: 2 },
            Term::Ret(_) | Term::Halt => Succs { buf: [0, 0], len: 0 },
        }
    }

    /// Call `f` on each virtual register the terminator reads.
    #[inline]
    pub fn each_use(&self, mut f: impl FnMut(V)) {
        match *self {
            Term::Br { cond, .. } => f(cond),
            Term::Ret(Some(v)) => f(v),
            Term::SpawnStart { lo, hi, .. } => {
                f(lo);
                f(hi);
            }
            _ => {}
        }
    }
}

/// The successors of a terminator: at most two, held inline.
#[derive(Debug, Clone, Copy)]
pub struct Succs {
    buf: [Bb; 2],
    len: u8,
}

impl std::ops::Deref for Succs {
    type Target = [Bb];
    fn deref(&self) -> &[Bb] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for Succs {
    type Item = Bb;
    type IntoIter = std::iter::Take<std::array::IntoIter<Bb, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// A set of virtual registers of one function: a bitset over
/// `0..vclass.len()`, since `V` is a dense index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct VSet {
    words: Vec<u64>,
}

impl VSet {
    /// An empty set able to hold `0..n`.
    pub fn new(n: usize) -> Self {
        VSet { words: vec![0; n.div_ceil(64)] }
    }

    #[inline]
    pub fn insert(&mut self, v: V) {
        self.words[v as usize / 64] |= 1u64 << (v % 64);
    }

    #[inline]
    pub fn contains(&self, v: V) -> bool {
        self.words[v as usize / 64] & (1u64 << (v % 64)) != 0
    }

    /// `self |= other`.
    pub fn union_with(&mut self, other: &VSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self = gen | (out & !kill)`; returns whether `self` changed.
    pub fn assign_transfer(&mut self, gen: &VSet, out: &VSet, kill: &VSet) -> bool {
        let mut changed = false;
        for (k, a) in self.words.iter_mut().enumerate() {
            let w = gen.words[k] | (out.words[k] & !kill.words[k]);
            changed |= *a != w;
            *a = w;
        }
        changed
    }

    /// Make `self` empty.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = V> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                (w != 0).then(|| {
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    (k * 64) as V + bit
                })
            })
        })
    }
}

/// One basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockIr {
    pub insts: Vec<Inst>,
    pub term: Term,
    /// True for blocks broadcast to and executed by the TCUs.
    pub parallel: bool,
    /// Source line of the statement this block was lowered from
    /// (0 = unknown). Optimization passes keep blocks intact, so this
    /// survives to the code generator, which builds the line table used
    /// to refer hot assembly back to XMTC lines (paper §III-B).
    pub src_line: u32,
}

/// One function in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunction {
    pub name: String,
    /// Parameter vregs, in ABI order (int/pointer class only).
    pub params: Vec<V>,
    /// Class of each virtual register (indexed by `V`).
    pub vclass: Vec<Class>,
    pub blocks: Vec<BlockIr>,
    pub entry: Bb,
    /// Sizes (bytes, word-aligned) of serial stack slots.
    pub slots: Vec<u32>,
    /// Return class (None = void).
    pub ret: Option<Class>,
    /// Whether this is `main` (ends in halt, gets no ABI prologue).
    pub is_main: bool,
}

impl IrFunction {
    /// Allocate a fresh virtual register of `class`.
    pub fn new_vreg(&mut self, class: Class) -> V {
        self.vclass.push(class);
        (self.vclass.len() - 1) as V
    }

    /// Allocate a fresh empty block; returns its id.
    pub fn new_block(&mut self, parallel: bool) -> Bb {
        self.new_block_at(parallel, 0)
    }

    /// Allocate a fresh empty block stamped with a source line.
    pub fn new_block_at(&mut self, parallel: bool, src_line: u32) -> Bb {
        self.blocks.push(BlockIr {
            insts: Vec::new(),
            term: Term::Halt,
            parallel,
            src_line,
        });
        (self.blocks.len() - 1) as Bb
    }

    /// Does this function contain a parallel region?
    pub fn has_spawn(&self) -> bool {
        self.blocks.iter().any(|b| b.parallel)
    }

    /// Does this function call others (needs `ra` saved)?
    pub fn has_calls(&self) -> bool {
        self.blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })))
    }
}

/// Metadata about a lowered global.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalMeta {
    pub addr: u32,
    pub is_const: bool,
    pub volatile: bool,
    /// Float scalars/arrays (for typed reads in tooling).
    pub is_float: bool,
    /// Element count (1 for scalars).
    pub len: u32,
}

/// A whole compilation unit in IR form.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub functions: Vec<IrFunction>,
    pub memmap: MemoryMap,
    pub globals: BTreeMap<String, GlobalMeta>,
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.functions {
            writeln!(f, "fn {}({:?}):", func.name, func.params)?;
            for (i, b) in func.blocks.iter().enumerate() {
                writeln!(f, "  bb{i}{}:", if b.parallel { " [par]" } else { "" })?;
                for inst in &b.insts {
                    writeln!(f, "    {inst:?}")?;
                }
                writeln!(f, "    {:?}", b.term)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uses(i: &Inst) -> Vec<V> {
        let mut out = Vec::new();
        i.each_use(|v| out.push(v));
        out
    }

    #[test]
    fn uses_and_defs() {
        let i = Inst::Bin { op: BinK::Add, d: 3, a: Operand::V(1), b: Operand::C(4) };
        assert_eq!(uses(&i), vec![1]);
        assert_eq!(i.def(), Some(3));
        assert!(i.is_pure());

        let st = Inst::St { s: 1, addr: 2, off: 0, nb: false };
        assert_eq!(uses(&st), vec![1, 2]);
        assert_eq!(st.def(), None);
        assert!(!st.is_pure());
        assert!(st.is_memory());

        let psm = Inst::Psm { s_d: 5, addr: 6, off: 0 };
        assert_eq!(uses(&psm), vec![5, 6]);
        assert_eq!(psm.def(), Some(5));
    }

    #[test]
    fn term_successors() {
        assert_eq!(*Term::Jmp(3).succs(), [3]);
        assert_eq!(*Term::Br { cond: 0, t: 1, f: 2 }.succs(), [1, 2]);
        assert_eq!(*Term::SpawnStart { lo: 0, hi: 1, harness: 5, cont: 9 }.succs(), [5, 9]);
        assert!(Term::Halt.succs().is_empty());
        let br = Term::Br { cond: 0, t: 1, f: 2 };
        assert_eq!(br.succs().into_iter().collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn function_builders() {
        let mut f = IrFunction {
            name: "t".into(),
            params: vec![],
            vclass: vec![],
            blocks: vec![],
            entry: 0,
            slots: vec![],
            ret: None,
            is_main: false,
        };
        let v0 = f.new_vreg(Class::Int);
        let v1 = f.new_vreg(Class::Float);
        assert_eq!((v0, v1), (0, 1));
        assert_eq!(f.vclass[1], Class::Float);
        let b = f.new_block(true);
        assert!(f.blocks[b as usize].parallel);
        assert!(f.has_spawn());
    }

    #[test]
    fn vset_members_and_transfer() {
        let mut s = VSet::new(130);
        s.insert(3);
        s.insert(129);
        s.insert(3);
        assert!(s.contains(129) && !s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), [3, 129]);
        let (mut gen, mut kill, mut out) = (VSet::new(130), VSet::new(130), VSet::new(130));
        gen.insert(1);
        kill.insert(3);
        out.union_with(&s);
        assert!(s.assign_transfer(&gen, &out, &kill));
        assert_eq!(s.iter().collect::<Vec<_>>(), [1, 129]);
        assert!(!s.assign_transfer(&gen, &out, &kill));
        s.clear();
        assert_eq!(s.iter().count(), 0);
    }
}
