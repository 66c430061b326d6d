//! # xmtc — the optimizing XMTC compiler
//!
//! A Rust re-implementation of the XMTC compiler of the paper *Toolchain
//! for Programming, Simulating and Studying the XMT Many-Core
//! Architecture* (IPPS 2011, §IV). It translates XMTC — a modest SPMD
//! parallel extension of C with `spawn`, `$`, `ps` and `psm` — into
//! optimized XMT assembly ([`xmt_isa::AsmProgram`]) plus the memory map of
//! the program's globals.
//!
//! The pipeline mirrors the paper's three passes:
//!
//! 1. **pre-pass** (the paper's CIL pass): parsing, semantic checks,
//!    nested-spawn serialization, optional virtual-thread
//!    [`clustering`], and [`outline`]-ing of spawn blocks into fresh
//!    functions — the transformation that protects the serial mid-end
//!    from illegal dataflow across spawn boundaries (paper Fig. 8);
//! 2. **core-pass** (the paper's GCC): lowering to a three-address IR,
//!    scalar optimizations, the XMT-specific optimizations (memory
//!    fences before prefix-sums for the memory model §IV-A, non-blocking
//!    store conversion, prefetch insertion §IV-C), register allocation —
//!    with the paper's *register spill error* for parallel code (§IV-D)
//!    — and code generation including the `ps`/`chkid` virtual-thread
//!    scheduling harness;
//! 3. **post-pass** (the paper's SableCC pass): verification of XMT
//!    assembly semantics and the basic-block [`layout`] fix that pulls
//!    misplaced blocks back between `spawn` and `join` (paper Fig. 9).

pub mod ast;
pub mod clustering;
pub mod inline;
pub mod codegen;
pub mod ir;
pub mod layout;
pub mod lexer;
pub mod lower;
pub mod opt;
pub mod outline;
pub mod parser;
pub mod regalloc;
pub mod sema;

use lexer::Span;
use std::fmt;
use std::time::Instant;
use xmt_isa::{AsmProgram, MemoryMap};

/// Compiler options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// 0 = no scalar optimizations, 1 = basic, 2 = full (default).
    pub opt_level: u8,
    /// Outline spawn blocks into fresh functions (default on). Turning
    /// this off reproduces the paper's illegal-dataflow hazards of
    /// Fig. 8 — values written in the spawn block through master
    /// registers are lost.
    pub outline: bool,
    /// Insert memory fences before `ps`/`psm` (the XMT memory model rule
    /// 2 of §IV-A; default on).
    pub fences: bool,
    /// Convert stores in parallel code to non-blocking stores (§IV-C;
    /// default on).
    pub nb_stores: bool,
    /// Insert prefetches to batch independent loads (§IV-C; default on).
    pub prefetch: bool,
    /// Maximum loads batched per prefetch group.
    pub prefetch_batch: u32,
    /// Virtual-thread clustering factor (§IV-C): group this many
    /// fine-grained virtual threads into one longer thread. `None`/1 = off.
    pub clustering: Option<u32>,
    /// Use the cluster read-only caches for loads of `const` globals in
    /// parallel code.
    pub ro_cache_const: bool,
    /// Let the code generator sink cold blocks to the end of functions
    /// (the layout "optimization" that creates the paper's Fig. 9
    /// situation, which the post-pass then repairs).
    pub sink_cold_blocks: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            opt_level: 2,
            outline: true,
            fences: true,
            nb_stores: true,
            prefetch: true,
            prefetch_batch: 8,
            clustering: None,
            ro_cache_const: false,
            sink_cold_blocks: true,
        }
    }
}

impl Options {
    /// Everything off: the naive correctness baseline.
    pub fn o0() -> Self {
        Options {
            opt_level: 0,
            outline: true,
            fences: true,
            nb_stores: false,
            prefetch: false,
            prefetch_batch: 0,
            clustering: None,
            ro_cache_const: false,
            sink_cold_blocks: false,
        }
    }
}

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical / syntactic error.
    Parse(parser::ParseError),
    /// Semantic (structural) error.
    Sema { message: String, span: Span },
    /// Type error.
    Type { message: String, span: Span },
    /// The paper's §IV-D register-spill error: parallel code has no
    /// stack, so a virtual thread that needs more registers than the TCU
    /// provides cannot be compiled.
    RegisterSpill { function: String, message: String },
    /// Post-pass verification failure (XMT assembly semantics).
    Verify(String),
    /// Internal invariant violation — a compiler bug.
    Internal(String),
}

impl CompileError {
    pub(crate) fn sema(message: impl Into<String>, span: Span) -> Self {
        CompileError::Sema { message: message.into(), span }
    }

    pub(crate) fn ty(message: impl Into<String>, span: Span) -> Self {
        CompileError::Type { message: message.into(), span }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Sema { message, span } => write!(f, "error at {span}: {message}"),
            CompileError::Type { message, span } => {
                write!(f, "type error at {span}: {message}")
            }
            CompileError::RegisterSpill { function, message } => {
                write!(f, "register spill in parallel code of `{function}`: {message}")
            }
            CompileError::Verify(m) => write!(f, "post-pass verification failed: {m}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<parser::ParseError> for CompileError {
    fn from(e: parser::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

/// Result of a successful compilation.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The assembly program (link with [`xmt_isa::AsmProgram::link`]).
    pub asm: AsmProgram,
    /// Initial data segment (global variables).
    pub memmap: MemoryMap,
    /// Number of basic blocks the post-pass had to relocate back inside
    /// a spawn…join window (paper Fig. 9).
    pub layout_fixes: u32,
    /// Warnings produced along the way.
    pub warnings: Vec<String>,
    /// Sparse (instruction index → XMTC source line) table; see
    /// [`CompileOutput::source_line_of`].
    pub line_table: Vec<(u32, u32)>,
    /// Host microseconds each of [`PASSES`] took, in that order.
    pub pass_us: [f64; PASSES.len()],
}

/// The compiler's passes as [`CompileOutput::pass_us`] times them:
/// `parse`; `sema` (parallel-call inlining, checks, dead-function
/// pruning); `outline` (clustering and outlining); `lower`; `opt`;
/// `codegen` (register allocation and emission); `layout` (the
/// post-pass and the line table).
pub const PASSES: [&str; 7] = ["parse", "sema", "outline", "lower", "opt", "codegen", "layout"];

impl CompileOutput {
    /// The XMTC source line an instruction was generated from, if known
    /// (the §III-B workflow: hot assembly lines referred back to source).
    pub fn source_line_of(&self, instr_idx: u32) -> Option<u32> {
        match self.line_table.binary_search_by_key(&instr_idx, |e| e.0) {
            Ok(k) => Some(self.line_table[k].1),
            Err(0) => None,
            Err(k) => Some(self.line_table[k - 1].1),
        }
    }
}

/// Derive the sparse line table from `@line` comment markers.
fn build_line_table(asm: &AsmProgram) -> Vec<(u32, u32)> {
    let mut table = Vec::new();
    let mut idx: u32 = 0;
    let mut cur: Option<u32> = None;
    for item in &asm.items {
        match item {
            xmt_isa::AsmItem::Comment(c) => {
                if let Some(rest) = c.strip_prefix("@line ") {
                    if let Ok(line) = rest.trim().parse::<u32>() {
                        cur = Some(line);
                    }
                }
            }
            xmt_isa::AsmItem::Instr(_) => {
                if let Some(line) = cur.take() {
                    if table.last().map(|&(_, l)| l) != Some(line) {
                        table.push((idx, line));
                    }
                }
                idx += 1;
            }
            xmt_isa::AsmItem::Label(_) => {}
        }
    }
    table
}

impl CompileOutput {
    /// Link into a loadable executable.
    pub fn link(&self) -> Result<xmt_isa::Executable, xmt_isa::LinkError> {
        self.asm.link(self.memmap.clone())
    }
}

/// Compile XMTC source text into XMT assembly.
pub fn compile(source: &str, opts: &Options) -> Result<CompileOutput, CompileError> {
    // One clock read per pass boundary.
    let mut pass_us = [0.0; PASSES.len()];
    let mut last = Instant::now();
    let mut lap = |pass: usize| {
        let now = Instant::now();
        pass_us[pass] = (now - last).as_secs_f64() * 1e6;
        last = now;
    };
    let mut ast = parser::parse(source)?;
    lap(0);
    // Calls inside spawn blocks are inlined (there is no parallel cactus
    // stack in the current release, paper §IV-E).
    inline::inline_parallel_calls(&mut ast)?;
    let mut checked = sema::check(ast)?;
    // Helpers that existed only to be inlined are dead now.
    inline::prune_dead_functions(&mut checked.program);
    let mut warnings = std::mem::take(&mut checked.warnings);
    lap(1);

    if let Some(c) = opts.clustering {
        if c > 1 {
            clustering::cluster(&mut checked.program, c);
        }
    }
    if opts.outline {
        outline::outline(&mut checked.program);
    } else {
        warnings.push(
            "outlining disabled: optimizations may perform illegal dataflow across \
             spawn boundaries (paper Fig. 8)"
                .to_string(),
        );
    }
    lap(2);

    let mut module = lower::lower(&checked, opts)?;
    lap(3);
    opt::optimize(&mut module, opts);
    lap(4);
    let mut asm = codegen::emit(&module, opts)?;
    lap(5);
    let fixes = layout::fix_and_verify(&mut asm).map_err(CompileError::Verify)?;
    let line_table = build_line_table(&asm);
    lap(6);

    Ok(CompileOutput {
        asm,
        memmap: module.memmap,
        layout_fixes: fixes,
        warnings,
        line_table,
        pass_us,
    })
}

/// Convenience: compile with default options.
pub fn compile_default(source: &str) -> Result<CompileOutput, CompileError> {
    compile(source, &Options::default())
}
