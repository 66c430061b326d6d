//! # xmt-core — the XMT toolchain facade
//!
//! One-stop API over the whole toolchain of the paper *Toolchain for
//! Programming, Simulating and Studying the XMT Many-Core Architecture*
//! (IPPS 2011): compile XMTC source with [`xmtc`], link it, provide
//! program inputs through the memory map (the only input channel — the
//! simulated machine runs no OS, paper §III-A), and run it on the
//! cycle-accurate or fast-functional simulator from [`xmtsim`].
//!
//! ```
//! use xmt_core::Toolchain;
//! use xmtsim::XmtConfig;
//!
//! let program = r#"
//!     int A[8]; int B[8]; int base = 0; int N = 8;
//!     void main() {
//!         spawn(0, N - 1) {
//!             int inc = 1;
//!             if (A[$] != 0) { ps(inc, base); B[inc] = A[$]; }
//!         }
//!     }
//! "#;
//! let mut compiled = Toolchain::new().compile(program).unwrap();
//! compiled.set_global_ints("A", &[5, 0, 12, 0, 0, 3, 0, 9]).unwrap();
//! let result = compiled.run(&XmtConfig::fpga64()).unwrap();
//! let mut b = result.read_global_ints("B", 8).unwrap();
//! b.retain(|&x| x != 0);
//! b.sort_unstable();
//! assert_eq!(b, vec![3, 5, 9, 12]); // compacted, order not preserved
//! ```

use std::fmt;
use std::sync::Arc;
use xmt_isa::{AsmProgram, Executable, MemoryMap};
use xmtc::{CompileError, Options};
use xmtsim::cycle::SimError;
use xmtsim::functional::FuncError;
use xmtsim::{CycleSim, FunctionalSim, Machine, Output, XmtConfig};

pub use xmtc;
pub use xmtsim;
pub use xmt_isa as isa;

/// Errors from any stage of the toolchain.
#[derive(Debug)]
pub enum ToolchainError {
    Compile(CompileError),
    Link(xmt_isa::LinkError),
    Sim(SimError),
    Functional(FuncError),
    /// Program input mismatch (unknown global, wrong element count).
    Input(String),
}

impl fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolchainError::Compile(e) => write!(f, "compile: {e}"),
            ToolchainError::Link(e) => write!(f, "link: {e}"),
            ToolchainError::Sim(e) => write!(f, "simulation: {e}"),
            ToolchainError::Functional(e) => write!(f, "functional simulation: {e}"),
            ToolchainError::Input(m) => write!(f, "program input: {m}"),
        }
    }
}

impl std::error::Error for ToolchainError {}

impl From<CompileError> for ToolchainError {
    fn from(e: CompileError) -> Self {
        ToolchainError::Compile(e)
    }
}

impl From<xmt_isa::LinkError> for ToolchainError {
    fn from(e: xmt_isa::LinkError) -> Self {
        ToolchainError::Link(e)
    }
}

impl From<SimError> for ToolchainError {
    fn from(e: SimError) -> Self {
        ToolchainError::Sim(e)
    }
}

impl From<FuncError> for ToolchainError {
    fn from(e: FuncError) -> Self {
        ToolchainError::Functional(e)
    }
}

/// The programmer-facing entry point: XMTC in, simulated runs out.
#[derive(Debug, Clone, Default)]
pub struct Toolchain {
    /// Compiler options (optimization levels, XMT-specific passes).
    pub options: Options,
}

impl Toolchain {
    /// A toolchain with default (fully optimizing) options.
    pub fn new() -> Self {
        Self::default()
    }

    /// A toolchain with explicit compiler options.
    pub fn with_options(options: Options) -> Self {
        Toolchain { options }
    }

    /// Compile and link an XMTC program.
    pub fn compile(&self, source: &str) -> Result<Compiled, ToolchainError> {
        let out = xmtc::compile(source, &self.options)?;
        // Link with the data segment moved, not cloned: the image is built once.
        let exe = out.asm.link(out.memmap)?;
        Ok(Compiled {
            asm: out.asm,
            warnings: out.warnings,
            layout_fixes: out.layout_fixes,
            line_table: out.line_table,
            pass_us: out.pass_us,
            exe: Arc::new(exe),
        })
    }
}

/// A compiled, linked XMTC program ready to run.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The generated assembly (inspectable / re-parsable).
    pub asm: AsmProgram,
    /// Compiler warnings.
    pub warnings: Vec<String>,
    /// Basic blocks the post-pass relocated (paper Fig. 9).
    pub layout_fixes: u32,
    /// Sparse instruction-index → XMTC-source-line table.
    pub line_table: Vec<(u32, u32)>,
    /// Host microseconds of each compiler pass (`xmtc::PASSES`).
    pub pass_us: [f64; xmtc::PASSES.len()],
    /// Shared with every simulator and [`RunResult`] built from it, so a
    /// run copies the image once (into simulated memory), not per holder.
    exe: Arc<Executable>,
}

impl Compiled {
    /// The linked executable image.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// The memory map of global variables.
    pub fn memmap(&self) -> &MemoryMap {
        &self.exe.memmap
    }

    /// Generated assembly as text.
    pub fn asm_text(&self) -> String {
        xmt_isa::asm::to_text(&self.asm)
    }

    /// The XMTC source line an instruction index was generated from
    /// (the §III-B loop closer: hot assembly → source line).
    pub fn source_line_of(&self, instr_idx: u32) -> Option<u32> {
        match self.line_table.binary_search_by_key(&instr_idx, |e| e.0) {
            Ok(k) => Some(self.line_table[k].1),
            Err(0) => None,
            Err(k) => Some(self.line_table[k - 1].1),
        }
    }

    /// Set a global's initial raw words (the program-input channel).
    /// Results of earlier runs keep the image they ran with: the first
    /// change while one is alive copies the image (`Arc::make_mut`).
    pub fn set_global(&mut self, name: &str, words: &[u32]) -> Result<(), ToolchainError> {
        if Arc::make_mut(&mut self.exe).memmap.set_values(name, words) {
            Ok(())
        } else {
            Err(ToolchainError::Input(match self.exe.memmap.lookup(name) {
                Some(e) => format!(
                    "global `{name}` has {} words, got {}",
                    e.words.len(),
                    words.len()
                ),
                None => format!("no global named `{name}` (is it a ps base?)"),
            }))
        }
    }

    /// Set an int global (scalar or array).
    pub fn set_global_ints(&mut self, name: &str, vals: &[i32]) -> Result<(), ToolchainError> {
        let words: Vec<u32> = vals.iter().map(|&v| v as u32).collect();
        self.set_global(name, &words)
    }

    /// Set a float global (scalar or array).
    pub fn set_global_floats(&mut self, name: &str, vals: &[f32]) -> Result<(), ToolchainError> {
        let words: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        self.set_global(name, &words)
    }

    /// Build a cycle-accurate simulator for this program (for advanced
    /// use: attaching plug-ins, tracers, checkpoints).
    pub fn simulator(&self, cfg: &XmtConfig) -> CycleSim {
        CycleSim::new(Arc::clone(&self.exe), cfg.clone())
    }

    /// Build a fast functional simulator for this program.
    pub fn functional_simulator(&self) -> FunctionalSim {
        FunctionalSim::new(Arc::clone(&self.exe))
    }

    /// Run on the cycle-accurate simulator.
    pub fn run(&self, cfg: &XmtConfig) -> Result<RunResult, ToolchainError> {
        let mut sim = self.simulator(cfg);
        let summary = sim.run()?;
        Ok(RunResult {
            cycles: summary.cycles,
            time_ps: summary.time_ps,
            instructions: summary.instructions,
            events: summary.events,
            output: sim.machine.output.clone(),
            stats: sim.stats,
            machine: sim.machine,
            exe: Arc::clone(&self.exe),
        })
    }

    /// Run in the fast functional mode (no timing; spawns serialized).
    pub fn run_functional(&self) -> Result<RunResult, ToolchainError> {
        let mut sim = self.functional_simulator();
        let instructions = sim.run()?;
        Ok(RunResult {
            cycles: 0,
            time_ps: 0,
            instructions,
            events: 0,
            output: sim.machine.output.clone(),
            stats: sim.stats,
            machine: sim.machine,
            exe: Arc::clone(&self.exe),
        })
    }
}

/// The observable outcome of a simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Elapsed cluster-clock cycles (0 in functional mode).
    pub cycles: u64,
    /// Elapsed simulated picoseconds (0 in functional mode).
    pub time_ps: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Discrete events processed (0 in functional mode).
    pub events: u64,
    /// The print-output stream.
    pub output: Output,
    /// Simulator statistics counters.
    pub stats: xmtsim::stats::Stats,
    machine: Machine,
    exe: Arc<Executable>,
}

impl RunResult {
    /// Final raw words of a global.
    pub fn read_global(&self, name: &str, count: usize) -> Option<Vec<u32>> {
        self.machine.read_symbol(&self.exe, name, count)
    }

    /// Final values of an int global.
    pub fn read_global_ints(&self, name: &str, count: usize) -> Option<Vec<i32>> {
        Some(self.read_global(name, count)?.into_iter().map(|w| w as i32).collect())
    }

    /// Final values of a float global.
    pub fn read_global_floats(&self, name: &str, count: usize) -> Option<Vec<f32>> {
        Some(self.read_global(name, count)?.into_iter().map(f32::from_bits).collect())
    }

    /// The integers printed by the program, in order.
    pub fn printed_ints(&self) -> Vec<i32> {
        self.output.ints()
    }
}

/// A paper-style speedup comparison between two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speedup {
    pub baseline_cycles: u64,
    pub subject_cycles: u64,
}

impl Speedup {
    /// speedup = baseline / subject (× factor by which the subject wins).
    pub fn factor(&self) -> f64 {
        self.baseline_cycles as f64 / self.subject_cycles.max(1) as f64
    }
}

impl fmt::Display for Speedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} = {:.2}x",
            self.baseline_cycles,
            self.subject_cycles,
            self.factor()
        )
    }
}
