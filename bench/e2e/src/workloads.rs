//! The five benchmark workloads: their programs, inputs and references.
//!
//! A workload is a list of [`Program`]s — XMTC source, compiler options,
//! the words to install in each global, and a [`Reference`] that decides
//! whether a run's result is correct — plus the machine configurations
//! every program runs on. `--seed` feeds only `xmt_workloads::gen` and
//! `fuzz::generate`; sizes are fixed here (README.md has the table) and
//! divided by `scale` for the ablation, `--quick` and the export probes.

use xmt_core::{RunResult, Toolchain};
use xmt_harness::prng::splitmix64;
use xmt_harness::prop::Gen;
use xmt_isa::MemoryMap;
use xmt_workloads::corpus::*;
use xmt_workloads::micro::{self, MicroGroup, MicroParams};
use xmt_workloads::suite::{Variant, Workload};
use xmt_workloads::{fuzz, gen, programs};
use xmtc::Options;
use xmtsim::{FunctionalCheck, XmtConfig};

pub const NAMES: [&str; 5] = [
    "par_compute",
    "par_memory",
    "pram_corpus",
    "serial_master",
    "edit_run_loop",
];

/// How a run of a program is judged.
pub enum Reference {
    /// Serial Rust baseline of a corpus case (`Workload::verify`).
    Baseline(Box<Workload>),
    /// Closed-form Rust evaluation of a Table I kernel's `OUT` array,
    /// written below — independent of the toolchain under test.
    Out(Vec<i32>),
    /// Generated program: the cycle-accurate and functional observables
    /// named by `fuzz::checks` must agree.
    CrossCheck(Vec<FunctionalCheck>),
}

pub struct Program {
    pub name: String,
    pub source: String,
    pub options: Options,
    /// Initial words per global, installed through `Compiled::set_global`.
    pub inputs: Vec<(String, Vec<u32>)>,
    pub reference: Reference,
}

impl Program {
    /// Judge `r`, a cycle-accurate or functional run of this program;
    /// `functional` is the functional run of the same pass.
    pub fn check(&self, r: &RunResult, functional: &RunResult) -> Result<(), String> {
        match &self.reference {
            Reference::Baseline(w) => w.verify(r).map_err(|e| e.to_string()),
            Reference::Out(want) => match r.read_global_ints("OUT", want.len()) {
                Some(got) if &got == want => Ok(()),
                Some(got) => {
                    let k = got.iter().zip(want).position(|(g, w)| g != w).unwrap_or(0);
                    Err(format!(
                        "{}: OUT[{k}] = {}, closed form {}",
                        self.name, got[k], want[k]
                    ))
                }
                None => Err(format!("{}: OUT unreadable", self.name)),
            },
            Reference::CrossCheck(checks) => checks
                .iter()
                .try_for_each(|c| cross_check(&self.name, c, r, functional)),
        }
    }
}

fn cross_check(
    prog: &str,
    check: &FunctionalCheck,
    r: &RunResult,
    functional: &RunResult,
) -> Result<(), String> {
    let read = |name: &str, words: usize, sorted: bool| {
        let get = |x: &RunResult| {
            x.read_global(name, words).map(|mut v| {
                if sorted {
                    v.sort_unstable();
                }
                v
            })
        };
        match (get(r), get(functional)) {
            (Some(a), Some(b)) if a == b => Ok(()),
            (Some(_), Some(_)) => Err(format!("{prog}: `{name}` differs from functional mode")),
            _ => Err(format!("{prog}: `{name}` unreadable")),
        }
    };
    match check {
        FunctionalCheck::Exact { name, words } => read(name, *words, false),
        FunctionalCheck::Multiset { name, words } => read(name, *words, true),
        FunctionalCheck::Prints if r.printed_ints() == functional.printed_ints() => Ok(()),
        FunctionalCheck::Prints => Err(format!("{prog}: prints differ from functional mode")),
    }
}

/// A built workload.
pub struct Bench {
    pub configs: Vec<(&'static str, XmtConfig)>,
    pub programs: Vec<Program>,
}

/// Build a workload's programs, inputs and references from `seed`.
/// `scale` divides the sizes: 1 for measured runs, 4 for the ablation, 8
/// for `--quick` and for the export and checkpoint probes.
pub fn build(name: &str, seed: u64, scale: usize) -> Result<Bench, String> {
    let fpga = ("fpga64", XmtConfig::fpga64());
    let chip = ("chip1024", XmtConfig::chip1024());
    let (configs, programs) = match name {
        "par_compute" => (vec![chip], par_compute(scale)?),
        "par_memory" => (vec![chip], par_memory(seed, scale)?),
        "pram_corpus" => (vec![fpga, chip], pram_corpus(seed, scale)?),
        "serial_master" => (vec![fpga], serial_master(seed, scale)?),
        "edit_run_loop" => (vec![fpga, chip], edit_run_loop(seed, scale)?),
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    };
    Ok(Bench { configs, programs })
}

// ------------------------------------------------------------ Table I kernels

/// A Table I kernel with its closed-form `OUT` expectation.
fn micro_program(group: MicroGroup, p: MicroParams, data: Option<Vec<i32>>) -> Program {
    let mask = p.data_words - 1;
    let total = p.threads * p.iters / 16; // serial trip count, as `micro::source`
    let at = |data: &[i32], idx: i32| data[(idx as usize) & mask];
    let mix = |mut x: i32, k: i32| {
        x = x.wrapping_mul(5).wrapping_add(1);
        x ^= x >> 3;
        x = x.wrapping_add(x << 2);
        x.wrapping_sub(k)
    };
    let d = data.as_deref().unwrap_or(&[]);
    let out = match group {
        MicroGroup::ParallelCompute => (0..p.threads as i32)
            .map(|t| (0..p.iters as i32).fold(t + 1, mix))
            .collect(),
        MicroGroup::ParallelMemory => (0..p.threads as i32)
            .map(|t| {
                (0..p.iters as i32).fold(0i32, |s, k| {
                    s.wrapping_add(at(
                        d,
                        t.wrapping_mul(1031).wrapping_add(k.wrapping_mul(4099)),
                    ))
                })
            })
            .collect(),
        MicroGroup::SerialCompute => vec![(0..total as i32).fold(1, mix), 0, 0, 0],
        MicroGroup::SerialMemory => {
            let s = (0..total as i32).fold(0i32, |s, k| {
                s.wrapping_add(at(d, 17i32.wrapping_add(k.wrapping_mul(4099))))
            });
            vec![s, 0, 0, 0]
        }
    };
    Program {
        name: format!(
            "micro/{group:?}/{}x{}/{}w",
            p.threads, p.iters, p.data_words
        ),
        source: micro::source(group, &p),
        options: Options::default(),
        inputs: data
            .map(|d| vec![("DATA".to_string(), d.iter().map(|&v| v as u32).collect())])
            .unwrap_or_default(),
        reference: Reference::Out(out),
    }
}

fn par_compute(scale: usize) -> Result<Vec<Program>, String> {
    let p = MicroParams {
        threads: 8192,
        iters: 128 / scale,
        data_words: 1 << 16,
    };
    Ok(vec![micro_program(MicroGroup::ParallelCompute, p, None)])
}

fn par_memory(seed: u64, scale: usize) -> Result<Vec<Program>, String> {
    // Cache-resident (1 MB in the 4 MB shared L1), DRAM-bound (8 MB),
    // and streaming with prefetch + non-blocking stores.
    let resident = MicroParams {
        threads: 4096,
        iters: 48 / scale,
        data_words: 1 << 18,
    };
    let dram = MicroParams {
        threads: 4096,
        iters: 32 / scale,
        data_words: 1 << 21,
    };
    let data = |p: &MicroParams, s: u64| Some(gen::int_array(p.data_words, -1000, 1000, s));
    Ok(vec![
        micro_program(MicroGroup::ParallelMemory, resident, data(&resident, seed)),
        micro_program(MicroGroup::ParallelMemory, dram, data(&dram, seed + 1)),
        kernel_program(
            &VECADD,
            (32_768 / scale, 0),
            seed + 2,
            Variant::Parallel,
            &Options::default(),
        )?,
    ])
}

fn serial_master(seed: u64, scale: usize) -> Result<Vec<Program>, String> {
    let compute = MicroParams {
        threads: 16,
        iters: (1 << 19) / scale,
        data_words: 1 << 16,
    };
    let memory = MicroParams {
        threads: 16,
        iters: (1 << 17) / scale,
        data_words: 1 << 18,
    };
    let o = Options::default();
    Ok(vec![
        micro_program(MicroGroup::SerialCompute, compute, None),
        micro_program(
            MicroGroup::SerialMemory,
            memory,
            Some(gen::int_array(memory.data_words, -1000, 1000, seed)),
        ),
        kernel_program(&BFS, (4096 / scale, 0), seed + 1, Variant::Serial, &o)?,
        kernel_program(
            &MATMUL,
            (shrink(32, scale, 3.0), 0),
            seed + 2,
            Variant::Serial,
            &o,
        )?,
    ])
}

// --------------------------------------------------------------- PRAM corpus

/// One corpus kernel: how to make its `WorkloadCase` at a size, and the
/// XMTC source `suite` compiles for it (which the repetition recompiles;
/// `build` checks the two stay in step). Sizes that the source takes
/// from the generated input are read back from the built memory map.
struct Kernel {
    name: &'static str,
    case: fn((usize, usize), u64) -> Box<dyn WorkloadCase>,
    source: fn((usize, usize), Variant, &MemoryMap) -> String,
}

fn len(mm: &MemoryMap, global: &str) -> usize {
    mm.lookup(global).map_or(0, |e| e.words.len())
}

fn log2_ceil(n: usize) -> u32 {
    usize::BITS - (n.max(2) - 1).leading_zeros()
}

fn par(v: Variant) -> bool {
    v == Variant::Parallel
}

static COMPACTION: Kernel = Kernel {
    name: "compaction",
    case: |(n, _), seed| Box::new(CompactionCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::compaction_par(n)
        } else {
            programs::compaction_ser(n)
        }
    },
};
static VECADD: Kernel = Kernel {
    name: "vecadd",
    case: |(n, _), seed| Box::new(VecaddCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::vecadd_par(n)
        } else {
            programs::vecadd_ser(n)
        }
    },
};
static PREFIX: Kernel = Kernel {
    name: "prefix",
    case: |(n, _), seed| Box::new(PrefixCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::prefix_par(n)
        } else {
            programs::prefix_ser(n)
        }
    },
};
static REDUCTION: Kernel = Kernel {
    name: "reduction",
    case: |(n, _), seed| Box::new(ReductionCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::reduction_par(n)
        } else {
            programs::reduction_ser(n)
        }
    },
};
static BFS: Kernel = Kernel {
    name: "bfs",
    case: |(n, _), seed| Box::new(BfsCase { n, m: 2 * n, seed }),
    source: |(n, _), v, mm| {
        let adj = len(mm, "ADJ");
        if par(v) {
            programs::bfs_par(n, adj)
        } else {
            programs::bfs_ser(n, adj)
        }
    },
};
static CONNECTIVITY: Kernel = Kernel {
    name: "connectivity",
    case: |(n, _), seed| {
        Box::new(ConnectivityCase {
            n,
            m: 2 * n,
            comps: 3,
            seed,
        })
    },
    source: |(n, _), v, mm| {
        let m = len(mm, "ESRC");
        if par(v) {
            programs::connectivity_par(n, m)
        } else {
            programs::connectivity_ser(n, m)
        }
    },
};
static MATMUL: Kernel = Kernel {
    name: "matmul",
    case: |(k, _), seed| Box::new(MatmulCase { k, seed }),
    source: |(k, _), v, _| {
        if par(v) {
            programs::matmul_par(k)
        } else {
            programs::matmul_ser(k)
        }
    },
};
static HISTOGRAM: Kernel = Kernel {
    name: "histogram",
    case: |(n, buckets), seed| Box::new(HistogramCase { n, buckets, seed }),
    source: |(n, b), v, _| {
        if par(v) {
            programs::histogram_par(n, b)
        } else {
            programs::histogram_ser(n, b)
        }
    },
};
static RANKSORT: Kernel = Kernel {
    name: "ranksort",
    case: |(n, _), seed| Box::new(RanksortCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::ranksort_par(n)
        } else {
            programs::ranksort_ser(n)
        }
    },
};
static FFT: Kernel = Kernel {
    name: "fft",
    case: |(n, _), seed| Box::new(FftCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::fft_par(n)
        } else {
            programs::fft_ser(n)
        }
    },
};
static SPMV: Kernel = Kernel {
    name: "spmv",
    case: |(n, avg_deg), seed| Box::new(SpmvCase { n, avg_deg, seed }),
    source: |(n, _), v, mm| {
        let nnz = len(mm, "COL");
        if par(v) {
            programs::spmv_par(n, nnz)
        } else {
            programs::spmv_ser(n, nnz)
        }
    },
};
static LISTRANK: Kernel = Kernel {
    name: "listrank",
    case: |(n, _), seed| Box::new(ListrankCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::listrank_par(n, log2_ceil(n))
        } else {
            programs::listrank_ser(n)
        }
    },
};
static SAMPLESORT: Kernel = Kernel {
    name: "samplesort",
    case: |(n, s), seed| Box::new(SamplesortCase { n, s, seed }),
    source: |(n, s), v, _| {
        if par(v) {
            programs::samplesort_par(n, s)
        } else {
            programs::samplesort_ser(n, s)
        }
    },
};
static LISTSUM: Kernel = Kernel {
    name: "listsum",
    case: |(n, _), seed| Box::new(ListsumCase { n, seed }),
    source: |(n, _), v, _| {
        if par(v) {
            programs::listsum_par(n, log2_ceil(n))
        } else {
            programs::listsum_ser(n)
        }
    },
};

/// `base / scale^(1/order)`: shrink a kernel whose work grows as
/// `size^order` so its run time falls by about `scale`.
fn shrink(base: usize, scale: usize, order: f64) -> usize {
    (base as f64 / (scale as f64).powf(1.0 / order)).round() as usize
}

/// The 14 corpus kernels at the `pram_corpus` sizes.
fn mid_corpus(scale: usize) -> Vec<(&'static Kernel, (usize, usize))> {
    let lin = |n: usize| n / scale;
    vec![
        (&COMPACTION, (lin(2048), 0)),
        (&VECADD, (lin(2048), 0)),
        (&PREFIX, (lin(2048), 0)),
        (&REDUCTION, (lin(2048), 0)),
        (&BFS, (lin(1024), 0)),
        (&CONNECTIVITY, (lin(1024), 0)),
        (&MATMUL, (shrink(24, scale, 3.0), 0)),
        (&HISTOGRAM, (lin(2048), 64)),
        (&RANKSORT, (shrink(192, scale, 2.0), 0)),
        (&FFT, (lin(1024), 0)),
        (&SPMV, (lin(1024), 6)),
        (&LISTRANK, (lin(1024), 0)),
        (&SAMPLESORT, (lin(512), 64 / scale)),
        (&LISTSUM, (lin(1024), 0)),
    ]
}

/// The same kernels at the sizes of `corpus::small_corpus`.
fn small_corpus() -> Vec<(&'static Kernel, (usize, usize))> {
    vec![
        (&COMPACTION, (64, 0)),
        (&VECADD, (64, 0)),
        (&PREFIX, (64, 0)),
        (&REDUCTION, (64, 0)),
        (&BFS, (48, 0)),
        (&CONNECTIVITY, (48, 0)),
        (&MATMUL, (8, 0)),
        (&HISTOGRAM, (64, 8)),
        (&RANKSORT, (48, 0)),
        (&FFT, (32, 0)),
        (&SPMV, (32, 4)),
        (&LISTRANK, (32, 0)),
        (&SAMPLESORT, (64, 8)),
        (&LISTSUM, (32, 0)),
    ]
}

/// Build a corpus kernel's reference workload and wrap it as a program.
fn kernel_program(
    k: &Kernel,
    size: (usize, usize),
    seed: u64,
    v: Variant,
    opts: &Options,
) -> Result<Program, String> {
    let w = (k.case)(size, seed)
        .build(v, opts)
        .map_err(|e| format!("{}: {e}", k.name))?;
    let source = (k.source)(size, v, w.compiled.memmap());
    let again = Toolchain::with_options(opts.clone())
        .compile(&source)
        .map_err(|e| format!("{}: {e}", w.name))?;
    if again.asm_text() != w.compiled.asm_text() {
        return Err(format!(
            "{}: benchmark source differs from the suite's",
            w.name
        ));
    }
    let inputs = w
        .compiled
        .memmap()
        .entries
        .iter()
        .map(|e| (e.name.clone(), e.words.clone()))
        .collect();
    Ok(Program {
        name: w.name.clone(),
        source,
        options: opts.clone(),
        inputs,
        reference: Reference::Baseline(Box::new(w)),
    })
}

fn pram_corpus(seed: u64, scale: usize) -> Result<Vec<Program>, String> {
    mid_corpus(scale)
        .into_iter()
        .enumerate()
        .map(|(i, (k, size))| {
            kernel_program(
                k,
                size,
                seed + i as u64,
                Variant::Parallel,
                &Options::default(),
            )
        })
        .collect()
}

// ------------------------------------------------------------- classroom loop

/// Generated programs per repetition at scale 1.
const FUZZ_PROGRAMS: usize = 300;

fn edit_run_loop(seed: u64, scale: usize) -> Result<Vec<Program>, String> {
    let mut programs = Vec::new();
    let mut stream = seed;
    for i in 0..FUZZ_PROGRAMS / scale {
        let spec = fuzz::generate(&mut Gen::new(splitmix64(&mut stream), 256));
        programs.push(Program {
            name: format!("fuzz/{i}"),
            source: fuzz::render(&spec),
            options: Options::default(),
            inputs: fuzz::inputs(&spec)
                .into_iter()
                .map(|(g, vals)| (g, vals.into_iter().map(|v| v as u32).collect()))
                .collect(),
            reference: Reference::CrossCheck(fuzz::checks(&spec)),
        });
    }
    let option_sets = [
        Options::default(),
        Options::o0(),
        Options {
            clustering: Some(4),
            ..Options::default()
        },
        Options {
            prefetch: false,
            ..Options::default()
        },
    ];
    for (i, (k, size)) in small_corpus().into_iter().enumerate() {
        for v in [Variant::Parallel, Variant::Serial] {
            for opts in &option_sets {
                programs.push(kernel_program(k, size, seed + i as u64, v, opts)?);
            }
        }
    }
    Ok(programs)
}
