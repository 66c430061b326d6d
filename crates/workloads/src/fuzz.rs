//! Seeded random-XMTC-program generator for cross-engine differential
//! fuzzing.
//!
//! [`generate`] draws a [`ProgramSpec`] — a small program AST — from the
//! property harness's [`Gen`], renders it to XMTC source ([`render`]),
//! and [`check_case`] compiles it once and runs it through functional
//! mode and all five cycle-model configurations
//! ([`xmtsim::differential::CYCLE_ENGINE_MATRIX`]), asserting the cycle
//! engines are bit-identical and that functional mode agrees on every
//! architectural observable.
//!
//! Programs mix `spawn`/`join` phases (including nested and
//! zero-iteration spawns), `ps`/`psm` prefix-sum races on shared
//! counters, non-local loads and stores, master-broadcast values and
//! irregular per-thread control flow — but are *deterministic by
//! construction* so that a divergence is always an engine bug, never an
//! honest data race:
//!
//! * a phase's virtual threads store only to their own slot of that
//!   phase's `OUT` array, and read only inputs and *earlier* phases'
//!   outputs (never the array being written);
//! * `ps`/`psm` feed shared counters whose *totals* are commutative; the
//!   order-dependent return values never flow into compared state,
//!   except as store indices into the `SCR` scratch array, which is
//!   compared as a multiset (the paper's Fig. 2a compaction idiom);
//! * nested spawns depend only on the inner thread id and read-only
//!   data, so the serialized inner loops all store identical values;
//! * all loops have compile-time-bounded trip counts, and only the
//!   master prints.
//!
//! On failure, [`shrink_candidates`] feeds `xmt_harness::prop::minimize`
//! to cut the spec down to a locally-minimal failing program.

use xmt_core::Toolchain;
use xmt_harness::prop::Gen;
use xmtsim::config::{IcnTiming, PrefetchPolicy};
use xmtsim::differential::{run_all_engines, FunctionalCheck};
use xmtsim::XmtConfig;

/// Upper bound on spawn phases per program.
pub const MAX_PHASES: usize = 4;
/// Spawn bounds are inclusive; at most this many virtual threads/phase.
pub const MAX_THREADS: i32 = 24;
/// Length of the nested-spawn target array.
pub const NEST_LEN: usize = 16;
/// Length of the `ps`-indexed scratch array. Must exceed the worst-case
/// number of `PsScr` executions (`MAX_PHASES` × `MAX_THREADS` × the ≤2
/// per-thread `PsScr` ops) so slots never wrap into each other.
pub const SCR_LEN: usize = 512;
/// Instruction budget per engine — a generated program that exceeds it
/// is a generator bug (all loops are bounded), reported as an error.
pub const INSTR_LIMIT: u64 = 4_000_000;

/// Binary operators the fuzzer emits in arithmetic positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
}

/// Comparison operators for conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Expression AST. Index and reference resolution is *modular* at
/// render time (`Local(k)` → `x{k % locals}`, `OutPrev(q)` → phase
/// `q % p`), so structural shrinking can drop phases or locals without
/// producing dangling references.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `$` — the virtual thread id (inner id inside a nested spawn).
    ThreadId,
    Lit(i32),
    /// The master-broadcast global `BCAST` (always in `0..=63`).
    Bcast,
    /// A thread-local variable, resolved modulo the declared count.
    Local(u8),
    /// The innermost `for` loop variable (a literal when not in a loop).
    LoopVar,
    /// `IN{0|1}[idx & mask]` — a read-only input array.
    In(u8, Box<Expr>),
    /// `OUT{q}[idx & mask]` for an *earlier* phase `q` (an input read
    /// when this is phase 0).
    OutPrev(u8, Box<Expr>),
    Bin(Arith, Box<Expr>, Box<Expr>),
}

/// A boolean condition.
#[derive(Debug, Clone)]
pub struct Cond {
    pub op: Cmp,
    pub lhs: Expr,
    pub rhs: Expr,
}

/// One statement of a virtual thread's body.
#[derive(Debug, Clone)]
pub enum Op {
    /// `x{k} = expr;` (slot resolved modulo the declared count).
    AssignLocal { slot: u8, expr: Expr },
    /// `OUT{p}[$] = expr;` — the phase's own thread-owned slot.
    StoreOut(Expr),
    /// The compaction idiom: `int s = 1; ps(s, scrtop); SCR[s] = expr;`.
    /// `SCR` is compared as a multiset.
    PsScr { id: u32, expr: Expr },
    /// `int c = 1; ps(c, cnt{k});` — a pure shared-counter bump.
    PsCount { id: u32, counter: u8 },
    /// `int h = val; psm(h, HIST[idx & mask]);` — atomic accumulation.
    PsmHist { id: u32, idx: Expr, val: i32 },
    If {
        cond: Cond,
        then: Vec<Op>,
        els: Vec<Op>,
    },
    /// `for (int i{d} = 0; i{d} < trips; i{d}++) { ... }`.
    For { trips: u8, body: Vec<Op> },
    /// `int w{id} = trips; while (w{id} > 0) { ...; w{id} -= 1; }`.
    While { id: u32, trips: u8, body: Vec<Op> },
    /// `spawn(0, hi) { NEST[$] = expr($); }` — serialized by the
    /// compiler; every outer thread stores the same values.
    NestedSpawn { hi: i32, expr: Expr },
}

/// How the master updates `BCAST` before a phase's spawn.
#[derive(Debug, Clone)]
pub enum BcUpdate {
    Keep,
    Const(i32),
    /// `BCAST = (BCAST + cnt{k}) & 63;` — feeds a prefix-sum total back
    /// into later control flow and expressions.
    AddCounter(u8),
    /// Serial reduction of an earlier phase's output into `BCAST`.
    SumOut(u8),
}

/// A master-side print after a phase's join.
#[derive(Debug, Clone)]
pub enum Print {
    Bcast,
    /// `print(OUT{q}[k]);` — resolved modulo phases/array length.
    OutElem {
        arr: u8,
        idx: u16,
    },
}

/// One `spawn` phase plus its surrounding master code.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Inclusive spawn upper bound; `-1` spawns zero virtual threads.
    pub hi: i32,
    /// Use `spawn(0, BCAST % (hi+1))` instead of the literal bound —
    /// data-dependent parallelism (requires `hi >= 0`).
    pub hi_from_bc: bool,
    pub bc_update: BcUpdate,
    /// Initializers of the thread-local variables `x0..`, declared at
    /// body top (XMTC block scoping makes mid-block decls fiddly).
    pub locals: Vec<Expr>,
    pub body: Vec<Op>,
    pub print_after: Vec<Print>,
}

/// A full generated program.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// `IN`/`OUT` array length (a power of two).
    pub n: usize,
    /// `HIST` length (a power of two).
    pub hist_len: usize,
    /// Seed for the input-array contents.
    pub data_seed: u64,
    pub phases: Vec<Phase>,
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Expression-generation context: what names are legal here.
#[derive(Clone, Copy)]
struct Ctx {
    /// Number of declared thread locals (0 in master / nested context).
    locals: u8,
    /// `$` is legal (thread or nested-spawn body).
    thread: bool,
    /// Inside a `for` (LoopVar legal).
    in_loop: bool,
    /// Current phase index (bounds OutPrev).
    phase: u8,
}

fn gen_expr(g: &mut Gen, ctx: Ctx, depth: usize) -> Expr {
    if depth == 0 || g.bool_p(0.4) {
        // Leaves.
        return match g.usize_in(0, 6) {
            0 if ctx.thread => Expr::ThreadId,
            1 => Expr::Bcast,
            2 if ctx.locals > 0 => Expr::Local(g.usize_in(0, ctx.locals as usize) as u8),
            3 if ctx.in_loop => Expr::LoopVar,
            4 => Expr::In(
                g.usize_in(0, 2) as u8,
                Box::new(if ctx.thread {
                    Expr::ThreadId
                } else {
                    Expr::Lit(g.int_in(0, 64) as i32)
                }),
            ),
            _ => Expr::Lit(g.int_in(-9, 100) as i32),
        };
    }
    match g.usize_in(0, 8) {
        0 => Expr::In(
            g.usize_in(0, 2) as u8,
            Box::new(gen_expr(g, ctx, depth - 1)),
        ),
        1 if ctx.phase > 0 => Expr::OutPrev(
            g.usize_in(0, 4) as u8,
            Box::new(gen_expr(g, ctx, depth - 1)),
        ),
        _ => {
            let op = *g.choose(&[
                Arith::Add,
                Arith::Sub,
                Arith::Mul,
                Arith::And,
                Arith::Or,
                Arith::Xor,
            ]);
            Expr::Bin(
                op,
                Box::new(gen_expr(g, ctx, depth - 1)),
                Box::new(gen_expr(g, ctx, depth - 1)),
            )
        }
    }
}

fn gen_cond(g: &mut Gen, ctx: Ctx, depth: usize) -> Cond {
    let op = *g.choose(&[Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne]);
    Cond {
        op,
        lhs: gen_expr(g, ctx, depth),
        rhs: gen_expr(g, ctx, depth),
    }
}

/// Generate a list of thread-body ops. `top_level` gates the ops that
/// must stay outside loops (`PsScr` capacity accounting, nested spawns).
fn gen_ops(g: &mut Gen, ctx: Ctx, nest: usize, top_level: bool, next_id: &mut u32) -> Vec<Op> {
    let count = g.len_in(1, if top_level { 7 } else { 4 });
    let mut ops = Vec::with_capacity(count);
    let mut ps_scr_used = 0;
    for _ in 0..count {
        *next_id += 1;
        let id = *next_id;
        let choice = g.usize_in(0, 12);
        ops.push(match choice {
            0 | 1 | 2 => Op::StoreOut(gen_expr(g, ctx, 2)),
            3 if ctx.locals > 0 => Op::AssignLocal {
                slot: g.usize_in(0, ctx.locals as usize) as u8,
                expr: gen_expr(g, ctx, 2),
            },
            4 if top_level && ps_scr_used < 2 => {
                ps_scr_used += 1;
                Op::PsScr {
                    id,
                    expr: gen_expr(g, ctx, 1),
                }
            }
            5 => Op::PsCount {
                id,
                counter: g.usize_in(0, 3) as u8,
            },
            6 | 7 => Op::PsmHist {
                id,
                idx: gen_expr(g, ctx, 1),
                val: g.int_in(1, 5) as i32,
            },
            8 if nest > 0 => Op::If {
                cond: gen_cond(g, ctx, 1),
                then: gen_ops(g, ctx, nest - 1, false, next_id),
                els: if g.bool_p(0.5) {
                    gen_ops(g, ctx, nest - 1, false, next_id)
                } else {
                    Vec::new()
                },
            },
            9 if nest > 0 => Op::For {
                trips: g.int_in(1, 5) as u8,
                body: gen_ops(
                    g,
                    Ctx {
                        in_loop: true,
                        ..ctx
                    },
                    nest - 1,
                    false,
                    next_id,
                ),
            },
            10 if nest > 0 => Op::While {
                id,
                trips: g.int_in(1, 4) as u8,
                body: gen_ops(g, ctx, nest - 1, false, next_id),
            },
            11 if top_level && g.bool_p(0.3) => Op::NestedSpawn {
                hi: g.int_in(-1, NEST_LEN as i64) as i32,
                // Inner context: only the inner `$`, inputs and earlier
                // outputs — nothing owned by the outer thread.
                expr: gen_expr(
                    g,
                    Ctx {
                        locals: 0,
                        thread: true,
                        in_loop: false,
                        phase: ctx.phase,
                    },
                    2,
                ),
            },
            _ => Op::StoreOut(gen_expr(g, ctx, 1)),
        });
    }
    ops
}

/// Draw a whole program from the harness generator. Size-scaled: at
/// small `Gen` sizes (during shrink replays) programs have fewer phases,
/// threads and ops.
pub fn generate(g: &mut Gen) -> ProgramSpec {
    let n = 1usize << g.usize_in(4, 7); // 16..64
    let hist_len = 1usize << g.usize_in(2, 5); // 4..16
    let data_seed = g.u64();
    let n_phases = g.len_in(1, MAX_PHASES + 1);
    let mut next_id = 0u32;
    // A phase's threads store to their own `OUT[$]` slot, so the thread
    // count must never exceed the array length — an out-of-bounds slot
    // would land in a neighbouring array and race with its owners.
    let max_hi = (MAX_THREADS as usize).min(n);
    let phases = (0..n_phases)
        .map(|p| {
            // A small chance of a zero-iteration spawn; otherwise 1..=MAX.
            let hi = if g.bool_p(0.08) {
                -1
            } else {
                g.len_in(1, max_hi + 1) as i32 - 1
            };
            let locals_n = g.usize_in(0, 4) as u8;
            let mut ctx = Ctx {
                locals: 0,
                thread: true,
                in_loop: false,
                phase: p as u8,
            };
            let locals = (0..locals_n)
                .map(|k| {
                    let e = gen_expr(g, ctx, 2);
                    ctx.locals = k + 1;
                    e
                })
                .collect();
            ctx.locals = locals_n;
            let bc_update = match g.usize_in(0, 5) {
                0 => BcUpdate::Keep,
                1 => BcUpdate::Const(g.int_in(0, 64) as i32),
                2 => BcUpdate::AddCounter(g.usize_in(0, 3) as u8),
                3 if p > 0 => BcUpdate::SumOut(g.usize_in(0, 4) as u8),
                _ => BcUpdate::Const(g.int_in(0, 64) as i32),
            };
            let body = gen_ops(g, ctx, 2, true, &mut next_id);
            let print_after = (0..g.usize_in(0, 3))
                .map(|_| {
                    if g.bool_p(0.5) {
                        Print::Bcast
                    } else {
                        Print::OutElem {
                            arr: g.usize_in(0, 4) as u8,
                            idx: g.usize_in(0, 64) as u16,
                        }
                    }
                })
                .collect();
            Phase {
                hi,
                hi_from_bc: g.bool_p(0.25),
                bc_update,
                locals,
                body,
                print_after,
            }
        })
        .collect();
    ProgramSpec {
        n,
        hist_len,
        data_seed,
        phases,
    }
}

/// A random small machine configuration sweeping topology, both switch
/// timing disciplines (synchronous and self-timed with jitter) and both
/// prefetch policies. The issue/ICN models are set per engine by
/// [`xmtsim::differential::run_all_engines`].
pub fn gen_config(g: &mut Gen) -> XmtConfig {
    let mut cfg = XmtConfig::tiny();
    cfg.clusters = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.tcus_per_cluster = g.usize_in(1, 3) as u32;
    cfg.cache_modules = if g.bool_p(0.5) { 2 } else { 4 };
    cfg.dram_channels = g.usize_in(1, 3) as u32;
    cfg.icn_latency = g.usize_in(0, 6) as u32;
    cfg.icn_timing = if g.bool_p(0.5) {
        IcnTiming::Synchronous
    } else {
        IcnTiming::Asynchronous {
            hop_ps: g.int_in(300, 1500) as u64,
            jitter_ps: g.int_in(0, 900) as u64,
        }
    };
    cfg.prefetch_policy = if g.bool_p(0.5) {
        PrefetchPolicy::Fifo
    } else {
        PrefetchPolicy::Lru
    };
    cfg.ps_latency = g.usize_in(2, 9) as u32;
    cfg.spawn_overhead = g.usize_in(4, 17) as u32;
    cfg
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn render_expr(
    e: &Expr,
    spec: &ProgramSpec,
    locals: u8,
    phase: u8,
    loop_var: Option<&str>,
    out: &mut String,
) {
    let mask = spec.n - 1;
    match e {
        Expr::ThreadId => out.push('$'),
        Expr::Lit(v) => out.push_str(&v.to_string()),
        Expr::Bcast => out.push_str("BCAST"),
        Expr::Local(k) => {
            if locals == 0 {
                out.push('3');
            } else {
                out.push_str(&format!("x{}", k % locals));
            }
        }
        Expr::LoopVar => match loop_var {
            Some(v) => out.push_str(v),
            None => out.push('1'),
        },
        Expr::In(which, idx) => {
            out.push_str(&format!("IN{}[(", which % 2));
            render_expr(idx, spec, locals, phase, loop_var, out);
            out.push_str(&format!(") & {mask}]"));
        }
        Expr::OutPrev(q, idx) => {
            if phase == 0 {
                // No earlier phase: degrade to an input read.
                out.push_str("IN0[(");
                render_expr(idx, spec, locals, phase, loop_var, out);
                out.push_str(&format!(") & {mask}]"));
            } else {
                out.push_str(&format!("OUT{}[(", q % phase));
                render_expr(idx, spec, locals, phase, loop_var, out);
                out.push_str(&format!(") & {mask}]"));
            }
        }
        Expr::Bin(op, a, b) => {
            let sym = match op {
                Arith::Add => "+",
                Arith::Sub => "-",
                Arith::Mul => "*",
                Arith::And => "&",
                Arith::Or => "|",
                Arith::Xor => "^",
            };
            out.push('(');
            render_expr(a, spec, locals, phase, loop_var, out);
            out.push_str(&format!(" {sym} "));
            render_expr(b, spec, locals, phase, loop_var, out);
            out.push(')');
        }
    }
}

fn render_cond(
    c: &Cond,
    spec: &ProgramSpec,
    locals: u8,
    phase: u8,
    loop_var: Option<&str>,
    out: &mut String,
) {
    let sym = match c.op {
        Cmp::Lt => "<",
        Cmp::Le => "<=",
        Cmp::Gt => ">",
        Cmp::Ge => ">=",
        Cmp::Eq => "==",
        Cmp::Ne => "!=",
    };
    out.push('(');
    render_expr(&c.lhs, spec, locals, phase, loop_var, out);
    out.push_str(&format!(" {sym} "));
    render_expr(&c.rhs, spec, locals, phase, loop_var, out);
    out.push(')');
}

fn render_ops(
    ops: &[Op],
    spec: &ProgramSpec,
    locals: u8,
    phase: u8,
    depth: usize,
    loop_var: Option<&str>,
    out: &mut String,
) {
    let hmask = spec.hist_len - 1;
    for op in ops {
        match op {
            Op::AssignLocal { slot, expr } => {
                if locals == 0 {
                    continue;
                }
                out.push_str(&format!("x{} = ", slot % locals));
                render_expr(expr, spec, locals, phase, loop_var, out);
                out.push_str(";\n");
            }
            Op::StoreOut(expr) => {
                out.push_str(&format!("OUT{phase}[$] = "));
                render_expr(expr, spec, locals, phase, loop_var, out);
                out.push_str(";\n");
            }
            Op::PsScr { id, expr } => {
                out.push_str(&format!(
                    "{{ int s{id} = 1; ps(s{id}, scrtop); SCR[s{id}] = "
                ));
                render_expr(expr, spec, locals, phase, loop_var, out);
                out.push_str("; }\n");
            }
            Op::PsCount { id, counter } => {
                out.push_str(&format!(
                    "{{ int c{id} = 1; ps(c{id}, cnt{}); }}\n",
                    counter % 3
                ));
            }
            Op::PsmHist { id, idx, val } => {
                out.push_str(&format!("{{ int h{id} = {val}; psm(h{id}, HIST[("));
                render_expr(idx, spec, locals, phase, loop_var, out);
                out.push_str(&format!(") & {hmask}]); }}\n"));
            }
            Op::If { cond, then, els } => {
                out.push_str("if ");
                render_cond(cond, spec, locals, phase, loop_var, out);
                out.push_str(" {\n");
                render_ops(then, spec, locals, phase, depth, loop_var, out);
                if els.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    render_ops(els, spec, locals, phase, depth, loop_var, out);
                    out.push_str("}\n");
                }
            }
            Op::For { trips, body } => {
                let v = format!("i{depth}");
                out.push_str(&format!("for (int {v} = 0; {v} < {trips}; {v}++) {{\n"));
                render_ops(body, spec, locals, phase, depth + 1, Some(&v), out);
                out.push_str("}\n");
            }
            Op::While { id, trips, body } => {
                out.push_str(&format!("int w{id} = {trips};\nwhile (w{id} > 0) {{\n"));
                render_ops(body, spec, locals, phase, depth, loop_var, out);
                out.push_str(&format!("w{id} = w{id} - 1;\n}}\n"));
            }
            Op::NestedSpawn { hi, expr } => {
                out.push_str(&format!("spawn(0, {hi}) {{\nNEST[$] = "));
                // Inner `$` re-binds; locals are out of scope by
                // construction (the generator uses a locals-free ctx).
                render_expr(expr, spec, 0, phase, None, out);
                out.push_str(";\n}\n");
            }
        }
    }
}

/// Render a spec to compilable XMTC source.
pub fn render(spec: &ProgramSpec) -> String {
    let n = spec.n;
    let mut src = String::new();
    src.push_str(&format!("int IN0[{n}]; int IN1[{n}];\n"));
    for p in 0..spec.phases.len() {
        src.push_str(&format!("int OUT{p}[{n}];\n"));
    }
    src.push_str(&format!(
        "int NEST[{NEST_LEN}]; int SCR[{SCR_LEN}]; int HIST[{}];\n",
        spec.hist_len
    ));
    src.push_str("int BCAST = 0;\n");
    src.push_str("int cnt0 = 0; int cnt1 = 0; int cnt2 = 0; int scrtop = 0;\n");
    src.push_str("void main() {\n");
    for (p, phase) in spec.phases.iter().enumerate() {
        let pp = p as u8;
        match &phase.bc_update {
            BcUpdate::Keep => {}
            BcUpdate::Const(c) => src.push_str(&format!("BCAST = {};\n", c & 63)),
            BcUpdate::AddCounter(k) => {
                src.push_str(&format!("BCAST = (BCAST + cnt{}) & 63;\n", k % 3))
            }
            BcUpdate::SumOut(q) => {
                if p == 0 {
                    src.push_str("BCAST = 5;\n");
                } else {
                    let arr = q % p as u8;
                    src.push_str(&format!(
                        "BCAST = 0;\nfor (int m{p} = 0; m{p} < {n}; m{p}++) {{ BCAST = BCAST + OUT{arr}[m{p}]; }}\nBCAST = BCAST & 63;\n"
                    ));
                }
            }
        }
        if phase.hi_from_bc && phase.hi >= 0 {
            src.push_str(&format!("spawn(0, BCAST % {}) {{\n", phase.hi + 1));
        } else {
            src.push_str(&format!("spawn(0, {}) {{\n", phase.hi));
        }
        let locals = phase.locals.len() as u8;
        for (k, init) in phase.locals.iter().enumerate() {
            src.push_str(&format!("int x{k} = "));
            // Locals initialize in order; only earlier ones are in scope.
            render_expr(init, spec, k as u8, pp, None, &mut src);
            src.push_str(";\n");
        }
        render_ops(&phase.body, spec, locals, pp, 0, None, &mut src);
        src.push_str("}\n");
        for pr in &phase.print_after {
            match pr {
                Print::Bcast => src.push_str("print(BCAST);\n"),
                Print::OutElem { arr, idx } => {
                    let a = arr % (p as u8 + 1);
                    src.push_str(&format!("print(OUT{a}[{}]);\n", *idx as usize % n));
                }
            }
        }
    }
    // Counter totals are ps bases (global registers, not memory), so the
    // prefix-sum totals become observable through the print stream.
    src.push_str("print(cnt0);\nprint(cnt1);\nprint(cnt2);\nprint(scrtop);\nprint(BCAST);\n");
    src.push_str("}\n");
    src
}

/// The seeded input-array contents for a spec.
pub fn inputs(spec: &ProgramSpec) -> Vec<(String, Vec<i32>)> {
    vec![
        (
            "IN0".into(),
            crate::gen::int_array(spec.n, -100, 100, spec.data_seed),
        ),
        (
            "IN1".into(),
            crate::gen::int_array(spec.n, -100, 100, spec.data_seed ^ 0x9e37_79b9_7f4a_7c15),
        ),
    ]
}

/// What functional mode and the cycle engines must agree on for this
/// spec: everything exactly, except the `ps`-indexed scratch array
/// (order-dependent placement, order-free contents).
pub fn checks(spec: &ProgramSpec) -> Vec<FunctionalCheck> {
    let mut v = vec![
        FunctionalCheck::Prints,
        FunctionalCheck::Exact {
            name: "BCAST".into(),
            words: 1,
        },
        FunctionalCheck::Exact {
            name: "NEST".into(),
            words: NEST_LEN,
        },
        FunctionalCheck::Exact {
            name: "HIST".into(),
            words: spec.hist_len,
        },
        FunctionalCheck::Multiset {
            name: "SCR".into(),
            words: SCR_LEN,
        },
    ];
    for p in 0..spec.phases.len() {
        v.push(FunctionalCheck::Exact {
            name: format!("OUT{p}"),
            words: spec.n,
        });
    }
    v
}

// ---------------------------------------------------------------------
// Differential check + shrinking
// ---------------------------------------------------------------------

/// Compile a spec once and run it through every engine; `Err` carries a
/// full divergence report including the program source.
pub fn check_case(spec: &ProgramSpec, cfg: &XmtConfig) -> Result<(), String> {
    check_case_against(spec, cfg, cfg)
}

/// Like [`check_case`], but runs the per-event oracle engines under
/// `oracle_cfg` — the mutation-testing hook: a deliberately perturbed
/// oracle config must make the differential fail.
pub fn check_case_against(
    spec: &ProgramSpec,
    cfg: &XmtConfig,
    oracle_cfg: &XmtConfig,
) -> Result<(), String> {
    let src = render(spec);
    let mut compiled = Toolchain::new()
        .compile(&src)
        .map_err(|e| format!("generated program failed to compile: {e}\n--- source ---\n{src}"))?;
    for (name, vals) in inputs(spec) {
        compiled
            .set_global_ints(&name, &vals)
            .map_err(|e| format!("input install failed: {e}"))?;
    }
    let exe = compiled.executable();

    let all = if cfg == oracle_cfg {
        run_all_engines(exe, cfg, INSTR_LIMIT).map_err(|e| e.to_string())?
    } else {
        // Split matrix: batched engines under `cfg`, oracles under
        // `oracle_cfg`.
        use xmtsim::differential::{run_cycle_engine, CYCLE_ENGINE_MATRIX};
        let mut all = run_all_engines(exe, cfg, INSTR_LIMIT).map_err(|e| e.to_string())?;
        for (k, row) in CYCLE_ENGINE_MATRIX.into_iter().enumerate() {
            if matches!(row.0, xmtsim::IssueModel::PerInstr) {
                all.cycle[k] =
                    run_cycle_engine(exe, oracle_cfg, row, INSTR_LIMIT).map_err(|e| e.to_string())?;
            }
        }
        all
    };

    all.check_cycle_identical()
        .map_err(|m| format!("{m}\n--- source ---\n{src}"))?;
    all.check_functional_agrees(&checks(spec))
        .map_err(|m| format!("{m}\n--- source ---\n{src}"))
}

fn drop_op_candidates(ops: &[Op]) -> Vec<Vec<Op>> {
    let mut out = Vec::new();
    for k in 0..ops.len() {
        // Drop op k entirely.
        let mut c = ops.to_vec();
        c.remove(k);
        out.push(c);
        // Replace a compound op with (a prefix of) its body.
        let replacement = match &ops[k] {
            Op::If { then, .. } => Some(then.clone()),
            Op::For { body, .. } | Op::While { body, .. } => Some(body.clone()),
            _ => None,
        };
        if let Some(body) = replacement {
            let mut c = ops.to_vec();
            c.splice(k..=k, body);
            out.push(c);
        }
    }
    out
}

/// Structural simplifications of a spec, simplest-first, for
/// `xmt_harness::prop::minimize`. Modular reference resolution keeps
/// every candidate well-formed.
pub fn shrink_candidates(spec: &ProgramSpec) -> Vec<ProgramSpec> {
    let mut out = Vec::new();
    // Drop a whole phase.
    if spec.phases.len() > 1 {
        for k in 0..spec.phases.len() {
            let mut c = spec.clone();
            c.phases.remove(k);
            out.push(c);
        }
    }
    for (k, phase) in spec.phases.iter().enumerate() {
        // Fewer virtual threads.
        if phase.hi > 0 {
            let mut c = spec.clone();
            c.phases[k].hi /= 2;
            out.push(c);
        }
        // Literal bound instead of the data-dependent one.
        if phase.hi_from_bc {
            let mut c = spec.clone();
            c.phases[k].hi_from_bc = false;
            out.push(c);
        }
        // Simpler master code.
        if !matches!(phase.bc_update, BcUpdate::Keep) {
            let mut c = spec.clone();
            c.phases[k].bc_update = BcUpdate::Keep;
            out.push(c);
        }
        if !phase.print_after.is_empty() {
            let mut c = spec.clone();
            c.phases[k].print_after.clear();
            out.push(c);
        }
        // Fewer locals (modular resolution keeps references legal).
        if !phase.locals.is_empty() {
            let mut c = spec.clone();
            c.phases[k].locals.pop();
            out.push(c);
        }
        // Smaller body.
        for body in drop_op_candidates(&phase.body) {
            let mut c = spec.clone();
            c.phases[k].body = body;
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_harness::prop::{self, Config};

    #[test]
    fn generated_programs_compile_and_are_deterministic() {
        prop::run("fuzz_programs_compile", Config::with_cases(32), |g| {
            let spec = generate(g);
            let src = render(&spec);
            let src2 = render(&spec);
            assert_eq!(src, src2, "rendering is deterministic");
            Toolchain::new()
                .compile(&src)
                .unwrap_or_else(|e| panic!("generated program failed to compile: {e}\n{src}"));
        });
    }

    #[test]
    fn shrink_candidates_stay_wellformed() {
        prop::run("fuzz_shrink_wellformed", Config::with_cases(8), |g| {
            let spec = generate(g);
            for cand in shrink_candidates(&spec).into_iter().take(12) {
                let src = render(&cand);
                Toolchain::new()
                    .compile(&src)
                    .unwrap_or_else(|e| panic!("shrunk candidate failed to compile: {e}\n{src}"));
            }
        });
    }

    #[test]
    fn shrinking_terminates_at_a_fixed_point() {
        let mut g = prop::Gen::new(0xfeed_beef, 256);
        let spec = generate(&mut g);
        // With an always-failing predicate the minimizer must still
        // terminate (candidates eventually stop shrinking).
        let min = prop::minimize(spec, 10_000, shrink_candidates, |_| true);
        assert!(min.phases.len() == 1);
        assert!(min.phases[0].body.is_empty() || min.phases[0].body.len() <= 1);
    }
}
