//! The cycle-accurate model of XMTSim (paper §III, Fig. 3).
//!
//! Execution-driven simulation: instructions are produced by the
//! functional model ([`crate::exec`]) during the run, wrapped in request
//! "packages", and routed through the cycle-accurate components — the TCU
//! pipelines, the cluster-shared MDU/FPU, the LS unit with address
//! hashing, the mesh-of-trees interconnection network, the shared cache
//! modules and the DRAM channels. Each component is a state machine whose
//! state summarizes the packages that already passed through it, and whose
//! output is a delay (transaction-level modeling, as in the paper).
//!
//! Contended components are modeled with *resource timelines*: a component
//! remembers when it is next free; a package arriving earlier queues. The
//! components are driven from a single typed event loop over the
//! discrete-event [`Scheduler`] — operationally the paper's *macro-actor*
//! organization (one actor per component class) which the paper found
//! necessary for speed once event rates grow (§III-D).
//!
//! Two modeling choices make the XMT memory model (paper §IV-A)
//! *observably* relaxed, as on the hardware:
//!
//! * the ICN injection side keeps one virtual channel per
//!   (cluster, destination module); a package to a congested module does
//!   not delay later packages to other modules, so a non-blocking store
//!   can still be in flight when a subsequent prefix-sum completes;
//! * cache modules serve packages in *arrival* order and apply them to
//!   memory at service time, so cross-thread visibility follows the
//!   interconnect, not program order. `fence` (inserted by the compiler
//!   before prefix-sums) restores the §IV-A partial order.

pub mod cachesim;
mod inflight;
mod parallel;
pub mod prefetch;
mod spawn;

use crate::config::{
    ClockDomain, DecodeMode, EngineMode, IcnModel, IcnTiming, IssueModel, ObsDetail, XmtConfig,
};
use crate::decode::{Cursor, DecodeCache, ReplayEnv};
use crate::engine::{
    Priority, SchedCounters, Scheduler, Time, PRI_DEFAULT, PRI_NEGOTIATE, PRI_SAMPLE, PRI_TRANSFER,
};
use crate::exec::{self, CostClass, Issued, MemKind, MemRequest, Mode};
use crate::machine::{Machine, ThreadCtx, Trap};
use crate::obs::{MetricsRegistry, Obs};
use crate::stats::{stats_delta, ActivityPlugin, ActivitySample, FilterPlugin, RuntimeCtl, Stats};
use crate::trace::{TraceEvent, Tracer};
use cachesim::CacheTags;
use prefetch::PrefetchBuffer;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use xmt_harness::{json_enum, json_struct, IntMap};
use xmt_isa::{Executable, FuKind, Instr, Reg};

/// Errors terminating a cycle-accurate run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The simulated program trapped.
    Trap(Trap),
    /// The event list drained before `halt`.
    Deadlock { time: Time },
    /// The configured cycle limit was exceeded.
    CycleLimit { cycles: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Trap(t) => write!(f, "trap: {t}"),
            SimError::Deadlock { time } => write!(f, "deadlock at t={time}ps"),
            SimError::CycleLimit { cycles } => write!(f, "cycle limit exceeded at {cycles}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<Trap> for SimError {
    fn from(t: Trap) -> Self {
        SimError::Trap(t)
    }
}

/// Final figures of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Elapsed cluster-domain clock cycles (DVFS-aware).
    pub cycles: u64,
    /// Elapsed simulated time in picoseconds.
    pub time_ps: Time,
    /// Instructions executed.
    pub instructions: u64,
    /// Discrete events processed by the scheduler.
    pub events: u64,
}

json_struct!(RunSummary {
    cycles,
    time_ps,
    instructions,
    events
});

/// Host-time profile of the simulator itself, per component class —
/// enables the paper's observation that up to 60% of simulation time goes
/// to the interconnection network / memory system model (§III-D).
#[derive(Debug, Clone, Default)]
pub struct HostProfile {
    /// Seconds spent handling TCU/master compute events.
    pub compute_s: f64,
    /// Seconds spent handling ICN + cache + DRAM (memory system) events.
    pub memory_s: f64,
    /// Seconds spent in everything else (spawn control, sampling).
    pub other_s: f64,
    /// Seconds spent on the *pop* side of the event list (`pop_cycle`
    /// batch drains, the parallel engine's window merge). The push side
    /// runs inside the handlers and is charged to their classes, so this
    /// under-reports what the event list costs.
    pub sched_s: f64,
    /// The event list's traffic counters, summed over the shard queues.
    pub sched: SchedCounters,
    /// TCU/master compute events handled.
    pub compute_events: u64,
    /// ICN + cache + DRAM (memory system) events handled.
    pub memory_events: u64,
    /// All other events handled (spawn control, sampling).
    pub other_events: u64,
    /// ICN legs scheduled closed-form by the express path.
    pub express_legs: u64,
    /// Per-stage `Hop` events the express path did *not* schedule (the
    /// event-savings the closed-form leg buys over the per-hop walk).
    pub hops_elided: u64,
    /// Compute bursts issued under [`IssueModel::Burst`] — one per
    /// `MasterStep`, and one per `TcuStep` that resolved to a pure local
    /// instruction (a burst of length 1 is a step that could not extend).
    pub bursts: u64,
    /// Instructions folded into those bursts (every burst instruction,
    /// including the first). `burst_instrs - bursts` is the number of
    /// step events the burst path elided versus per-instruction issue.
    pub burst_instrs: u64,
    /// Bursts that stopped at a non-local instruction (TCU: memory op,
    /// shared FU, `ps`/`chkid`/control; master: `halt`, a trap).
    pub burst_break_nonlocal: u64,
    /// The TCU share of `burst_break_nonlocal`, by the instruction the
    /// burst stopped at ([`exec::NONLOCAL_CAUSES`] order).
    pub tcu_break_cause: [u64; 6],
    /// Bursts clipped at the next pending `Ev::Sample` time (which is
    /// also every DVFS `apply_periods` epoch).
    pub burst_break_sample: u64,
    /// Bursts clipped at an observable run boundary: the cycle limit, the
    /// instruction limit, or a pending checkpoint target.
    pub burst_break_boundary: u64,
    /// Bursts that hit the length cap (`BURST_CAP`).
    pub burst_break_cap: u64,
    /// Master bursts that ended on a miss or `psm` whose round trip (or
    /// the rest of it) went through the event list.
    pub burst_break_miss: u64,
    /// Master bursts that ended on a non-empty `spawn`.
    pub burst_break_spawn: u64,
    /// Master round trips walked whole on the stack — no event.
    pub master_inline_trips: u64,
    /// Master round trips with at least one stage on the event list.
    pub master_event_trips: u64,
    /// Return legs folded into their completion (no `ExpressEnd`).
    pub legs_folded: u64,
    /// Blocking completions that ran their TCU's step in place.
    pub completions_continued: u64,
    /// TCU steps that continued into local instructions after a
    /// non-blocking memory op or a free `fence`.
    pub issues_continued: u64,
    /// TCUs whose first allocation round of a section ran in closed form,
    /// each one the step event its prefix-and-`ps` burst was (DESIGN §17).
    pub first_rounds: u64,
    /// Those of them that got no thread and parked without an event.
    pub idle_parked: u64,
    /// Burst length histogram, floor-log2 buckets: 1, 2–3, 4–7, 8–15,
    /// 16–31, 32–63, 64–127, 128+.
    pub burst_len_hist: [u64; 8],
    /// Basic blocks decoded into the pre-decoded cache (including
    /// re-decodes after an invalidation).
    pub blocks_decoded: u64,
    /// Decoded-block replays (each fast-forwards ≥ 1 block).
    pub block_replays: u64,
    /// Constituent instructions executed from decoded blocks instead of
    /// the interpreted `exec::issue_local` path.
    pub replay_instrs: u64,
    /// Fused superinstructions (compare+branch, li+ALU, psm+increment)
    /// executed whole during replay.
    pub fusions: u64,
    /// Decode-cache invalidations (tracer/filter activation, checkpoint
    /// restore) that discarded at least one decoded block.
    pub decode_invalidations: u64,
    /// Always 0; exists only because `bench/e2e` reads it.
    pub mem_drains: u64,
    /// Always 0; exists only because `bench/e2e` reads it.
    pub mem_elided: u64,
}

impl HostProfile {
    /// Fraction of host time spent in the memory-system (ICN) model,
    /// relative to total event-handling time (scheduler self-time is
    /// bookkeeping, not component modeling, and is excluded).
    pub fn memory_fraction(&self) -> f64 {
        let tot = self.compute_s + self.memory_s + self.other_s;
        if tot == 0.0 {
            0.0
        } else {
            self.memory_s / tot
        }
    }

    /// Total events handled across all component classes.
    pub fn total_events(&self) -> u64 {
        self.compute_events + self.memory_events + self.other_events
    }

    /// Mean burst length (instructions per compute step event).
    pub fn mean_burst_len(&self) -> f64 {
        if self.bursts == 0 {
            0.0
        } else {
            self.burst_instrs as f64 / self.bursts as f64
        }
    }

    fn record_burst(&mut self, len: u64, reason: BurstBreak) {
        self.bursts += 1;
        self.burst_instrs += len;
        match reason {
            BurstBreak::NonLocal => self.burst_break_nonlocal += 1,
            BurstBreak::Sample => self.burst_break_sample += 1,
            BurstBreak::Boundary => self.burst_break_boundary += 1,
            BurstBreak::Cap => self.burst_break_cap += 1,
            BurstBreak::Miss => self.burst_break_miss += 1,
            BurstBreak::Spawn => self.burst_break_spawn += 1,
        }
        let bucket = (63 - len.max(1).leading_zeros() as u64).min(7) as usize;
        self.burst_len_hist[bucket] += 1;
    }

    /// [`Self::record_burst`] for a TCU burst that stopped before `pc`.
    fn record_tcu_burst(&mut self, len: u64, reason: BurstBreak, exe: &Executable, pc: u32) {
        self.record_burst(len, reason);
        if let BurstBreak::NonLocal = reason {
            self.tcu_break_cause[exec::nonlocal_cause(exe, pc)] += 1;
        }
    }
}

/// Why a compute burst stopped extending (host-profile bookkeeping only —
/// every break reason is equivalence-preserving by construction).
#[derive(Debug, Clone, Copy)]
enum BurstBreak {
    /// The next instruction is not a pure local op (or the pc left the
    /// program, surfacing the fetch trap on the per-instruction path).
    NonLocal,
    /// Extending would cross the next pending `Ev::Sample` time.
    Sample,
    /// Extending would cross the cycle limit, the instruction limit, or a
    /// pending checkpoint target.
    Boundary,
    /// The burst reached `BURST_CAP` instructions.
    Cap,
    /// Master only: a miss or `psm` whose response arrives as an event.
    Miss,
    /// Master only: a non-empty `spawn` handed the machine to the TCUs.
    Spawn,
}

/// Upper bound on instructions folded into one burst: keeps a single
/// `handle()` call bounded so infinite pure-local loops still make the
/// run loop (and its cycle-limit check) turn over. Breaking here is
/// always safe — the scheduled step event simply starts the next burst.
pub(crate) const BURST_CAP: u64 = 4096;

/// Smallest size of the per-line MSHR chain map (`line_busy`) at which
/// `arrive` drops its settled entries before inserting.
const LINE_BUSY_PRUNE: usize = 1024;

/// Per-TCU simulation state.
#[derive(Debug, Clone, PartialEq)]
pub struct TcuState {
    /// Architectural context.
    pub ctx: ThreadCtx,
    /// Outstanding non-blocking memory operations.
    pending: u32,
    /// Stalled at a `fence`, waiting for `pending == 0`.
    fence_wait: bool,
    /// When the fence stall began (for statistics).
    fence_from: Time,
    /// Parked at a failed `chkid`.
    parked: bool,
    /// The TCU prefetch buffer.
    pbuf: PrefetchBuffer,
}

json_struct!(TcuState {
    ctx,
    pending,
    fence_wait,
    fence_from,
    parked,
    pbuf
});

/// State of an open parallel section.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ParState {
    hi: i32,
    join_idx: u32,
    parked: u32,
}

json_struct!(ParState {
    hi,
    join_idx,
    parked
});

/// Typed events of the cycle-accurate model.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    /// The master TCU issues its next instruction.
    MasterStep,
    /// TCU `t` issues its next instruction.
    TcuStep(u32),
    /// A memory package advances one pipeline stage (switch) of the
    /// mesh-of-trees interconnect. `inbound` packages head for a cache
    /// module; outbound packages carry a response `value` back to their
    /// TCU. Walking packages switch-by-switch is where a cycle-accurate
    /// many-core simulator spends its time (paper §III-D).
    Hop {
        tcu: u32,
        req: MemRequest,
        remaining: u32,
        value: u32,
        inbound: bool,
        issued_at: Time,
    },
    /// A memory request is serviced at its cache module (its functional
    /// effect happens here).
    Service {
        tcu: u32,
        req: MemRequest,
        done: Time,
        issued_at: Time,
    },
    /// A memory response arrives back at the issuing TCU.
    Complete {
        tcu: u32,
        req: MemRequest,
        value: u32,
        issued_at: Time,
    },
    /// The spawn broadcast finished; activate the TCUs.
    BroadcastDone { body_pc: u32 },
    /// Activity-plug-in sampling tick.
    Sample,
    /// End of a closed-form express ICN leg (see [`ExpressLeg`]): the
    /// *last* switch stage of a traversal whose intermediate hops were
    /// computed analytically instead of simulated. `gen` guards against
    /// slot reuse and DVFS rescheduling — a mismatch means the event is
    /// stale and is ignored.
    ExpressEnd { leg: u32, gen: u64 },
}

json_enum!(Ev {
    MasterStep,
    TcuStep(u32),
    Hop { tcu, req, remaining, value, inbound, issued_at },
    Service { tcu, req, done, issued_at },
    Complete { tcu, req, value, issued_at },
    BroadcastDone { body_pc },
    Sample,
    ExpressEnd { leg, gen },
});

/// The per-hop timestamps of one express leg: entry `k` is the time the
/// per-hop model's `(k+1)`-th `Hop` event would carry, the last entry is
/// the leg's end. Every request makes two of these, so the common shape
/// costs no allocation.
#[derive(Debug, Clone)]
enum HopChain {
    /// Evenly spaced stages — synchronous switches, or self-timed ones
    /// without jitter: entry `k` is `start + (k + 1) · step`.
    Even { start: Time, step: Time, n: u32 },
    /// One timestamp per stage: jittered asynchronous timing, a chain
    /// whose suffix a DVFS retune moved, or one read from a checkpoint.
    Explicit(Vec<Time>),
}

impl HopChain {
    fn len(&self) -> usize {
        match self {
            HopChain::Even { n, .. } => *n as usize,
            HopChain::Explicit(times) => times.len(),
        }
    }

    #[inline]
    fn at(&self, k: usize) -> Time {
        match self {
            HopChain::Even { start, step, .. } => start + (k as u64 + 1) * step,
            HopChain::Explicit(times) => times[k],
        }
    }

    /// The leg's end: the time of its last stage.
    fn end(&self) -> Time {
        self.at(self.len() - 1)
    }

    fn to_vec(&self) -> Vec<Time> {
        (0..self.len()).map(|k| self.at(k)).collect()
    }
}

/// One in-flight ICN traversal under [`IcnModel::Express`].
///
/// Keeping the whole chain (not just the end) serves two purposes:
/// same-timestamp ties between leg-end events are broken exactly as the
/// per-hop walk would break them (lexicographic on the *reversed* chain —
/// see `order_express_batch`), and a mid-flight DVFS period change can
/// recompute exactly the suffix of stages whose per-hop scheduling
/// decision would have happened after the change.
#[derive(Debug, Clone)]
struct ExpressLeg {
    tcu: u32,
    req: MemRequest,
    value: u32,
    inbound: bool,
    issued_at: Time,
    /// Monotone creation index; mirrors the sequence number the per-hop
    /// model's first `Hop` event would have carried, as the final
    /// tie-break between legs with fully identical chains.
    seq: u64,
    chain: HopChain,
}

/// A slot of the express-leg table. Slots are reused; `gen` increments on
/// every (re)allocation and reschedule so stale `ExpressEnd` events can be
/// recognized.
#[derive(Debug, Clone, Default)]
struct LegSlot {
    gen: u64,
    leg: Option<ExpressLeg>,
}

/// A pending scheduler event captured by a mid-flight checkpoint, in exact
/// pop order.
#[derive(Debug, Clone, PartialEq)]
struct SavedEvent {
    time: Time,
    pri: Priority,
    ev: Ev,
}

json_struct!(SavedEvent { time, pri, ev });

/// Blocking loads parked on one in-flight prefetch, keyed for
/// serialization (HashMap iteration order is not deterministic).
#[derive(Debug, Clone, PartialEq)]
struct SavedWaiter {
    tcu: u32,
    addr: u32,
    waiters: Vec<(MemRequest, Time)>,
}

json_struct!(SavedWaiter { tcu, addr, waiters });

/// One in-flight memory operation captured by a mid-flight checkpoint: a
/// pending `ExpressEnd`/`Service`/`Complete` event (stale express ends
/// are dropped) without its scheduler sequence number or leg-slot index.
/// The list is sorted canonically by `(time, priority, tie)` with the
/// per-class tie-breaks the run loop uses, so the serialized bytes do not
/// depend on insertion order.
#[derive(Debug, Clone, PartialEq)]
enum SavedMemOp {
    /// An in-flight ICN traversal ([`IcnModel::Express`] only): a live
    /// express leg.
    Flight {
        tcu: u32,
        req: MemRequest,
        value: u32,
        inbound: bool,
        issued_at: Time,
        chain: Vec<Time>,
    },
    /// A queued cache-module service (a pending [`Ev::Service`]).
    Queued {
        tcu: u32,
        req: MemRequest,
        done: Time,
        issued_at: Time,
    },
    /// A completion in flight back to its TCU (a pending [`Ev::Complete`]).
    Done {
        tcu: u32,
        req: MemRequest,
        value: u32,
        issued_at: Time,
        at: Time,
    },
}

json_enum!(SavedMemOp {
    Flight { tcu, req, value, inbound, issued_at, chain },
    Queued { tcu, req, done, issued_at },
    Done { tcu, req, value, issued_at, at },
});

/// Everything a checkpoint must carry beyond the quiescent machine state
/// when packages are still in flight: the pending event list (in pop
/// order, memory events factored out into `mem_ops`), the open parallel
/// section, and the package-tracking side tables. Empty
/// (`is_quiescent()`) for checkpoints taken at quiescent master-step
/// boundaries, which restore through the original re-seeding path.
///
/// In-progress compute bursts ([`IssueModel::Burst`]) are carried for
/// free: a burst is atomic within one event handler, so by any event-group
/// boundary its register/pc effects are already in the context snapshots
/// and the burst *is* exactly one pending aggregate step event in
/// `events`. Restoring replays that event, and the restore path rescans
/// `events` for a pending `Ev::Sample` to re-arm the burst clip boundary
/// (`next_sample_at`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InflightState {
    events: Vec<SavedEvent>,
    mem_ops: Vec<SavedMemOp>,
    par: Option<ParState>,
    pending_total: u64,
    pbuf_waiters: Vec<SavedWaiter>,
    line_busy: BTreeMap<u32, Time>,
}

json_struct!(InflightState {
    events,
    mem_ops,
    par,
    pending_total,
    pbuf_waiters,
    line_busy
});

impl InflightState {
    /// True when the checkpoint was taken at a quiescent boundary and
    /// carries no in-flight state.
    pub fn is_quiescent(&self) -> bool {
        self.events.is_empty() && self.mem_ops.is_empty()
    }

    /// Number of pending scheduler events captured (memory operations in
    /// flight count one each).
    pub fn pending_events(&self) -> usize {
        self.events.len() + self.mem_ops.len()
    }

    /// Number of express ICN legs in flight at the checkpoint.
    pub fn express_legs_in_flight(&self) -> usize {
        self.mem_ops
            .iter()
            .filter(|op| matches!(op, SavedMemOp::Flight { .. }))
            .count()
    }
}

/// Sentinel "TCU id" for packages issued by the Master TCU through its
/// own ICN port (paper Fig. 1: Master ICN Send / Master ICN Return).
const MASTER_ID: u32 = u32::MAX;

/// The cycle-accurate simulator.
pub struct CycleSim {
    /// The program image, shared with whoever built the simulator.
    exe: Arc<Executable>,
    cfg: XmtConfig,
    /// Functional-model state (shared memory, global registers, output).
    pub machine: Machine,
    /// The Master TCU context.
    pub master: ThreadCtx,
    tcus: Vec<TcuState>,
    /// Shard 0 of the event list: the master/scheduler shard (and the
    /// only scheduler at all under [`EngineMode::Sequential`]). Its clock
    /// is the canonical simulation clock in both engine modes — the
    /// parallel window loop lock-steps every shard's `now`.
    sched: Scheduler<Ev>,
    /// Worker-shard event queues ([`EngineMode::Parallel`] only, else
    /// empty): shard `1 + i` holds the step/completion events of the
    /// clusters in worker `i`'s contiguous cluster range, plus the
    /// service events of its cache-module slice. See
    /// [`Self::shard_of_ev`] for the routing and `cycle::parallel` for
    /// the conservatively-synchronized window loop that drains them.
    shard_queues: Vec<Scheduler<Ev>>,
    /// Global event-insertion counter shared by all shards: cross-shard
    /// merges order same-`(time, priority)` events by these seqs, which
    /// reproduces exactly the FIFO order one sequential queue would have
    /// assigned. Unused (stays 0) in sequential mode.
    global_seq: u64,

    // Clock domains (mutable at runtime through activity plug-ins).
    period_ps: [u64; 4],
    cycles_base: u64,
    period_changed_at: Time,

    // Resource timelines (absolute ps at which the resource is next
    // free). The ICN injection side keeps one virtual channel per
    // (cluster, destination module).
    vc_free: Vec<Time>,
    module_free: Vec<Time>,
    dram_free: Vec<Time>,
    mdu_free: Vec<Time>,
    fpu_free: Vec<Time>,

    // Cache tag state.
    modules: Vec<CacheTags>,
    ro_caches: Vec<CacheTags>,
    master_cache: CacheTags,

    par: Option<ParState>,
    pending_total: u64,
    /// Blocking loads parked on a prefetch still in flight, keyed by
    /// (tcu, word address).
    pbuf_waiters: IntMap<(u32, u32), Vec<(MemRequest, Time)>>,
    /// Per cache line: when its last service completes. Accesses to a
    /// line chain behind an outstanding miss to it (MSHR behaviour),
    /// which is also what preserves memory-model rule 1 — same source,
    /// same destination operations are never reordered.
    /// Entries whose time has passed are pruned opportunistically at
    /// insert (see `arrive`) so the map stays bounded on long runs.
    line_busy: IntMap<u32, Time>,
    /// Size of `line_busy` at which `arrive` prunes next: at least
    /// `LINE_BUSY_PRUNE`, and far enough above what the last prune left
    /// that a run with many lines busy at once does not rescan the whole
    /// map on every arrival.
    line_busy_prune_at: usize,
    /// Entries the prunes have visited so far.
    line_busy_scanned: u64,

    // Express ICN path (cfg.icn_model == IcnModel::Express).
    /// In-flight express legs; `Ev::ExpressEnd` events index this table.
    express_legs: Vec<LegSlot>,
    /// Free slots of `express_legs`.
    legs_free: Vec<u32>,
    /// Monotone leg creation counter (tie-break, see `ExpressLeg::seq`).
    leg_seq: u64,
    /// Per-destination cumulative stage offsets `(inbound, outbound)`,
    /// keyed by package address — the async-jitter sum is computed once
    /// per destination per clock-period epoch instead of once per
    /// package. Invalidated by `apply_periods` (epoch change) and
    /// size-capped. Unused in synchronous timing, where the offsets are
    /// a trivial multiple of the ICN period.
    route_cache: IntMap<u32, (Box<[Time]>, Box<[Time]>)>,

    /// Built-in counters.
    pub stats: Stats,
    filters: Vec<Box<dyn FilterPlugin>>,
    activities: Vec<Box<dyn ActivityPlugin>>,
    sample_interval: Option<Time>,
    last_sample: Stats,
    /// Absolute time of the next pending `Ev::Sample`, if any — the
    /// boundary no compute burst may cross (sampling observes the stats
    /// counters and is where DVFS `apply_periods` epochs begin).
    next_sample_at: Option<Time>,

    /// Optional execution tracer.
    pub tracer: Option<Tracer>,

    /// Pre-decoded basic-block cache ([`DecodeMode::Cache`]), consulted
    /// by the burst loops; `None` under [`DecodeMode::Off`].
    decode: Option<DecodeCache>,

    host_profile: Option<HostProfile>,
    /// Observability recorder ([`ObsDetail`] ≠ `Off`): timeline spans and
    /// counters in both time domains. A pure observer — never consulted
    /// by the timing model, so enabling it is bit-identity-preserving
    /// (unlike tracers/filters, which degrade burst issue by design).
    obs: Option<Box<Obs>>,
    max_cycles: Option<u64>,
    max_instrs: Option<u64>,
    checkpoint_at: Option<u64>,
    /// Mid-flight checkpoint target (cluster cycle): stop at the next
    /// event-group boundary at or after it, packages in flight and all.
    checkpoint_any_at: Option<u64>,
    stop_requested: bool,
    started: bool,
}

impl CycleSim {
    /// Build a simulator for `exe` (an `Executable`, or an `Arc` of one
    /// to share the image instead of copying it) on configuration `cfg`,
    /// panicking on an invalid configuration (see [`Self::try_new`]).
    pub fn new(exe: impl Into<Arc<Executable>>, cfg: XmtConfig) -> Self {
        Self::try_new(exe, cfg).expect("invalid configuration")
    }

    /// Build a simulator for `exe` on configuration `cfg`, reporting an
    /// invalid configuration as an error instead of panicking — the
    /// entry point for simulators built from user-supplied (JSON)
    /// configurations, where e.g. `dram_channels = 0` must surface as a
    /// load-time error rather than a divide-by-zero at the first cache
    /// miss.
    pub fn try_new(exe: impl Into<Arc<Executable>>, cfg: XmtConfig) -> Result<Self, String> {
        cfg.validate()?;
        let exe = exe.into();
        let machine = Machine::load(&exe)?;
        let n_tcus = cfg.n_tcus() as usize;
        let line = cfg.line_bytes;
        let tcu = TcuState {
            ctx: ThreadCtx::default(),
            pending: 0,
            fence_wait: false,
            fence_from: 0,
            parked: false,
            pbuf: PrefetchBuffer::new(cfg.prefetch_entries, cfg.prefetch_policy),
        };
        let mut master = ThreadCtx {
            pc: exe.entry,
            ..Default::default()
        };
        master.regs.set(Reg::Sp, xmt_isa::STACK_TOP);
        // Parallel engine: one worker shard per thread, clamped to the
        // cluster count (a shard with no clusters would never run).
        let workers = match cfg.engine_mode {
            EngineMode::Sequential => 0,
            EngineMode::Parallel => cfg.threads.min(cfg.clusters).max(1) as usize,
        };
        Ok(CycleSim {
            machine,
            master,
            tcus: vec![tcu; n_tcus],
            sched: Scheduler::new(),
            shard_queues: (0..workers).map(|_| Scheduler::new()).collect(),
            global_seq: 0,
            period_ps: cfg.period_ps,
            cycles_base: 0,
            period_changed_at: 0,
            vc_free: vec![0; ((cfg.clusters + 1) * cfg.cache_modules) as usize],
            module_free: vec![0; cfg.cache_modules as usize],
            dram_free: vec![0; cfg.dram_channels as usize],
            mdu_free: vec![0; cfg.clusters as usize],
            fpu_free: vec![0; cfg.clusters as usize],
            modules: (0..cfg.cache_modules)
                .map(|_| CacheTags::new(cfg.cache_module_kb * 1024, cfg.cache_assoc, line))
                .collect(),
            ro_caches: (0..cfg.clusters)
                .map(|_| CacheTags::new(cfg.ro_cache_kb * 1024, 2, line))
                .collect(),
            master_cache: CacheTags::new(cfg.master_cache_kb * 1024, cfg.master_cache_assoc, line),
            par: None,
            pending_total: 0,
            pbuf_waiters: IntMap::default(),
            line_busy: IntMap::default(),
            line_busy_prune_at: LINE_BUSY_PRUNE,
            line_busy_scanned: 0,
            express_legs: Vec::new(),
            legs_free: Vec::new(),
            leg_seq: 0,
            route_cache: IntMap::default(),
            stats: Stats::for_topology(cfg.clusters, cfg.cache_modules),
            filters: Vec::new(),
            activities: Vec::new(),
            sample_interval: None,
            last_sample: Stats::for_topology(cfg.clusters, cfg.cache_modules),
            next_sample_at: None,
            tracer: None,
            decode: (cfg.decode_cache == DecodeMode::Cache).then(|| DecodeCache::new(exe.len())),
            host_profile: None,
            obs: (cfg.obs_detail != ObsDetail::Off).then(|| Box::new(Obs::new(cfg.obs_detail, &cfg))),
            max_cycles: None,
            max_instrs: None,
            checkpoint_at: None,
            checkpoint_any_at: None,
            stop_requested: false,
            started: false,
            exe,
            cfg,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &XmtConfig {
        &self.cfg
    }

    /// The loaded executable.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// The TCUs' states, in TCU order.
    pub fn tcus(&self) -> &[TcuState] {
        &self.tcus
    }

    // ---------------------------------------------------------------
    // Event routing (sequential vs. sharded parallel)
    // ---------------------------------------------------------------

    /// Number of worker shards — the effective parallel thread count
    /// (`threads` clamped to the cluster count); 0 in sequential mode.
    #[inline]
    pub fn workers(&self) -> usize {
        self.shard_queues.len()
    }

    /// The worker shard owning an event, or `None` for shard 0 (the
    /// master/scheduler shard). TCU step and completion events live with
    /// their cluster's shard; cache-module service events live with the
    /// shard owning that module's slice; everything global (master,
    /// spawn control, sampling, interconnect hops and express legs) is
    /// shard 0. Both cluster and module ranges are contiguous balanced
    /// slices, so a shard's state is a contiguous `tcus` range — which
    /// is what lets phase-A work run on plain disjoint slices.
    fn shard_of_ev(&self, ev: &Ev) -> Option<usize> {
        let w = self.shard_queues.len() as u64;
        match ev {
            Ev::TcuStep(t) => {
                Some((self.cfg.cluster_of(*t) as u64 * w / self.cfg.clusters as u64) as usize)
            }
            Ev::Complete { tcu, .. } if *tcu != MASTER_ID => {
                Some((self.cfg.cluster_of(*tcu) as u64 * w / self.cfg.clusters as u64) as usize)
            }
            Ev::Service { req, .. } => Some(
                (self.cfg.module_of(req.addr) as u64 * w / self.cfg.cache_modules as u64) as usize,
            ),
            _ => None,
        }
    }

    /// Schedule an event on whichever event list owns it. Sequential
    /// mode degenerates to a plain [`Scheduler::schedule_at`]; parallel
    /// mode routes by [`Self::shard_of_ev`] and stamps the next *global*
    /// sequence number, so cross-shard merges reproduce the sequential
    /// FIFO order exactly.
    fn schedule_ev(&mut self, time: Time, pri: Priority, ev: Ev) {
        if self.shard_queues.is_empty() {
            self.sched.schedule_at(time, pri, ev);
            return;
        }
        let seq = self.global_seq;
        self.global_seq += 1;
        match self.shard_of_ev(&ev) {
            None => self.sched.schedule_at_seq(time, pri, seq, ev),
            Some(s) => self.shard_queues[s].schedule_at_seq(time, pri, seq, ev),
        }
    }

    /// [`Self::schedule_ev`] for events drained but not handled (stop /
    /// checkpoint boundaries), un-counting them from `processed`. The
    /// shard routing is a pure function of the event, so a requeued
    /// event returns to the queue it was popped from.
    fn requeue_ev(&mut self, time: Time, pri: Priority, ev: Ev) {
        if self.shard_queues.is_empty() {
            self.sched.requeue(time, pri, ev);
            return;
        }
        let seq = self.global_seq;
        self.global_seq += 1;
        match self.shard_of_ev(&ev) {
            None => self.sched.requeue_seq(time, pri, seq, ev),
            Some(s) => self.shard_queues[s].requeue_seq(time, pri, seq, ev),
        }
    }

    /// Attach a filter plug-in (end-of-run custom statistics). Filters
    /// observe every instruction, so decoded replay degrades to
    /// interpreted issue while any filter is attached; the cached blocks
    /// are discarded (they rebuild deterministically if the run ever
    /// returns to replay-eligible state).
    pub fn add_filter(&mut self, f: Box<dyn FilterPlugin>) {
        self.filters.push(f);
        self.invalidate_decode();
    }

    /// Attach an activity plug-in, sampled every `interval_cycles`
    /// cluster cycles.
    pub fn add_activity(&mut self, a: Box<dyn ActivityPlugin>, interval_cycles: u64) {
        self.activities.push(a);
        let iv = interval_cycles.max(1) * self.period_ps[ClockDomain::Cluster as usize];
        self.sample_interval = Some(match self.sample_interval {
            Some(cur) => cur.min(iv),
            None => iv,
        });
    }

    /// Reports from all attached filter plug-ins.
    pub fn filter_reports(&self) -> Vec<String> {
        self.filters.iter().map(|f| f.report()).collect()
    }

    /// Typed access to the first attached filter of type `T` (see
    /// [`activity_plugin`](Self::activity_plugin) for the same pattern on
    /// activity plug-ins).
    pub fn filter_plugin<T: 'static>(&self) -> Option<&T> {
        self.filters
            .iter()
            .find_map(|f| f.as_any().and_then(|a| a.downcast_ref::<T>()))
    }

    /// Reports from all attached activity plug-ins.
    pub fn activity_reports(&self) -> Vec<String> {
        self.activities.iter().map(|a| a.report()).collect()
    }

    /// Retrieve an attached activity plug-in by type (post-run data
    /// extraction: thermal history, floorplan frames, …).
    pub fn activity_plugin<T: 'static>(&self) -> Option<&T> {
        self.activities
            .iter()
            .find_map(|a| a.as_any().and_then(|any| any.downcast_ref::<T>()))
    }

    /// Abort the run once this many cluster cycles elapse.
    pub fn set_cycle_limit(&mut self, cycles: u64) {
        self.max_cycles = Some(cycles);
    }

    /// Stop the run (cleanly, with a summary) once this many instructions
    /// have issued. The check sits at the top of every step handler, so
    /// the run stops with *exactly* `limit` instructions counted — under
    /// both issue models: a compute burst breaks before the instruction
    /// that would exceed the limit. Raise the limit and `run` again to
    /// continue from the stop.
    pub fn set_instr_limit(&mut self, limit: u64) {
        self.max_instrs = Some(limit);
    }

    /// Measure the simulator's own host time per component class.
    pub fn enable_host_profiling(&mut self) {
        self.host_profile = Some(HostProfile::default());
    }

    /// The collected host profile, if enabled.
    pub fn host_profile(&self) -> Option<&HostProfile> {
        self.host_profile.as_ref()
    }

    /// The observability recorder, if `cfg.obs_detail` enabled one.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Sample observability metric counters onto the timeline every
    /// `interval_cycles` cluster cycles. Reuses the activity-plug-in
    /// sampling boundary, so the schedule (and therefore burst clipping)
    /// is identical to attaching an [`ActivityPlugin`] at the same
    /// interval. No-op when observability is off.
    pub fn set_obs_sample_interval(&mut self, interval_cycles: u64) {
        if self.obs.is_none() {
            return;
        }
        let iv = interval_cycles.max(1) * self.period_ps[ClockDomain::Cluster as usize];
        self.sample_interval = Some(match self.sample_interval {
            Some(cur) => cur.min(iv),
            None => iv,
        });
    }

    /// The recorded timeline as Chrome `trace_event` JSON text, if
    /// observability is enabled.
    pub fn trace_json(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.timeline.to_json_string())
    }

    /// The full metrics registry for the run so far (`sim.*` always,
    /// `host.*` when host profiling is enabled).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        MetricsRegistry::for_run(&self.summary(), &self.stats, self.host_profile.as_ref())
    }

    /// Attach an execution tracer. Tracing degrades [`IssueModel::Burst`]
    /// to per-instruction stepping (see [`Self::burst_issue`]), which
    /// also takes decoded replay out of the path — its cached blocks are
    /// invalidated here so a traced run carries no stale decode state.
    pub fn attach_tracer(&mut self, t: Tracer) {
        self.tracer = Some(t);
        self.invalidate_decode();
    }

    /// Discard all pre-decoded blocks (counted in the host profile when
    /// any were present). Purely a cache event: blocks rebuild
    /// deterministically from the immutable text on next replay.
    fn invalidate_decode(&mut self) {
        if let Some(dc) = self.decode.as_mut() {
            dc.invalidate_all();
            if let Some(hp) = self.host_profile.as_mut() {
                hp.decode_invalidations = dc.stats.invalidations;
            }
        }
    }

    /// Whether step events extend into compute bursts: the configured
    /// issue model, auto-degraded to per-instruction stepping while a
    /// tracer is attached — the tracer wants one `Issue` record per
    /// instruction, stamped at its per-instruction issue time.
    #[inline]
    fn burst_issue(&self) -> bool {
        self.cfg.issue_model == IssueModel::Burst && self.tracer.is_none()
    }

    /// Top-of-step-handler instruction-limit check: when the limit is
    /// reached the step goes back on the list untaken and the run stops
    /// cleanly — with exactly `limit` instructions counted, under both
    /// issue models.
    fn instr_limit_reached(&mut self, now: Time, step: Ev) -> bool {
        let reached = self.instrs_reached();
        if reached {
            self.stop_requested = true;
            self.schedule_ev(now, PRI_DEFAULT, step);
        }
        reached
    }

    /// Have the instructions issued so far reached the limit?
    fn instrs_reached(&self) -> bool {
        self.max_instrs.is_some_and(|l| self.stats.instructions >= l)
    }

    /// Might the instruction limit stop the run before `t`?
    fn limit_before(&self, t: Time) -> bool {
        self.limit_horizon().is_some_and(|c| self.cycles_at(t) >= c)
    }

    /// The first cycle by which the instruction limit might stop the run,
    /// if every TCU and the master issue at most one instruction per cycle
    /// — as `one_issue_per_cycle()` ensures — plus one `BURST_CAP` burst in
    /// hand each; `None` without a limit.
    fn limit_horizon(&self) -> Option<u64> {
        let actors = self.tcus.len() as u64 + 1;
        // Each actor's share of what is left, less the slack, in cycles.
        let room = self.max_instrs?.saturating_sub(self.stats.instructions).div_ceil(actors);
        match room.checked_sub(2 + BURST_CAP) {
            Some(c) if self.cfg.one_issue_per_cycle() => Some(self.cycles().saturating_add(c)),
            _ => Some(0),
        }
    }

    /// Elapsed cluster cycles at simulated time `now` (DVFS-aware).
    pub fn cycles_at(&self, now: Time) -> u64 {
        self.cycles_base
            + (now - self.period_changed_at) / self.period_ps[ClockDomain::Cluster as usize]
    }

    /// Current cluster-cycle count.
    pub fn cycles(&self) -> u64 {
        self.cycles_at(self.sched.now())
    }

    /// Current domain periods (ps).
    pub fn periods(&self) -> [u64; 4] {
        self.period_ps
    }

    #[inline]
    fn p(&self, d: ClockDomain) -> Time {
        self.period_ps[d as usize]
    }

    /// Delay of one ICN switch stage for a package to `addr`.
    /// Synchronous switches take one ICN-domain cycle; asynchronous
    /// (self-timed) switches take a continuous, data-dependent time —
    /// the §III-F GALS interconnect study.
    #[inline]
    fn hop_delay(&self, addr: u32, stage: u32) -> Time {
        match self.cfg.icn_timing {
            IcnTiming::Synchronous => self.p(ClockDomain::Icn),
            IcnTiming::Asynchronous { hop_ps, jitter_ps } => {
                if jitter_ps == 0 {
                    hop_ps.max(1)
                } else {
                    let h = (addr ^ stage.rotate_left(13)).wrapping_mul(0x9e37_79b9);
                    hop_ps.max(1) + (h as u64 % (jitter_ps + 1))
                }
            }
        }
    }

    fn apply_periods(&mut self, new: [u64; 4]) {
        if new == self.period_ps {
            return;
        }
        let now = self.sched.now();
        // Fold elapsed cluster cycles before the period changes.
        self.cycles_base = self.cycles_at(now);
        self.period_changed_at = now;
        self.period_ps = new;
        if let Some(o) = self.obs.as_deref_mut() {
            o.dvfs_epoch(now, new);
        }
        // New clock-period epoch: invalidate the precomputed route
        // offsets (only synchronous timing is period-dependent, but
        // period changes are rare and rebuilding is cheap) and bring the
        // in-flight express chains onto the new periods.
        self.route_cache.clear();
        self.reschedule_express_legs(now);
    }

    /// Recompute the not-yet-committed suffix of every in-flight express
    /// chain under the new periods, exactly as the per-hop walk would
    /// have: a stage whose predecessor event fired at or before `now` was
    /// scheduled under the old period (hop events run at `PRI_NEGOTIATE`,
    /// before the `PRI_SAMPLE` tick that changes periods), while every
    /// later stage re-decides its delay under the period in force when
    /// its predecessor fires. Legs whose end moved get a fresh
    /// generation and a new end event; the old event pops as a stale
    /// no-op.
    fn reschedule_express_legs(&mut self, now: Time) {
        for i in 0..self.express_legs.len() {
            let Some(leg) = self.express_legs[i].leg.as_ref() else {
                continue;
            };
            let n = leg.chain.len();
            // Timestamps increase along a chain, so the stages to
            // re-decide are a suffix.
            let Some(first) = (1..n).find(|&k| leg.chain.at(k - 1) > now) else {
                continue;
            };
            let addr = leg.req.addr;
            let mut times = leg.chain.to_vec();
            for k in first..n {
                times[k] = times[k - 1] + self.hop_delay(addr, (n - k) as u32);
            }
            let end = times[n - 1];
            let slot = &mut self.express_legs[i];
            let leg = slot.leg.as_mut().expect("leg checked above");
            if end != leg.chain.end() {
                leg.chain = HopChain::Explicit(times);
                slot.gen += 1;
                let gen = slot.gen;
                self.schedule_ev(end, PRI_NEGOTIATE, Ev::ExpressEnd { leg: i as u32, gen });
            }
        }
    }

    /// The per-hop timestamps of one express leg to `addr`, entered into
    /// the network at `start`. Jittered asynchronous cumulative offsets
    /// are cached per destination (they are the same for every package to
    /// `addr`); any other timing has one delay for every stage.
    fn express_chain(&mut self, addr: u32, start: Time, inbound: bool) -> HopChain {
        if let Some(hp) = self.host_profile.as_mut() {
            hp.express_legs += 1;
            hp.hops_elided += self.cfg.icn_oneway() as u64 - 1;
        }
        match self.cfg.icn_timing {
            IcnTiming::Asynchronous { jitter_ps, .. } if jitter_ps != 0 => {
                let offs = self.route_offsets(addr, inbound);
                HopChain::Explicit(offs.iter().map(|&o| start + o).collect())
            }
            _ => HopChain::Even {
                start,
                step: self.hop_delay(addr, 0),
                n: self.cfg.icn_oneway(),
            },
        }
    }

    /// The cached asynchronous cumulative stage offsets for `addr`
    /// (filling the per-destination cache on first use).
    fn route_offsets(&mut self, addr: u32, inbound: bool) -> &[Time] {
        /// Destinations cached before the table is dropped and rebuilt.
        const ROUTE_CACHE_CAP: usize = 1 << 16;
        let n = self.cfg.icn_oneway() as usize;
        if self.route_cache.len() >= ROUTE_CACHE_CAP {
            self.route_cache.clear();
        }
        if !self.route_cache.contains_key(&addr) {
            let mut inb = Vec::with_capacity(n);
            let mut out = Vec::with_capacity(n);
            inb.push(self.hop_delay(addr, 0));
            out.push(self.hop_delay(addr, u32::MAX));
            for k in 1..n {
                let d = self.hop_delay(addr, (n - k) as u32);
                inb.push(inb[k - 1] + d);
                out.push(out[k - 1] + d);
            }
            self.route_cache
                .insert(addr, (inb.into_boxed_slice(), out.into_boxed_slice()));
        }
        let (inb, out) = &self.route_cache[&addr];
        if inbound {
            inb
        } else {
            out
        }
    }

    /// Express-path replacement for the per-hop walk: put a leg whose
    /// whole `chain` was computed analytically in flight and schedule its
    /// single end event.
    fn express_launch(
        &mut self,
        tcu: u32,
        req: MemRequest,
        value: u32,
        inbound: bool,
        issued_at: Time,
        chain: HopChain,
    ) {
        let end = chain.end();
        let seq = self.leg_seq;
        self.leg_seq += 1;
        let leg = ExpressLeg {
            tcu,
            req,
            value,
            inbound,
            issued_at,
            seq,
            chain,
        };
        let slot = match self.legs_free.pop() {
            Some(s) => s,
            None => {
                self.express_legs.push(LegSlot::default());
                (self.express_legs.len() - 1) as u32
            }
        };
        self.express_legs[slot as usize].gen += 1;
        self.express_legs[slot as usize].leg = Some(leg);
        let gen = self.express_legs[slot as usize].gen;
        self.schedule_ev(end, PRI_NEGOTIATE, Ev::ExpressEnd { leg: slot, gen });
    }

    /// An express leg reached the end of its traversal: behave exactly
    /// like the per-hop model's `remaining == 0` hop event.
    fn express_end(&mut self, now: Time, slot: u32, gen: u64) {
        let entry = &mut self.express_legs[slot as usize];
        if entry.gen != gen {
            return; // stale: leg was rescheduled by a period change
        }
        let Some(leg) = entry.leg.take() else { return };
        self.legs_free.push(slot);
        debug_assert_eq!(leg.chain.end(), now);
        if leg.inbound {
            self.arrive(now, leg.tcu, leg.req, leg.issued_at);
        } else {
            // Register writeback cycle at the TCU.
            let done = now + self.p(ClockDomain::Cluster);
            self.complete_at(done, leg.tcu, leg.req, leg.value, leg.issued_at);
        }
    }

    // ---------------------------------------------------------------
    // Main loop
    // ---------------------------------------------------------------

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.schedule_ev(0, PRI_DEFAULT, Ev::MasterStep);
        if let Some(iv) = self.sample_interval {
            self.schedule_ev(iv, PRI_SAMPLE, Ev::Sample);
            self.next_sample_at = Some(iv);
        }
    }

    /// Run to completion (`halt`), a trap, deadlock, or the cycle limit.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        match self.run_inner()? {
            Outcome::Done(s) => Ok(s),
            Outcome::Checkpoint(_) => unreachable!("checkpoint not requested"),
        }
    }

    /// Run until the checkpoint cycle (if set), a halt, or an error.
    ///
    /// The loop drains the event list one `(time, priority)` *group* per
    /// iteration ([`Scheduler::pop_cycle`]): all events of one phase of one
    /// cycle come out of the calendar queue in a single bucket walk, in the
    /// same FIFO order repeated single pops would produce. Early exits in
    /// the middle of a batch (stop request, checkpoint boundary, `halt`)
    /// requeue the unhandled tail so pending/processed counts stay exact.
    pub(crate) fn run_inner(&mut self) -> Result<Outcome, SimError> {
        self.stop_requested = false; // a stop ends one call, not the run
        if self.shard_queues.is_empty() {
            self.run_inner_sequential()
        } else {
            self.run_inner_parallel()
        }
    }

    /// The sequential engine — also the differential oracle for
    /// [`EngineMode::Parallel`] (see `cycle::parallel`), so it must stay
    /// bit-identical to what it was before the parallel engine existed.
    fn run_inner_sequential(&mut self) -> Result<Outcome, SimError> {
        self.start();
        let mut batch: Vec<Ev> = Vec::new();
        loop {
            if self.stop_requested {
                return Ok(Outcome::Done(self.summary()));
            }
            let profile = self.host_profile.is_some();
            let obs_host = self.obs.as_deref().is_some_and(Obs::host_detail);
            let s0 = (profile || obs_host).then(std::time::Instant::now);
            let group = self.sched.pop_cycle(&mut batch);
            if let Some(s0) = s0 {
                let dt = s0.elapsed();
                let sched = self.sched_counters();
                if let Some(hp) = self.host_profile.as_mut() {
                    hp.sched_s += dt.as_secs_f64();
                    hp.sched = sched;
                }
                if obs_host {
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.sched_window(dt);
                    }
                }
            }
            let Some((now, pri)) = group else {
                return if self.machine.halted {
                    Ok(Outcome::Done(self.summary()))
                } else {
                    Err(SimError::Deadlock {
                        time: self.sched.now(),
                    })
                };
            };
            // Time is constant within a group, so one limit check covers
            // the whole batch.
            if let Some(limit) = self.max_cycles {
                let c = self.cycles_at(now);
                if c > limit {
                    return Err(SimError::CycleLimit { cycles: c });
                }
            }
            // Mid-flight checkpoint: stop *between* event groups, before
            // anything in this batch runs, and put the batch back intact
            // (in original order) so both the checkpoint and this
            // simulator's own continuation see an undisturbed queue.
            if let Some(target) = self.checkpoint_any_at {
                if self.cycles_at(now) >= target {
                    self.checkpoint_any_at = None;
                    self.requeue_tail(now, pri, &mut batch, 0);
                    return Ok(Outcome::Checkpoint(now));
                }
            }
            // Express leg-end events within one timestamp must run in the
            // order the per-hop walk would have produced (it is visible
            // through cache LRU state and downstream event seeding); the
            // scheduler's FIFO tie-break reflects *end*-scheduling order,
            // so re-sort by the per-hop tie-break key.
            if pri == PRI_NEGOTIATE && batch.len() > 1 && self.cfg.icn_model == IcnModel::Express {
                order_express_batch(&self.express_legs, &mut batch);
            }
            // Same-`(time, PRI_DEFAULT)` batches run in canonical order
            // (see `order_default_batch`): the scheduler's FIFO tie-break
            // reflects *insertion* order, which the burst issue model
            // changes (a burst schedules its step event early, at burst
            // start) without changing any event's time. Sorting both
            // issue models by the same total key makes the batch order a
            // function of the event set alone, so burst and per-instr
            // issue stay bit-identical through every FIFO-visible path
            // (`ps` interleavings, VC arbitration, psm service order).
            if pri == PRI_DEFAULT && batch.len() > 1 {
                order_default_batch(&mut batch);
            }
            let mut i = 0;
            while i < batch.len() {
                if i > 0 && self.stop_requested {
                    self.requeue_tail(now, pri, &mut batch, i);
                    return Ok(Outcome::Done(self.summary()));
                }
                // `Ev::Sample` is a cheap stand-in left in the handled
                // prefix; the vector is cleared before the next drain.
                let ev = std::mem::replace(&mut batch[i], Ev::Sample);
                i += 1;
                // Checkpoints are taken at quiescent master-step boundaries.
                if let (Some(target), Ev::MasterStep, None) =
                    (self.checkpoint_at, &ev, self.par.as_ref())
                {
                    if self.cycles_at(now) >= target && self.pending_total == 0 {
                        self.checkpoint_at = None;
                        // Keep this simulator resumable too: put the master
                        // step back so `run()` can continue from here.
                        self.schedule_ev(now, PRI_DEFAULT, Ev::MasterStep);
                        self.requeue_tail(now, pri, &mut batch, i);
                        return Ok(Outcome::Checkpoint(now));
                    }
                }
                let t0 = profile.then(std::time::Instant::now);
                let class = match &ev {
                    Ev::MasterStep | Ev::TcuStep(_) => 0u8,
                    Ev::Hop { .. }
                    | Ev::Service { .. }
                    | Ev::Complete { .. }
                    | Ev::ExpressEnd { .. } => 1,
                    _ => 2,
                };
                self.handle(now, ev)?;
                if let (Some(t0), Some(hp)) = (t0, self.host_profile.as_mut()) {
                    let dt = t0.elapsed().as_secs_f64();
                    match class {
                        0 => {
                            hp.compute_s += dt;
                            hp.compute_events += 1;
                        }
                        1 => {
                            hp.memory_s += dt;
                            hp.memory_events += 1;
                        }
                        _ => {
                            hp.other_s += dt;
                            hp.other_events += 1;
                        }
                    }
                }
                if self.machine.halted {
                    self.requeue_tail(now, pri, &mut batch, i);
                    return Ok(Outcome::Done(self.summary()));
                }
            }
        }
    }

    /// Put the unhandled tail of a drained batch back on the event list
    /// (in order, so relative FIFO order is preserved) when the run loop
    /// exits mid-group.
    fn requeue_tail(&mut self, time: Time, pri: Priority, batch: &mut Vec<Ev>, from: usize) {
        for ev in batch.drain(from..) {
            self.requeue_ev(time, pri, ev);
        }
        batch.clear();
    }

    /// The event list's traffic counters, summed over the shard queues.
    pub(crate) fn sched_counters(&self) -> SchedCounters {
        let mut sum = self.sched.counters;
        for q in &self.shard_queues {
            sum.groups += q.counters.groups;
            sum.partial_groups += q.counters.partial_groups;
            sum.lane_sorts += q.counters.lane_sorts;
            sum.overflow_events += q.counters.overflow_events;
            sum.max_pending += q.counters.max_pending;
            sum.chunks_allocated += q.counters.chunks_allocated;
        }
        sum
    }

    pub(crate) fn summary(&self) -> RunSummary {
        RunSummary {
            cycles: self.cycles(),
            time_ps: self.sched.now(),
            instructions: self.stats.instructions,
            events: self.sched.processed()
                + self.shard_queues.iter().map(|q| q.processed()).sum::<u64>(),
        }
    }

    fn handle(&mut self, now: Time, ev: Ev) -> Result<(), SimError> {
        match ev {
            Ev::MasterStep => self.master_step(now),
            Ev::TcuStep(t) => self.tcu_step(now, t, false),
            Ev::Hop {
                tcu,
                req,
                remaining,
                value,
                inbound,
                issued_at,
            } => {
                self.hop(now, tcu, req, remaining, value, inbound, issued_at);
                Ok(())
            }
            Ev::Service {
                tcu,
                req,
                done,
                issued_at,
            } => {
                self.service(now, tcu, req, done, issued_at);
                Ok(())
            }
            Ev::Complete {
                tcu,
                req,
                value,
                issued_at,
            } => self.complete(now, tcu, req, value, issued_at),
            Ev::BroadcastDone { body_pc } => {
                self.activate_tcus(now, body_pc);
                Ok(())
            }
            Ev::Sample => {
                self.sample(now);
                Ok(())
            }
            Ev::ExpressEnd { leg, gen } => {
                self.express_end(now, leg, gen);
                Ok(())
            }
        }
    }

    // ---------------------------------------------------------------
    // Master TCU
    // ---------------------------------------------------------------

    /// The master issue loop. While no parallel section is open the Master
    /// TCU is the only actor on the machine — spawn/join are full barriers
    /// (join waits for `pending_total == 0`), its functional units, cache
    /// and ICN port are its own, and its memory operations take functional
    /// effect at issue — so under [`IssueModel::Burst`] one step runs to
    /// the next point something *else* can observe: a non-empty `spawn`,
    /// `halt`, a sampling tick, a run limit or checkpoint target,
    /// `BURST_CAP`. An instruction is executed eagerly only when nothing
    /// can observe its issue instant `at` — see the break conditions.
    /// [`IssueModel::PerInstr`] is the same loop bounded at one
    /// instruction.
    fn master_step(&mut self, now: Time) -> Result<(), SimError> {
        if self.instr_limit_reached(now, Ev::MasterStep) {
            return Ok(());
        }
        let burst = self.burst_issue();
        let cap = if burst { BURST_CAP } else { 1 };
        let (mut at, mut len) = (now, 0u64);
        // `parked`: an event (a response, the join) restarts the master.
        let (reason, parked) = loop {
            if burst {
                (len, at) = self.replay(None, len, at, None);
            }
            if len >= cap {
                break (BurstBreak::Cap, false);
            }
            // The run loop made these checks for the step event itself.
            if len > 0 {
                if let Some(clip) = self.clip_at(at) {
                    break (clip, false);
                }
                if self.instrs_reached()
                    || (self.pending_total == 0
                        && self.checkpoint_at.is_some_and(|c| self.cycles_at(at) >= c))
                {
                    break (BurstBreak::Boundary, false);
                }
                // `halt` ends the run at its own issue instant.
                if matches!(self.exe.instr(self.master.pc), Some(Instr::Halt)) {
                    break (BurstBreak::NonLocal, false);
                }
            }
            let pc = self.master.pc;
            let issued = exec::issue(&self.exe, &mut self.master, &mut self.machine, Mode::Master);
            let issued = match issued {
                Ok(issued) => issued,
                // A trap surfaces at the trapping instruction's own issue
                // instant: `issue` moved nothing but the pc, so mid-burst
                // put it back and let the step scheduled below trap.
                Err(_) if len > 0 => {
                    self.master.pc = pc;
                    break (BurstBreak::NonLocal, false);
                }
                Err(trap) => return Err(trap.into()),
            };
            if let Some(tr) = &mut self.tracer {
                tr.record(TraceEvent::Issue {
                    time: at,
                    tcu: None,
                    pc,
                });
            }
            len += 1;
            let fu = match &issued {
                Issued::Done(cost) => fu_of_cost(*cost),
                Issued::Mem(_) => FuKind::Mem,
                _ => FuKind::Ctl,
            };
            self.stats.count_instr(fu, None);
            let next = match issued {
                // Private functional units (paper Fig. 1): a pure latency.
                Issued::Done(cost) => {
                    if matches!(cost, CostClass::Ps) {
                        self.stats.ps_ops += 1;
                    }
                    for f in &mut self.filters {
                        f.on_instr(pc, fu);
                    }
                    Ok(at + self.master_cost(cost))
                }
                Issued::Mem(req) => {
                    for f in &mut self.filters {
                        f.on_mem(&req);
                    }
                    self.master_mem(at, req, burst)
                }
                Issued::Spawn {
                    lo,
                    hi,
                    spawn_idx,
                    join_idx,
                } => self.begin_spawn(at, lo, hi, spawn_idx, join_idx),
                // Master memory ops are all blocking: nothing pending.
                Issued::Fence => Ok(at + self.p(ClockDomain::Cluster)),
                // `machine.halted` terminates the main loop.
                Issued::Halt => Err(BurstBreak::NonLocal),
                Issued::ChkidBlocked => return Err(Trap::ChkidOutsideSpawn { pc }.into()),
            };
            match next {
                Ok(t) => at = t,
                Err(reason) => break (reason, true),
            }
        };
        if let (true, Some(hp)) = (burst, self.host_profile.as_mut()) {
            hp.record_burst(len, reason);
        }
        if !parked {
            self.schedule_ev(at, PRI_DEFAULT, Ev::MasterStep);
        }
        Ok(())
    }

    /// A master memory operation issued at `now`. The master is only
    /// active while no TCU is, so the operation takes effect immediately
    /// and only its timing is modeled: `pref` is a nop (no prefetch
    /// buffer), master-cache hits are local, `psm` and misses travel the
    /// master's own ICN port to the shared cache modules (paper Fig. 1).
    /// `Ok(t)`: the master issues again at `t`; `Err`: when the response
    /// event arrives.
    fn master_mem(&mut self, now: Time, req: MemRequest, burst: bool) -> Result<Time, BurstBreak> {
        let value = exec::perform(&mut self.machine, &req);
        exec::complete(&mut self.master, &req, value);
        let cp = self.p(ClockDomain::Cluster);
        if req.kind == MemKind::Pref {
            return Ok(now + cp);
        } else if req.kind == MemKind::Psm {
            self.stats.psm_ops += 1;
        } else if self.master_cache.access(req.addr) {
            self.stats.master_hits += 1;
            return Ok(now + self.cfg.master_hit_latency as Time * cp);
        } else {
            self.stats.master_misses += 1;
        }
        let send = self.inject_time(now, self.cfg.clusters, req.addr); // master port row
        let back = if !burst || self.cfg.icn_model != IcnModel::Express {
            self.send_leg(MASTER_ID, req, 0, true, now, send);
            None
        } else {
            self.master_trip(now, send, req)
        };
        if let Some(hp) = self.host_profile.as_mut() {
            match back {
                Some(_) => hp.master_inline_trips += 1,
                None => hp.master_event_trips += 1,
            }
        }
        let back = back.ok_or(BurstBreak::Miss)?;
        self.stats.mem_wait_ps += back - now;
        Ok(back)
    }

    /// A master round trip entering the send network at `send`, walked on
    /// the stack — burst issue over the express ICN — through the timing
    /// code the events use, for as long as nothing can observe a stage's
    /// time; the first stage something can is made the event the oracle
    /// would have had (`None`), and the handlers take it from there.
    fn master_trip(&mut self, now: Time, send: Time, req: MemRequest) -> Option<Time> {
        let chain = self.express_chain(req.addr, send, true);
        if self.clip_at(chain.end()).is_some() {
            self.express_launch(MASTER_ID, req, 0, true, now, chain);
            return None;
        }
        let done = self.arrive_time(chain.end(), MASTER_ID, &req, now);
        if self.clip_at(done).is_some() {
            let ev = Ev::Service {
                tcu: MASTER_ID,
                req,
                done,
                issued_at: now,
            };
            self.schedule_ev(done, PRI_TRANSFER, ev);
            return None;
        }
        self.serviced(done, MASTER_ID, &req);
        let chain = self.express_chain(req.addr, done, false);
        if self.clip_at(chain.end()).is_some() {
            self.express_launch(MASTER_ID, req, 0, false, now, chain);
            return None;
        }
        let back = chain.end() + self.p(ClockDomain::Cluster); // writeback cycle
        if self.clip_at(back).is_some() {
            self.complete_at(back, MASTER_ID, req, 0, now);
            return None;
        }
        Some(back)
    }

    /// Can something outside the issuing context observe time `t` — the
    /// next sampling tick (also every DVFS `apply_periods` epoch), the
    /// cycle limit, a mid-flight checkpoint target? Step and memory events
    /// pop before a same-time tick (`PRI_SAMPLE` sorts last), so `t ==
    /// tick` is still unobserved; only crossing it clips.
    #[inline]
    fn clip_at(&self, t: Time) -> Option<BurstBreak> {
        if self.next_sample_at.is_some_and(|s| t > s) {
            Some(BurstBreak::Sample)
        } else if self.max_cycles.is_some_and(|l| self.cycles_at(t) > l)
            || self
                .checkpoint_any_at
                .is_some_and(|c| self.cycles_at(t) >= c)
        {
            Some(BurstBreak::Boundary)
        } else {
            None
        }
    }

    /// Fast-forward TCU `tcu` (`None`: the master) through pre-decoded
    /// blocks from burst state `(len, done)` up to cycle `stop`: replay
    /// applies the burst loops' break conditions per constituent, so on
    /// return their own checks reproduce the exact break. Filters observe
    /// every instruction, so any filter drops the burst back to interpreted
    /// issue (as the tracer drops it out of burst mode entirely).
    #[inline]
    fn replay(&mut self, tcu: Option<u32>, len: u64, done: Time, stop: Option<u64>) -> (u64, Time) {
        let pc = tcu.map_or(self.master.pc, |t| self.tcus[t as usize].ctx.pc);
        if !self.filters.is_empty() || !self.decode.as_ref().is_some_and(|dc| dc.replayable(pc)) {
            return (len, done);
        }
        let env = self.replay_env(tcu.is_none(), stop);
        let mut cur = Cursor::new(len, done);
        let ctx = match tcu {
            Some(t) => &mut self.tcus[t as usize].ctx,
            None => &mut self.master,
        };
        if let Some(dc) = self.decode.as_mut() {
            dc.replay(&self.exe, ctx, &env, &mut cur);
        }
        if cur.executed > 0 {
            self.merge_replay(&cur, tcu.map(|t| self.cfg.cluster_of(t)));
        }
        (cur.len, cur.done)
    }

    /// The window-constant burst break conditions, packaged for decoded
    /// replay. Replay checks them per constituent instruction, so a
    /// replayed burst stops at exactly the instruction the interpreted
    /// loop would refuse. `master` selects the master loop's extra
    /// quiescent-checkpoint clause ([`Self::master_step`]); the TCU
    /// loop stops at its instruction-limit `horizon` instead.
    fn replay_env(&self, master: bool, horizon: Option<u64>) -> ReplayEnv {
        ReplayEnv {
            cp: self.p(ClockDomain::Cluster),
            next_sample_at: self.next_sample_at,
            max_cycles: self.max_cycles,
            max_instrs: self.max_instrs,
            checkpoint_any_at: self.checkpoint_any_at,
            stop_cycle: if master {
                self.checkpoint_at.filter(|_| self.par.is_none() && self.pending_total == 0)
            } else {
                horizon
            },
            cycles_base: self.cycles_base,
            period_changed_at: self.period_changed_at,
            instrs_base: self.stats.instructions,
        }
    }

    /// Merge one replay call's execution deltas into the stats books —
    /// equivalent to per-instruction `count_instr` calls — and the host
    /// profile's decode counters.
    fn merge_replay(&mut self, cur: &Cursor, cluster: Option<u32>) {
        use crate::decode::{C_ALU, C_BR, C_CTL, C_SFT};
        self.stats
            .count_instr_bulk(FuKind::Alu, cluster, cur.counts[C_ALU]);
        self.stats
            .count_instr_bulk(FuKind::Sft, cluster, cur.counts[C_SFT]);
        self.stats
            .count_instr_bulk(FuKind::Br, cluster, cur.counts[C_BR]);
        self.stats
            .count_instr_bulk(FuKind::Ctl, cluster, cur.counts[C_CTL]);
        if let Some(hp) = self.host_profile.as_mut() {
            hp.blocks_decoded += cur.decoded;
            hp.block_replays += cur.replays;
            hp.replay_instrs += cur.executed;
            hp.fusions += cur.fused;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            if o.host_detail() {
                o.decode_replays(cur.replays);
            }
        }
    }

    /// Latency of an immediately-executed instruction on the master,
    /// which owns private functional units (paper Fig. 1).
    fn master_cost(&self, cost: CostClass) -> Time {
        let cp = self.p(ClockDomain::Cluster);
        let cycles = match cost {
            CostClass::Alu | CostClass::Sft | CostClass::Ctl | CostClass::Print => 1,
            CostClass::Branch { taken } => 1 + taken as u32,
            CostClass::Mul => self.cfg.mul_latency,
            CostClass::Div => self.cfg.div_latency,
            CostClass::FpAdd => self.cfg.fpu_add_latency,
            CostClass::FpMul => self.cfg.fpu_mul_latency,
            CostClass::FpDiv => self.cfg.fpu_div_latency,
            CostClass::FpMisc => self.cfg.fpu_misc_latency,
            CostClass::Ps => self.cfg.ps_latency,
        };
        cycles as Time * cp
    }

    // ---------------------------------------------------------------
    // TCUs
    // ---------------------------------------------------------------

    /// The TCU issue loop. A `TcuStep` enters it at `now`, and under burst
    /// issue so does a blocking completion (`resumed`), in place of the
    /// step it would schedule for the same instant (see `complete`). The
    /// first instruction issues whatever it is. Unless it parks the TCU —
    /// a blocking memory op, a failed `chkid`, a `fence` with operations
    /// pending — [`IssueModel::Burst`] then keeps executing pure local
    /// instructions, each only while nothing can observe its issue instant
    /// `at`: they touch only this TCU's private context, so concurrent
    /// events of other TCUs and the memory system cannot observe the eager
    /// execution (the canonical `order_default_batch` ordering covers the
    /// one exception, scheduler FIFO rank), and the section cannot close
    /// mid-burst because this TCU neither parks nor joins inside it.
    /// [`IssueModel::PerInstr`] is the loop bounded at one instruction.
    fn tcu_step(&mut self, now: Time, t: u32, resumed: bool) -> Result<(), SimError> {
        if !resumed && self.instr_limit_reached(now, Ev::TcuStep(t)) {
            return Ok(());
        }
        // Only a section's TCUs step (`try_resume` rejects the rest).
        let Some(hi) = self.par.map(|p| p.hi) else { return Ok(()) };
        let cluster = self.cfg.cluster_of(t);
        let pc = self.tcus[t as usize].ctx.pc;
        let ctx = &mut self.tcus[t as usize].ctx;
        let issued = match exec::issue(&self.exe, ctx, &mut self.machine, Mode::Parallel { hi }) {
            Ok(issued) => issued,
            // A trap surfaces at the oracle's own step: `issue` moved
            // nothing but the pc, so put it back and schedule that step.
            Err(_) if resumed => {
                self.tcus[t as usize].ctx.pc = pc;
                self.schedule_ev(now, PRI_DEFAULT, Ev::TcuStep(t));
                return Ok(());
            }
            Err(trap) => return Err(trap.into()),
        };
        if let Some(tr) = &mut self.tracer {
            tr.record(TraceEvent::Issue {
                time: now,
                tcu: Some(t),
                pc,
            });
        }
        let fu = match &issued {
            Issued::Done(cost) => fu_of_cost(*cost),
            Issued::Mem(_) => FuKind::Mem,
            Issued::ChkidBlocked => FuKind::Br,
            _ => FuKind::Ctl,
        };
        self.stats.count_instr(fu, Some(cluster));
        if let (true, Some(hp)) = (resumed, self.host_profile.as_mut()) {
            hp.completions_continued += 1;
        }
        // The burst proper starts at a `Done` first instruction (as the
        // host-profile books always had it), or else after it.
        let first_done = matches!(issued, Issued::Done(_));
        // When the TCU issues next, or `None` while it waits for an event.
        let next = match issued {
            Issued::Done(cost) => {
                if matches!(cost, CostClass::Ps) {
                    self.stats.ps_ops += 1;
                }
                for f in &mut self.filters {
                    f.on_instr(pc, fu);
                }
                Some(self.tcu_cost(now, cluster, cost))
            }
            Issued::Mem(req) => {
                for f in &mut self.filters {
                    f.on_mem(&req);
                }
                self.tcu_mem(now, t, cluster, req)
            }
            Issued::Fence if self.tcus[t as usize].pending == 0 => {
                Some(now + self.p(ClockDomain::Cluster))
            }
            Issued::Fence => {
                let tcu = &mut self.tcus[t as usize];
                tcu.fence_wait = true;
                tcu.fence_from = now;
                None
            }
            Issued::ChkidBlocked => {
                self.tcus[t as usize].parked = true;
                if let Some(par) = &mut self.par {
                    par.parked += 1;
                }
                if let Some(o) = self.obs.as_deref_mut() {
                    o.tcu_park(now, cluster, t);
                }
                self.maybe_join(now);
                None
            }
            // `issue` traps on both in parallel mode.
            Issued::Halt => return Err(Trap::HaltInParallel { pc }.into()),
            Issued::Spawn { .. } => return Err(Trap::SpawnInParallel { pc }.into()),
        };
        let Some(mut at) = next else { return Ok(()) };
        if self.burst_issue() {
            // Past the horizon the oracle might stop before an eager issue.
            let horizon = self.limit_horizon();
            let mut len = first_done as u64;
            let reason = loop {
                (len, at) = self.replay(Some(t), len, at, horizon);
                if len >= BURST_CAP {
                    break BurstBreak::Cap;
                }
                if let Some(clip) = self.clip_at(at) {
                    break clip;
                }
                if horizon.is_some_and(|c| self.cycles_at(at) >= c) {
                    break BurstBreak::Boundary;
                }
                let pc = self.tcus[t as usize].ctx.pc;
                let Some(cost) = exec::issue_local(&self.exe, &mut self.tcus[t as usize].ctx)
                else {
                    break BurstBreak::NonLocal;
                };
                let fu = fu_of_cost(cost);
                self.stats.count_instr(fu, Some(cluster));
                for f in &mut self.filters {
                    f.on_instr(pc, fu);
                }
                // Local cost classes never touch the shared-FU
                // timelines, so `tcu_cost` is a pure latency here.
                at = self.tcu_cost(at, cluster, cost);
                len += 1;
            };
            if let (true, Some(hp)) = (len > 0, self.host_profile.as_mut()) {
                hp.issues_continued += !first_done as u64;
                hp.record_tcu_burst(len, reason, &self.exe, self.tcus[t as usize].ctx.pc);
            }
        }
        self.schedule_ev(at, PRI_DEFAULT, Ev::TcuStep(t));
        Ok(())
    }

    /// Latency of an immediately-executed TCU instruction, arbitrating
    /// the cluster-shared MDU/FPU.
    fn tcu_cost(&mut self, now: Time, cluster: u32, cost: CostClass) -> Time {
        let cp = self.p(ClockDomain::Cluster);
        match cost {
            CostClass::Alu | CostClass::Sft | CostClass::Ctl | CostClass::Print => now + cp,
            CostClass::Branch { taken } => now + if taken { 2 } else { 1 } * cp,
            CostClass::Ps => now + self.cfg.ps_latency as Time * cp,
            CostClass::Mul => {
                // Pipelined: the shared MDU accepts one op per cycle.
                let start = now.max(self.mdu_free[cluster as usize]);
                self.mdu_free[cluster as usize] = start + cp;
                start + self.cfg.mul_latency as Time * cp
            }
            CostClass::Div => {
                // Unpipelined: the divider is busy for the whole op.
                let start = now.max(self.mdu_free[cluster as usize]);
                let lat = self.cfg.div_latency as Time * cp;
                self.mdu_free[cluster as usize] = start + lat;
                start + lat
            }
            CostClass::FpAdd | CostClass::FpMul | CostClass::FpMisc => {
                let lat = match cost {
                    CostClass::FpAdd => self.cfg.fpu_add_latency,
                    CostClass::FpMul => self.cfg.fpu_mul_latency,
                    _ => self.cfg.fpu_misc_latency,
                } as Time
                    * cp;
                let start = now.max(self.fpu_free[cluster as usize]);
                self.fpu_free[cluster as usize] = start + cp; // pipelined
                start + lat
            }
            CostClass::FpDiv => {
                let start = now.max(self.fpu_free[cluster as usize]);
                let lat = self.cfg.fpu_div_latency as Time * cp;
                self.fpu_free[cluster as usize] = start + lat;
                start + lat
            }
        }
    }

    /// Route a TCU memory request issued at `now`: `Some(t)`, the TCU
    /// issues again at `t`; `None`, it waits for the response.
    fn tcu_mem(&mut self, now: Time, t: u32, cluster: u32, req: MemRequest) -> Option<Time> {
        let cp = self.p(ClockDomain::Cluster);
        if req.kind == MemKind::Psm {
            self.stats.psm_ops += 1;
        }

        // Prefetch instruction: allocate a (pending) buffer entry, fetch
        // in the background, continue next cycle.
        if req.kind == MemKind::Pref {
            self.stats.prefetches += 1;
            // `Time::MAX` marks the entry as in flight until the fill
            // returns.
            self.tcus[t as usize].pbuf.insert(req.addr, Time::MAX);
            self.tcus[t as usize].pending += 1;
            self.pending_total += 1;
            self.inject(now, t, cluster, req);
            return Some(now + cp);
        }

        // Loads may hit the TCU prefetch buffer and skip the ICN.
        if matches!(req.kind, MemKind::LoadW | MemKind::LoadF) {
            if let Some(ready) = self.tcus[t as usize].pbuf.lookup(req.addr) {
                self.stats.prefetch_hits += 1;
                if ready == Time::MAX {
                    // Fill still in flight: park the load; it resumes
                    // when the prefetch completes.
                    self.pbuf_waiters
                        .entry((t, req.addr & !3))
                        .or_default()
                        .push((req, now));
                    return None;
                }
                let done = (now + cp).max(ready);
                let value = exec::perform(&mut self.machine, &req);
                self.complete_at(done, t, req, value, now);
                return None;
            }
        }

        // Read-only cache (cluster-level, constants).
        if req.kind == MemKind::LoadRo {
            if self.ro_caches[cluster as usize].access(req.addr) {
                self.stats.ro_hits += 1;
                let done = now + self.cfg.ro_hit_latency as Time * cp;
                let value = exec::perform(&mut self.machine, &req);
                self.complete_at(done, t, req, value, now);
                return None;
            }
            self.stats.ro_misses += 1;
            // Miss: falls through to the shared path (and the access
            // above already filled the tag for next time).
        }

        let blocking = req.kind.blocking();
        if !blocking {
            self.tcus[t as usize].pending += 1;
            self.pending_total += 1;
        }
        self.inject(now, t, cluster, req);
        (!blocking).then_some(now + cp)
    }

    /// Send a package into the interconnection network; it reaches its
    /// cache module as an `arrive` call.
    fn inject(&mut self, now: Time, tcu: u32, cluster: u32, req: MemRequest) {
        let send = self.inject_time(now, cluster, req.addr);
        self.send_leg(tcu, req, 0, true, now, send);
    }

    /// Book a package's way into the send network — one LS-unit cycle,
    /// then the per-(cluster, module) virtual channel (one package per ICN
    /// cycle) — and return when it enters the switch pipeline.
    fn inject_time(&mut self, now: Time, cluster: u32, addr: u32) -> Time {
        self.stats.icn_packages += 2; // request + response
        let vc = (cluster * self.cfg.cache_modules + self.cfg.module_of(addr)) as usize;
        let send = (now + self.p(ClockDomain::Cluster)).max(self.vc_free[vc]);
        self.vc_free[vc] = send + self.hop_delay(addr, 0);
        send
    }

    /// Make an event of one network traversal entered at `start`: the
    /// whole leg computed analytically ([`IcnModel::Express`]), or the
    /// package walked through the switch pipeline one event per stage
    /// (the paper's package-through-components model).
    fn send_leg(
        &mut self,
        tcu: u32,
        req: MemRequest,
        value: u32,
        inbound: bool,
        issued_at: Time,
        start: Time,
    ) {
        match self.cfg.icn_model {
            IcnModel::Express => {
                let chain = self.express_chain(req.addr, start, inbound);
                let end = chain.end();
                // A return leg's end only adds the writeback cycle, so it
                // ends in its completion unless a clip or an instruction-
                // limit stop could see the leg in flight (DESIGN §16).
                if inbound || self.clip_at(end).is_some() || self.limit_before(end) {
                    self.express_launch(tcu, req, value, inbound, issued_at, chain);
                } else {
                    if let Some(hp) = self.host_profile.as_mut() {
                        hp.legs_folded += 1;
                    }
                    let back = end + self.p(ClockDomain::Cluster); // writeback cycle
                    self.complete_at(back, tcu, req, value, issued_at);
                }
            }
            IcnModel::PerHop => {
                let first_hop = self.hop_delay(req.addr, if inbound { 0 } else { u32::MAX });
                self.schedule_ev(
                    start + first_hop,
                    PRI_NEGOTIATE,
                    Ev::Hop {
                        tcu,
                        req,
                        remaining: self.cfg.icn_oneway().saturating_sub(1),
                        value,
                        inbound,
                        issued_at,
                    },
                );
            }
        }
    }

    /// Schedule the arrival of a response back at its TCU.
    fn complete_at(&mut self, at: Time, tcu: u32, req: MemRequest, value: u32, issued_at: Time) {
        let ev = Ev::Complete {
            tcu,
            req,
            value,
            issued_at,
        };
        self.schedule_ev(at, PRI_DEFAULT, ev);
    }

    /// Advance a package one interconnect stage; deliver it at the end of
    /// its leg (module arrival inbound, TCU completion outbound).
    #[allow(clippy::too_many_arguments)]
    fn hop(
        &mut self,
        now: Time,
        tcu: u32,
        req: MemRequest,
        remaining: u32,
        value: u32,
        inbound: bool,
        issued_at: Time,
    ) {
        if remaining == 0 {
            if inbound {
                self.arrive(now, tcu, req, issued_at);
            } else {
                // Register writeback cycle at the TCU.
                let done = now + self.p(ClockDomain::Cluster);
                self.complete_at(done, tcu, req, value, issued_at);
            }
            return;
        }
        let delay = self.hop_delay(req.addr, remaining);
        self.schedule_ev(
            now + delay,
            PRI_NEGOTIATE,
            Ev::Hop {
                tcu,
                req,
                remaining: remaining - 1,
                value,
                inbound,
                issued_at,
            },
        );
    }

    /// A package arrives at its cache module and queues for service.
    fn arrive(&mut self, now: Time, tcu: u32, req: MemRequest, issued_at: Time) {
        let done = self.arrive_time(now, tcu, &req, issued_at);
        let ev = Ev::Service {
            tcu,
            req,
            done,
            issued_at,
        };
        self.schedule_ev(done, PRI_TRANSFER, ev);
    }

    /// Book a package arriving at its cache module at `now` and return
    /// when its service completes. Requests are served in arrival order:
    /// tag check, then (on a miss) a DRAM line fill.
    fn arrive_time(&mut self, now: Time, tcu: u32, req: &MemRequest, issued_at: Time) -> Time {
        let gp = self.p(ClockDomain::Cache);
        let dp = self.p(ClockDomain::Dram);
        let m = self.cfg.module_of(req.addr) as usize;
        self.stats.module_accesses[m] += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.mem_flight(tcu, tcu == MASTER_ID, m as u32, req.pc, issued_at, now);
            o.module_enqueue(m as u32, now);
        }

        let tag = now.max(self.module_free[m]);
        self.module_free[m] = tag + gp; // tag check pipelined

        let hit = self.modules[m].access(req.addr);
        let mut svc_end = if hit {
            self.stats.cache_hits += 1;
            tag + self.cfg.cache_hit_latency as Time * gp
        } else {
            self.stats.cache_misses += 1;
            self.stats.dram_accesses += 1;
            let ch = m % self.dram_free.len();
            let after_tag = tag + self.cfg.cache_hit_latency as Time * gp;
            let start = after_tag.max(self.dram_free[ch]);
            self.dram_free[ch] = start + self.cfg.dram_service as Time * dp;
            start + (self.cfg.dram_latency + self.cfg.dram_service) as Time * dp
        };
        // Chain behind any outstanding access to the same line (MSHR): a
        // tag hit under a miss must not overtake the fill.
        // Entries strictly before `now` can never raise a future service
        // end, so once the map grows past a bound, drop them before
        // inserting — long runs would otherwise keep one entry per line
        // ever touched. Entries *at* `now` must survive the prune: with
        // `cache_hit_latency = 0` an unconstrained hit has
        // `svc_end == tag == now`, and a same-instant arrival to the same
        // line still has to chain behind it (`max()` below) — pruning it
        // would let that arrival's service overtake the one just issued.
        if self.line_busy.len() >= self.line_busy_prune_at {
            self.line_busy_scanned += self.line_busy.len() as u64;
            self.line_busy.retain(|_, &mut t| t >= now);
            // Next when the table it already has is full — that costs no
            // memory — unless what is left nearly fills it: then the table
            // is about to grow anyway, and the next scan waits for as many
            // arrivals again.
            let (left, room) = (self.line_busy.len(), self.line_busy.capacity());
            let next = if room >= left + left / 4 { room } else { 2 * left };
            self.line_busy_prune_at = LINE_BUSY_PRUNE.max(next);
        }
        let line = req.addr / self.cfg.line_bytes;
        if let Some(&busy) = self.line_busy.get(&line) {
            svc_end = svc_end.max(busy);
        }
        self.line_busy.insert(line, svc_end);
        svc_end
    }

    /// A request reaches its cache module's service point: apply it to
    /// memory in service order and send the response into the return
    /// network.
    fn service(&mut self, now: Time, tcu: u32, req: MemRequest, done: Time, issued_at: Time) {
        debug_assert_eq!(done, now);
        let value = self.serviced(now, tcu, &req);
        self.send_leg(tcu, req, value, false, issued_at, now);
    }

    /// The effects of a service at `now`; returns the response value.
    fn serviced(&mut self, now: Time, tcu: u32, req: &MemRequest) -> u32 {
        if let Some(o) = self.obs.as_deref_mut() {
            let m = self.cfg.module_of(req.addr);
            o.module_dequeue(m, now);
        }
        if let Some(tr) = &mut self.tracer {
            tr.record(TraceEvent::Service {
                time: now,
                tcu,
                addr: req.addr,
                pc: req.pc,
            });
        }
        // Master packages already took functional effect at issue (the
        // master is never concurrent with TCUs).
        if tcu == MASTER_ID {
            0
        } else {
            exec::perform(&mut self.machine, req)
        }
    }

    /// A response arrives back at its TCU.
    fn complete(
        &mut self,
        now: Time,
        tcu: u32,
        req: MemRequest,
        value: u32,
        issued_at: Time,
    ) -> Result<(), SimError> {
        if let Some(tr) = &mut self.tracer {
            tr.record(TraceEvent::Complete {
                time: now,
                tcu,
                addr: req.addr,
                pc: req.pc,
            });
        }
        if tcu == MASTER_ID {
            self.stats.mem_wait_ps += now - issued_at;
            self.schedule_ev(now, PRI_DEFAULT, Ev::MasterStep);
            return Ok(());
        }
        if req.kind.blocking() {
            exec::complete(&mut self.tcus[tcu as usize].ctx, &req, value);
            self.stats.mem_wait_ps += now - issued_at;
            // The step scheduled here would run in the next same-instant
            // group, after the rest of this one — other TCUs' completions
            // only (steps sort first), whose effects commute with it — so
            // under burst issue it runs in place (DESIGN §16).
            if self.burst_issue() && self.cfg.one_issue_per_cycle() && !self.instrs_reached() {
                return self.tcu_step(now, tcu, true);
            }
            self.schedule_ev(now, PRI_DEFAULT, Ev::TcuStep(tcu));
        } else {
            self.tcus[tcu as usize].pending -= 1;
            self.pending_total -= 1;
            if req.kind == MemKind::Pref {
                // Mark the buffer entry filled and wake any load parked
                // on it.
                self.tcus[tcu as usize].pbuf.set_ready(req.addr, now);
                let cp = self.p(ClockDomain::Cluster);
                if let Some(waiters) = self.pbuf_waiters.remove(&(tcu, req.addr & !3)) {
                    for (wreq, wissued) in waiters {
                        let value = exec::perform(&mut self.machine, &wreq);
                        self.complete_at(now + cp, tcu, wreq, value, wissued);
                    }
                }
            }
            let state = &mut self.tcus[tcu as usize];
            if state.fence_wait && state.pending == 0 {
                state.fence_wait = false;
                self.stats.fence_wait_ps += now - state.fence_from;
                let done = now + self.p(ClockDomain::Cluster);
                self.schedule_ev(done, PRI_DEFAULT, Ev::TcuStep(tcu));
            }
            self.maybe_join(now);
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Sampling / plug-ins
    // ---------------------------------------------------------------

    fn sample(&mut self, now: Time) {
        let delta = stats_delta(&self.stats, &self.last_sample);
        self.last_sample = self.stats.clone();
        let mut ctl = RuntimeCtl {
            period_ps: self.period_ps,
            stop: false,
        };
        let mut acts = std::mem::take(&mut self.activities);
        {
            let sample = ActivitySample {
                now,
                stats: &self.stats,
                delta,
                period_ps: self.period_ps,
            };
            for a in &mut acts {
                a.sample(&sample, &mut ctl);
            }
        }
        self.activities = acts;
        if let Some(o) = self.obs.as_deref_mut() {
            o.sample_metrics(now, &self.stats);
        }
        self.apply_periods(ctl.period_ps);
        if ctl.stop {
            self.stop_requested = true;
        }
        self.next_sample_at = None;
        if let Some(iv) = self.sample_interval {
            if !self.machine.halted && !self.stop_requested {
                self.schedule_ev(now + iv, PRI_SAMPLE, Ev::Sample);
                self.next_sample_at = Some(now + iv);
            }
        }
    }

    // ---------------------------------------------------------------
    // Checkpoint support (see crate::checkpoint)
    // ---------------------------------------------------------------

    pub(crate) fn set_checkpoint_cycle(&mut self, cycle: u64) {
        self.checkpoint_at = Some(cycle);
    }

    pub(crate) fn set_checkpoint_any_cycle(&mut self, cycle: u64) {
        self.checkpoint_any_at = Some(cycle);
    }

    /// Jump simulated time forward by `dt` from a quiescent boundary
    /// (used by phase sampling): the only pending events are the
    /// re-scheduled master step and possibly a sampling tick, which are
    /// re-issued at the new time.
    pub(crate) fn skip_time(&mut self, dt: Time) {
        let t = self.sched.now() + dt;
        self.sched.clear();
        for q in &mut self.shard_queues {
            q.clear();
        }
        // Quiescent: no packages in flight; any leg slots (and the stale
        // end events `clear()` just dropped) can go.
        self.express_legs.clear();
        self.legs_free.clear();
        self.schedule_ev(t, PRI_DEFAULT, Ev::MasterStep);
        self.next_sample_at = None;
        if let Some(iv) = self.sample_interval {
            self.schedule_ev(t + iv, PRI_SAMPLE, Ev::Sample);
            self.next_sample_at = Some(t + iv);
        }
    }

    #[allow(clippy::type_complexity)]
    pub(crate) fn checkpoint_parts(
        &self,
    ) -> (
        &Machine,
        &ThreadCtx,
        &Vec<TcuState>,
        &Stats,
        [u64; 4],
        (u64, Time),
        (&[Time], &[Time], &[Time], &[Time], &[Time]),
        (&[CacheTags], &[CacheTags], &CacheTags),
        u64,
    ) {
        (
            &self.machine,
            &self.master,
            &self.tcus,
            &self.stats,
            self.period_ps,
            (self.cycles_base, self.period_changed_at),
            (
                &self.vc_free,
                &self.module_free,
                &self.dram_free,
                &self.mdu_free,
                &self.fpu_free,
            ),
            (&self.modules, &self.ro_caches, &self.master_cache),
            self.sched.now(),
        )
    }

    /// Capture everything beyond the quiescent machine state that a
    /// mid-flight checkpoint needs: the pending event list in exact pop
    /// order (with memory operations factored out into `mem_ops`) and
    /// the package-tracking side tables, all in deterministic (sorted)
    /// form — bit-identical across engine modes.
    pub(crate) fn inflight_snapshot(&self) -> InflightState {
        // Merge the per-shard pending queues into one global pop order.
        // Seqs come from the shared global counter (or the single
        // sequential queue), so sorting by `(time, pri, seq)` is exactly
        // the order a sequential drain would pop — the snapshot is
        // bit-identical across engine modes, and the seqs themselves
        // need not be saved (replay re-assigns fresh monotone ones).
        let mut pend = self.sched.pending_snapshot_seq();
        for q in &self.shard_queues {
            pend.extend(q.pending_snapshot_seq());
        }
        pend.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
        // In-flight memory operations go to `mem_ops`, keyed by their due
        // `(time, priority)` plus the per-class run-time tie-break —
        // reversed chain + creation rank for traversals, FIFO rank for
        // queued services, the canonical completion key for completions.
        // Stale (generation-mismatched) express ends are no-ops and are
        // dropped.
        type OpKey = (Time, Priority, Vec<Time>, u64, (u32, Time, u32, u32));
        fn rev_of(chain: &HopChain) -> Vec<Time> {
            (0..chain.len() - 1).rev().map(|k| chain.at(k)).collect()
        }
        let mut events = Vec::new();
        let mut ops: Vec<(OpKey, SavedMemOp)> = Vec::new();
        for (time, pri, seq, ev) in pend {
            match ev {
                Ev::ExpressEnd { leg, gen } => {
                    let slot = &self.express_legs[leg as usize];
                    if slot.gen == gen {
                        if let Some(l) = slot.leg.as_ref() {
                            ops.push((
                                (time, pri, rev_of(&l.chain), l.seq, (0, 0, 0, 0)),
                                SavedMemOp::Flight {
                                    tcu: l.tcu,
                                    req: l.req.clone(),
                                    value: l.value,
                                    inbound: l.inbound,
                                    issued_at: l.issued_at,
                                    chain: l.chain.to_vec(),
                                },
                            ));
                        }
                    }
                }
                Ev::Service {
                    tcu,
                    req,
                    done,
                    issued_at,
                } => ops.push((
                    (time, pri, Vec::new(), seq, (0, 0, 0, 0)),
                    SavedMemOp::Queued {
                        tcu,
                        req,
                        done,
                        issued_at,
                    },
                )),
                Ev::Complete {
                    tcu,
                    req,
                    value,
                    issued_at,
                } => ops.push((
                    (time, pri, Vec::new(), 0, (tcu, issued_at, req.addr, req.pc)),
                    SavedMemOp::Done {
                        tcu,
                        req,
                        value,
                        issued_at,
                        at: time,
                    },
                )),
                ev => events.push(SavedEvent { time, pri, ev }),
            }
        }
        ops.sort_by(|a, b| a.0.cmp(&b.0));
        let mem_ops = ops.into_iter().map(|(_, op)| op).collect();
        let mut pbuf_waiters: Vec<SavedWaiter> = self
            .pbuf_waiters
            .iter()
            .map(|(&(tcu, addr), w)| SavedWaiter {
                tcu,
                addr,
                waiters: w.clone(),
            })
            .collect();
        pbuf_waiters.sort_by_key(|w| (w.tcu, w.addr));
        InflightState {
            events,
            mem_ops,
            par: self.par,
            pending_total: self.pending_total,
            pbuf_waiters,
            line_busy: self.line_busy.iter().map(|(&k, &v)| (k, v)).collect(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_parts(
        &mut self,
        machine: Machine,
        master: ThreadCtx,
        tcus: Vec<TcuState>,
        stats: Stats,
        period_ps: [u64; 4],
        cycle_state: (u64, Time),
        timelines: (Vec<Time>, Vec<Time>, Vec<Time>, Vec<Time>, Vec<Time>),
        caches: (Vec<CacheTags>, Vec<CacheTags>, CacheTags),
        now: Time,
        inflight: InflightState,
    ) {
        self.machine = machine;
        self.master = master;
        self.tcus = tcus;
        self.stats = stats.clone();
        self.last_sample = stats;
        self.period_ps = period_ps;
        self.cycles_base = cycle_state.0;
        self.period_changed_at = cycle_state.1;
        self.vc_free = timelines.0;
        self.module_free = timelines.1;
        self.dram_free = timelines.2;
        self.mdu_free = timelines.3;
        self.fpu_free = timelines.4;
        self.modules = caches.0;
        self.ro_caches = caches.1;
        self.master_cache = caches.2;
        self.par = None;
        self.pending_total = 0;
        self.pbuf_waiters.clear();
        // Quiescent checkpoints have no packages in flight; stale line
        // times could only lower-bound future services with past times,
        // which max() ignores — safe to start empty.
        self.line_busy.clear();
        self.line_busy_prune_at = LINE_BUSY_PRUNE;
        self.express_legs.clear();
        self.legs_free.clear();
        self.leg_seq = 0;
        self.route_cache.clear();
        self.started = true;
        // The decode cache is a pure function of the (immutable) text:
        // checkpoints carry no decode state, and a restored simulator
        // rebuilds blocks deterministically on first replay.
        self.invalidate_decode();
        // `reset()`, not `clear()`: restoring may rewind to a time earlier
        // than this scheduler has reached, which `clear()` still rejects.
        self.sched.reset();
        for q in &mut self.shard_queues {
            q.reset();
        }
        self.global_seq = 0;
        self.next_sample_at = None;
        if inflight.is_quiescent() {
            // Resume from a quiescent master-step boundary.
            self.schedule_ev(now.max(1), PRI_DEFAULT, Ev::MasterStep);
            if let Some(iv) = self.sample_interval {
                self.schedule_ev(now.max(1) + iv, PRI_SAMPLE, Ev::Sample);
                self.next_sample_at = Some(now.max(1) + iv);
            }
        } else {
            // Mid-flight restore: replay the captured pending events in
            // their saved (pop) order — freshly assigned sequence numbers
            // are monotone in insertion order, so the pop order is
            // reproduced exactly — and rebuild the side tables.
            self.par = inflight.par;
            self.pending_total = inflight.pending_total;
            for w in inflight.pbuf_waiters {
                self.pbuf_waiters.insert((w.tcu, w.addr), w.waiters);
            }
            self.line_busy = inflight.line_busy.into_iter().collect();
            for se in inflight.events {
                // The burst clip boundary must survive a mid-flight
                // restore: the replayed event list carries at most one
                // pending sampling tick.
                if matches!(se.ev, Ev::Sample) {
                    self.next_sample_at = Some(match self.next_sample_at {
                        Some(cur) => cur.min(se.time),
                        None => se.time,
                    });
                }
                self.schedule_ev(se.time, se.pri, se.ev);
            }
            // Re-create the in-flight memory operations: the canonical
            // list order makes fresh seqs / slot indices rank-preserving.
            for op in inflight.mem_ops {
                match op {
                    SavedMemOp::Flight {
                        tcu,
                        req,
                        value,
                        inbound,
                        issued_at,
                        chain,
                    } => {
                        let chain = HopChain::Explicit(chain);
                        let end = chain.end();
                        let seq = self.leg_seq;
                        self.leg_seq += 1;
                        let slot = self.express_legs.len() as u32;
                        self.express_legs.push(LegSlot {
                            gen: 1,
                            leg: Some(ExpressLeg {
                                tcu,
                                req,
                                value,
                                inbound,
                                issued_at,
                                seq,
                                chain,
                            }),
                        });
                        self.schedule_ev(end, PRI_NEGOTIATE, Ev::ExpressEnd { leg: slot, gen: 1 });
                    }
                    SavedMemOp::Queued {
                        tcu,
                        req,
                        done,
                        issued_at,
                    } => self.schedule_ev(
                        done,
                        PRI_TRANSFER,
                        Ev::Service {
                            tcu,
                            req,
                            done,
                            issued_at,
                        },
                    ),
                    SavedMemOp::Done {
                        tcu,
                        req,
                        value,
                        issued_at,
                        at,
                    } => self.complete_at(at, tcu, req, value, issued_at),
                }
            }
        }
    }
}

/// Outcome of `run_inner`: finished, or paused at a checkpoint boundary.
pub(crate) enum Outcome {
    Done(RunSummary),
    Checkpoint(Time),
}

/// Order a same-`(time, PRI_NEGOTIATE)` batch of express leg-end events
/// the way the per-hop walk would have ordered its final hop events.
///
/// In the per-hop model an event's FIFO rank was assigned when the
/// *previous* stage fired, recursively: two final hops tie-break on where
/// their `remaining == 1` events fired, those on `remaining == 2`, and so
/// on — i.e. lexicographic order of the reversed chain-time vector
/// `(t_{n-1}, t_{n-2}, …, t_1)`, with a full tie falling back to
/// network-entry order ([`ExpressLeg::seq`]). Stale events (generation
/// mismatch, from DVFS rescheduling) are no-ops and sort to the end.
fn order_express_batch(legs: &[LegSlot], batch: &mut [Ev]) {
    fn leg_of<'a>(legs: &'a [LegSlot], ev: &Ev) -> Option<&'a ExpressLeg> {
        let &Ev::ExpressEnd { leg, gen } = ev else {
            return None;
        };
        let slot = &legs[leg as usize];
        if slot.gen == gen {
            slot.leg.as_ref()
        } else {
            None
        }
    }
    batch.sort_by(|a, b| match (leg_of(legs, a), leg_of(legs, b)) {
        (Some(la), Some(lb)) => {
            let n = la.chain.len().min(lb.chain.len());
            for i in (0..n.saturating_sub(1)).rev() {
                match la.chain.at(i).cmp(&lb.chain.at(i)) {
                    Ordering::Equal => continue,
                    o => return o,
                }
            }
            la.seq.cmp(&lb.seq)
        }
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => Ordering::Equal,
    });
}

/// Canonical total order for a same-`(time, PRI_DEFAULT)` batch: master
/// step, then TCU steps by TCU id, then memory completions by
/// `(tcu, issued_at, addr, pc)`. `(tcu, issued_at)` already identifies a
/// pending completion uniquely (a TCU issues at most one instruction per
/// timestamp), so the key is total over every batch either issue model
/// can produce; the sort is stable, leaving genuinely identical events in
/// arrival order. `PRI_TRANSFER`/`PRI_NEGOTIATE` groups are untouched —
/// their order is insertion-deterministic in both issue models (bursts
/// only move *step*-event insertion).
fn order_default_batch(batch: &mut [Ev]) {
    fn key(ev: &Ev) -> (u8, u32, Time, u32, u32) {
        match ev {
            Ev::MasterStep => (0, 0, 0, 0, 0),
            Ev::TcuStep(t) => (1, *t, 0, 0, 0),
            Ev::Complete {
                tcu,
                req,
                issued_at,
                ..
            } => (2, *tcu, *issued_at, req.addr, req.pc),
            _ => (3, 0, 0, 0, 0),
        }
    }
    batch.sort_by(|a, b| key(a).cmp(&key(b)));
}

fn fu_of_cost(cost: CostClass) -> xmt_isa::FuKind {
    match cost {
        CostClass::Alu => xmt_isa::FuKind::Alu,
        CostClass::Sft => xmt_isa::FuKind::Sft,
        CostClass::Branch { .. } => xmt_isa::FuKind::Br,
        CostClass::Mul | CostClass::Div => xmt_isa::FuKind::Mdu,
        CostClass::FpAdd | CostClass::FpMul | CostClass::FpDiv | CostClass::FpMisc => {
            xmt_isa::FuKind::Fpu
        }
        CostClass::Ps => xmt_isa::FuKind::Ps,
        CostClass::Print | CostClass::Ctl => xmt_isa::FuKind::Ctl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{AsmProgram, GlobalReg, Instr, MemoryMap, Target};

    /// The canonical compiler-shaped parallel section:
    /// ```text
    ///   spawn lo, hi
    /// Lloop:
    ///   li   t0, 1
    ///   ps   t0, gr0      # t0 = next virtual thread id
    ///   chkid t0          # park when id > hi
    ///   <body using t0 as $>
    ///   j Lloop
    ///   join
    /// ```
    fn parallel_increment_program(n: i32) -> (AsmProgram, MemoryMap) {
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![0; n as usize]);
        let mut p = AsmProgram::new();
        p.label("main");
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: n - 1,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        // A[$] = $ + 100
        p.push(Instr::Sll {
            rd: Reg::T1,
            rt: Reg::T0,
            sh: 2,
        });
        p.push(Instr::Add {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::S0,
        });
        p.push(Instr::Addi {
            rt: Reg::T2,
            rs: Reg::T0,
            imm: 100,
        });
        p.push(Instr::Swnb {
            rt: Reg::T2,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        (p, mm)
    }

    #[test]
    fn serial_loop_cycle_count_reasonable() {
        // 10-iteration ALU loop: cycles should be small and deterministic.
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 10,
        });
        p.label("l");
        p.push(Instr::Addi {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: -1,
        });
        p.push(Instr::Bgtz {
            rs: Reg::T0,
            target: Target::label("l"),
        });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        let s = sim.run().unwrap();
        assert_eq!(s.instructions, 22);
        // 1 li + 10 addi + 9 taken branches (2cy) + 1 untaken (1cy);
        // `halt` ends the run at its issue instant.
        assert_eq!(s.cycles, 1 + 10 + 9 * 2 + 1);
    }

    #[test]
    fn parallel_spawn_writes_all_elements() {
        let (p, mm) = parallel_increment_program(64);
        let exe = p.link(mm).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        let s = sim.run().unwrap();
        let a = sim.machine.read_symbol(sim.executable(), "A", 64).unwrap();
        let want: Vec<u32> = (0..64).map(|k| k + 100).collect();
        assert_eq!(a, want);
        assert_eq!(sim.stats.spawns, 1);
        assert_eq!(sim.stats.virtual_threads, 64);
        assert!(s.cycles > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (p, mm) = parallel_increment_program(32);
        let exe = p.link(mm).unwrap();
        let run = |exe: Executable| {
            let mut sim = CycleSim::new(exe, XmtConfig::tiny());
            sim.run().unwrap()
        };
        let a = run(exe.clone());
        let b = run(exe);
        assert_eq!(a, b);
    }

    #[test]
    fn more_tcus_means_fewer_cycles() {
        let (p, mm) = parallel_increment_program(128);
        let exe = p.link(mm).unwrap();
        let mut small = CycleSim::new(exe.clone(), XmtConfig::tiny()); // 4 TCUs
        let mut big = CycleSim::new(exe, XmtConfig::fpga64()); // 64 TCUs
        let cs = small.run().unwrap();
        let cb = big.run().unwrap();
        assert!(
            cb.cycles < cs.cycles,
            "64 TCUs ({}) should beat 4 TCUs ({})",
            cb.cycles,
            cs.cycles
        );
    }

    #[test]
    fn empty_spawn_range_skips_parallel_section() {
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 5,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 3,
        }); // hi < lo
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.push(Instr::J {
            target: Target::label("oops"),
        }); // body never runs
        p.push(Instr::Join);
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 7,
        });
        p.push(Instr::Print { rs: Reg::T0 });
        p.push(Instr::Halt);
        p.label("oops");
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        sim.run().unwrap();
        assert_eq!(sim.machine.output.ints(), vec![7]);
        assert_eq!(sim.stats.virtual_threads, 0);
    }

    /// An image whose spawn/join table lost an entry (only possible for
    /// one built by hand: the linker and the JSON reader both pair every
    /// spawn) traps at the spawn's own issue instant — under both issue
    /// models — instead of panicking.
    #[test]
    fn spawn_without_join_entry_traps() {
        let (p, mm) = parallel_increment_program(4);
        let mut exe = p.link(mm).unwrap();
        exe.spawn_join.clear();
        for model in [IssueModel::Burst, IssueModel::PerInstr] {
            let mut cfg = XmtConfig::tiny();
            cfg.issue_model = model;
            let mut sim = CycleSim::new(exe.clone(), cfg);
            let err = sim.run().unwrap_err();
            assert_eq!(err, SimError::Trap(Trap::UnmatchedSpawn { pc: 3 }));
            assert_eq!((sim.cycles(), sim.stats.instructions), (3, 3), "{model:?}");
        }
    }

    #[test]
    fn fence_waits_for_nonblocking_stores() {
        // One virtual thread: swnb then fence then load back — the load
        // must observe the store.
        let mut mm = MemoryMap::new();
        let a = mm.push("x", vec![0]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Li {
            rt: Reg::T1,
            imm: 99,
        });
        p.push(Instr::Swnb {
            rt: Reg::T1,
            base: Reg::S0,
            off: 0,
        });
        p.push(Instr::Fence);
        p.push(Instr::Lw {
            rt: Reg::T2,
            base: Reg::S0,
            off: 0,
        });
        p.push(Instr::Print { rs: Reg::T2 });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        let exe = p.link(mm).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        sim.run().unwrap();
        assert_eq!(sim.machine.output.ints(), vec![99]);
        assert!(sim.stats.fence_wait_ps > 0);
    }

    #[test]
    fn psm_serializes_concurrent_increments() {
        // All 64 virtual threads psm-increment one counter; the final
        // value must be exact and every thread must see a distinct old
        // value.
        let mut mm = MemoryMap::new();
        let c = mm.push("ctr", vec![0]);
        let seen = mm.push("seen", vec![0; 64]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 63,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: c as i32,
        });
        p.push(Instr::Li {
            rt: Reg::S1,
            imm: seen as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Li {
            rt: Reg::T1,
            imm: 1,
        });
        p.push(Instr::Psm {
            rt: Reg::T1,
            base: Reg::S0,
            off: 0,
        });
        // seen[old] = 1
        p.push(Instr::Sll {
            rd: Reg::T2,
            rt: Reg::T1,
            sh: 2,
        });
        p.push(Instr::Add {
            rd: Reg::T2,
            rs: Reg::T2,
            rt: Reg::S1,
        });
        p.push(Instr::Li {
            rt: Reg::T3,
            imm: 1,
        });
        p.push(Instr::Swnb {
            rt: Reg::T3,
            base: Reg::T2,
            off: 0,
        });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        let exe = p.link(mm).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::fpga64());
        sim.run().unwrap();
        assert_eq!(
            sim.machine.read_symbol(sim.executable(), "ctr", 1).unwrap(),
            vec![64]
        );
        let seen = sim
            .machine
            .read_symbol(sim.executable(), "seen", 64)
            .unwrap();
        assert_eq!(
            seen,
            vec![1; 64],
            "every old value 0..63 observed exactly once"
        );
        assert_eq!(sim.stats.psm_ops, 64);
    }

    #[test]
    fn deadlock_detected_when_not_halting() {
        let mut p = AsmProgram::new();
        p.push(Instr::Nop); // runs off the end without halting -> trap
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::Trap(Trap::PcOutOfRange { pc: 1 })));
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut p = AsmProgram::new();
        p.label("l");
        p.push(Instr::J {
            target: Target::label("l"),
        });
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        sim.set_cycle_limit(1000);
        let err = sim.run().unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { .. }));
    }

    #[test]
    fn prefetch_hit_skips_icn_round_trip() {
        // Two identical loads; the second program prefetches first.
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![42]);
        let build = |prefetch: bool| {
            let mut p = AsmProgram::new();
            p.push(Instr::Li {
                rt: Reg::A0,
                imm: 0,
            });
            p.push(Instr::Li {
                rt: Reg::A1,
                imm: 0,
            });
            p.push(Instr::Li {
                rt: Reg::S0,
                imm: a as i32,
            });
            p.push(Instr::Spawn {
                lo: Reg::A0,
                hi: Reg::A1,
            });
            p.label("vt");
            p.push(Instr::Li {
                rt: Reg::T0,
                imm: 1,
            });
            p.push(Instr::Ps {
                rt: Reg::T0,
                gr: GlobalReg::THREAD_ALLOC,
            });
            p.push(Instr::Chkid { rt: Reg::T0 });
            if prefetch {
                p.push(Instr::Pref {
                    base: Reg::S0,
                    off: 0,
                });
                // Useful work overlapping the prefetch.
                for _ in 0..30 {
                    p.push(Instr::Addi {
                        rt: Reg::T5,
                        rs: Reg::T5,
                        imm: 1,
                    });
                }
            } else {
                for _ in 0..30 {
                    p.push(Instr::Addi {
                        rt: Reg::T5,
                        rs: Reg::T5,
                        imm: 1,
                    });
                }
            }
            p.push(Instr::Lw {
                rt: Reg::T1,
                base: Reg::S0,
                off: 0,
            });
            p.push(Instr::J {
                target: Target::label("vt"),
            });
            p.push(Instr::Join);
            p.push(Instr::Halt);
            p
        };
        let run = |p: AsmProgram, mm: MemoryMap| {
            let exe = p.link(mm).unwrap();
            let mut sim = CycleSim::new(exe, XmtConfig::tiny());
            let s = sim.run().unwrap();
            (s.cycles, sim.stats.prefetch_hits)
        };
        let (base_cycles, base_hits) = run(build(false), mm.clone());
        let (pf_cycles, pf_hits) = run(build(true), mm);
        assert_eq!(base_hits, 0);
        assert_eq!(pf_hits, 1);
        assert!(
            pf_cycles < base_cycles,
            "prefetching ({pf_cycles}) should beat blocking load ({base_cycles})"
        );
    }

    #[test]
    fn load_parked_on_inflight_prefetch_resumes() {
        // Load issued immediately after the prefetch (no overlap work):
        // it must park on the in-flight fill and still complete with the
        // right value, no slower than the blocking load would be.
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![4242]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        p.push(Instr::Pref {
            base: Reg::S0,
            off: 0,
        });
        p.push(Instr::Lw {
            rt: Reg::T1,
            base: Reg::S0,
            off: 0,
        });
        p.push(Instr::Print { rs: Reg::T1 });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        let exe = p.link(mm).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        sim.run().unwrap();
        assert_eq!(sim.machine.output.ints(), vec![4242]);
        assert_eq!(sim.stats.prefetch_hits, 1);
    }

    #[test]
    fn dvfs_slowdown_increases_time_not_cycles() {
        use crate::stats::{ActivityPlugin, ActivitySample, RuntimeCtl};
        // A plug-in that halves the cluster frequency at the first sample.
        struct Halver(bool);
        impl ActivityPlugin for Halver {
            fn sample(&mut self, _s: &ActivitySample<'_>, ctl: &mut RuntimeCtl) {
                if !self.0 {
                    self.0 = true;
                    ctl.scale_frequency(ClockDomain::Cluster, 0.5);
                }
            }
        }
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 3000,
        });
        p.label("l");
        p.push(Instr::Addi {
            rt: Reg::T0,
            rs: Reg::T0,
            imm: -1,
        });
        p.push(Instr::Bgtz {
            rs: Reg::T0,
            target: Target::label("l"),
        });
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();

        let mut plain = CycleSim::new(exe.clone(), XmtConfig::tiny());
        let sp = plain.run().unwrap();

        let mut dvfs = CycleSim::new(exe, XmtConfig::tiny());
        dvfs.add_activity(Box::new(Halver(false)), 100);
        let sd = dvfs.run().unwrap();

        // Same instruction count; wall-clock (ps) roughly doubles while
        // the cycle count stays equal (work per cycle is unchanged).
        assert_eq!(sp.instructions, sd.instructions);
        // Equal up to one cycle of truncation at the period switch.
        assert!(sd.cycles.abs_diff(sp.cycles) <= 1);
        assert!(sd.time_ps > sp.time_ps * 3 / 2);
    }

    /// The self-timed hop delay is a pure function of `(addr, stage)`:
    /// pinned golden values (so the hash can never drift silently — the
    /// express chains and any saved checkpoint depend on it), and stable
    /// across separate simulator instances including one whose config
    /// went through a JSON save/restore round trip.
    #[test]
    fn hop_delay_async_jitter_is_pinned_and_stable() {
        use xmt_harness::{FromJson, ToJson};
        let mut cfg = XmtConfig::tiny();
        cfg.icn_timing = IcnTiming::Asynchronous {
            hop_ps: 1000,
            jitter_ps: 700,
        };
        let exe = parallel_increment_program(4)
            .0
            .link(MemoryMap::new())
            .unwrap();
        let sim = CycleSim::new(exe.clone(), cfg.clone());

        // Golden values of hop_ps.max(1) + hash(addr, stage) % (jitter+1).
        for (addr, stage, want) in [
            (0x40u32, 0u32, 1488u64),
            (0x40, u32::MAX, 1248),
            (0x1234, 3, 1283),
            (0xABCD, 7, 1405),
            (0x40, 1, 1600),
            (0x40, 2, 1011),
        ] {
            assert_eq!(
                sim.hop_delay(addr, stage),
                want,
                "hash drifted at ({addr:#x},{stage})"
            );
        }

        // Same delays from a second instance and from a config that was
        // serialized and parsed back (the checkpoint path for configs).
        let json = cfg.to_json_string();
        let cfg2 = XmtConfig::from_json_str(&json).unwrap();
        let sim2 = CycleSim::new(exe, cfg2);
        for addr in (0..4096u32).step_by(97) {
            for stage in [0, 1, 2, 5, 9, u32::MAX] {
                assert_eq!(sim.hop_delay(addr, stage), sim2.hop_delay(addr, stage));
            }
        }
    }

    /// 4 virtual threads × 512 lines each = 2048 distinct lines — twice
    /// `LINE_BUSY_PRUNE`.
    fn streaming_scan_program() -> Executable {
        const LINES_PER_THREAD: i32 = 512;
        let line = XmtConfig::tiny().line_bytes as i32;
        let words = (4 * LINES_PER_THREAD * line / 4) as usize;
        let mut mm = MemoryMap::new();
        let a = mm.push("A", vec![0; words]);
        let mut p = AsmProgram::new();
        p.push(Instr::Li {
            rt: Reg::A0,
            imm: 0,
        });
        p.push(Instr::Li {
            rt: Reg::A1,
            imm: 3,
        });
        p.push(Instr::Li {
            rt: Reg::S0,
            imm: a as i32,
        });
        p.push(Instr::Spawn {
            lo: Reg::A0,
            hi: Reg::A1,
        });
        p.label("vt");
        p.push(Instr::Li {
            rt: Reg::T0,
            imm: 1,
        });
        p.push(Instr::Ps {
            rt: Reg::T0,
            gr: GlobalReg::THREAD_ALLOC,
        });
        p.push(Instr::Chkid { rt: Reg::T0 });
        // T1 = &A[0] + $ * LINES_PER_THREAD * line_bytes
        p.push(Instr::Li {
            rt: Reg::T2,
            imm: LINES_PER_THREAD * line,
        });
        p.push(Instr::Mul {
            rd: Reg::T1,
            rs: Reg::T0,
            rt: Reg::T2,
        });
        p.push(Instr::Add {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::S0,
        });
        p.push(Instr::Li {
            rt: Reg::T3,
            imm: LINES_PER_THREAD,
        });
        p.label("scan");
        p.push(Instr::Lw {
            rt: Reg::T4,
            base: Reg::T1,
            off: 0,
        });
        p.push(Instr::Addi {
            rt: Reg::T1,
            rs: Reg::T1,
            imm: line,
        });
        p.push(Instr::Addi {
            rt: Reg::T3,
            rs: Reg::T3,
            imm: -1,
        });
        p.push(Instr::Bgtz {
            rs: Reg::T3,
            target: Target::label("scan"),
        });
        p.push(Instr::J {
            target: Target::label("vt"),
        });
        p.push(Instr::Join);
        p.push(Instr::Halt);
        p.link(mm).unwrap()
    }

    /// Streaming far more distinct cache lines than `LINE_BUSY_PRUNE`
    /// keeps the MSHR chain map bounded: settled entries are dropped on
    /// insert instead of accumulating one per line ever touched.
    #[test]
    fn line_busy_map_stays_bounded_on_streaming_scans() {
        let exe = streaming_scan_program();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        sim.run().unwrap();
        assert!(
            sim.stats.cache_misses >= 2048,
            "scan must touch >1500 distinct lines (got {} misses)",
            sim.stats.cache_misses
        );
        // Without pruning the map would hold ~2048 entries (one per line).
        assert!(
            sim.line_busy.len() <= 1100,
            "line_busy grew unboundedly: {} entries",
            sim.line_busy.len()
        );
    }

    /// Regression: with `cache_hit_latency = 0` a hit completes at the
    /// arrival instant, so its MSHR entry sits at exactly `now`. The
    /// prune must keep entries *at* `now` (`t >= now`, not `t > now`):
    /// a same-instant arrival to that line still has to find the entry
    /// and chain behind it, or its service could overtake the fill.
    #[test]
    fn line_busy_prune_keeps_same_instant_entries_at_zero_hit_latency() {
        let mut cfg = XmtConfig::tiny();
        cfg.cache_hit_latency = 0;
        let mut p = AsmProgram::new();
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, cfg);

        let now: Time = 50_000;
        // Arm the prune: well past the 1024-entry threshold, all stale.
        for k in 0..1200u32 {
            sim.line_busy.insert(0x1000 + k, now - 1);
        }
        // One in-flight fill ending strictly after `now`, and one
        // zero-latency hit that completed at exactly `now` — the
        // boundary case the old `t > now` prune dropped.
        let future_line = 0x10u32;
        let boundary_line = 0x11u32;
        sim.line_busy.insert(future_line, now + 700);
        sim.line_busy.insert(boundary_line, now);

        // An unrelated arrival triggers the prune on insert.
        let req = MemRequest {
            kind: MemKind::LoadW,
            addr: 0x20 * sim.cfg.line_bytes,
            dst_i: Some(Reg::T0),
            dst_f: None,
            value: 0,
            pc: 0,
        };
        sim.arrive(now, 0, req, now);

        assert!(
            sim.line_busy.contains_key(&boundary_line),
            "prune dropped the same-instant MSHR entry (t == now)"
        );
        assert!(sim.line_busy.contains_key(&future_line));
        // Stale entries really were dropped (the prune still works).
        assert!(
            sim.line_busy.len() <= 4,
            "stale entries survived the prune: {} left",
            sim.line_busy.len()
        );

        // And the surviving entry is actually consulted: a same-instant
        // arrival to that line chains behind an in-flight service end.
        sim.line_busy.insert(boundary_line, now + 900);
        let req2 = MemRequest {
            kind: MemKind::LoadW,
            addr: boundary_line * sim.cfg.line_bytes,
            dst_i: Some(Reg::T0),
            dst_f: None,
            value: 0,
            pc: 0,
        };
        sim.arrive(now, 1, req2, now);
        assert!(
            sim.line_busy[&boundary_line] >= now + 900,
            "same-line arrival failed to chain behind the in-flight fill"
        );
    }

    /// With more than `LINE_BUSY_PRUNE` lines busy at once no prune can
    /// drop anything; the threshold then moves up with the map instead
    /// of rescanning all of it on every arrival, so the entries visited
    /// stay linear in the arrivals.
    #[test]
    fn line_busy_prune_is_amortised_when_many_lines_stay_busy() {
        let mut p = AsmProgram::new();
        p.push(Instr::Halt);
        let exe = p.link(MemoryMap::new()).unwrap();
        let mut sim = CycleSim::new(exe, XmtConfig::tiny());
        let now: Time = 50_000;
        let arrivals = 8 * LINE_BUSY_PRUNE as u32;
        for k in 0..arrivals {
            let req = MemRequest {
                kind: MemKind::LoadW,
                addr: k * sim.cfg.line_bytes,
                dst_i: Some(Reg::T0),
                dst_f: None,
                value: 0,
                pc: 0,
            };
            // Every access misses, so its line stays busy past `now`.
            sim.arrive(now, 0, req, now);
        }
        assert_eq!(sim.line_busy.len(), arrivals as usize, "nothing had settled");
        assert!(
            sim.line_busy_scanned <= 2 * arrivals as u64,
            "{} entries rescanned for {arrivals} arrivals",
            sim.line_busy_scanned
        );
    }
}
