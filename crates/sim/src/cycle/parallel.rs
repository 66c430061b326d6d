//! The sharded parallel cycle engine ([`EngineMode::Parallel`]).
//!
//! [`EngineMode::Parallel`]: crate::config::EngineMode::Parallel
//! [`Scheduler`]: crate::engine::Scheduler
//!
//! The cycle model is partitioned into conservatively-synchronized
//! shards: each worker shard owns a contiguous range of clusters (and the
//! matching slice of cache modules), shard 0 — the coordinator's own
//! queue — owns the master TCU, spawn control, sampling and the
//! interconnect. Every shard runs its own calendar-queue [`Scheduler`];
//! the shards advance in lock-step *windows*, where one window is one
//! global `(time, priority)` event group — the same granularity the
//! sequential engine drains with `pop_cycle`. The lookahead bound is
//! therefore zero: nothing inside a window can schedule an event before
//! the window's own timestamp (`schedule_at` asserts this), so draining
//! the globally-minimal group from every shard at the barrier is always
//! safe, exactly as in classical conservative (Chandy–Misra–Bryant style)
//! parallel discrete-event simulation — with the window barrier standing
//! in for null messages.
//!
//! Determinism is *by construction*, not by luck:
//!
//! * every insertion carries a **global** sequence number
//!   ([`CycleSim::schedule_ev`]), so the cross-shard merge of a window is
//!   bit-for-bit the FIFO order one sequential queue would have produced,
//!   and the existing canonical `(time, priority, seq)` total order — plus
//!   the same `order_express_batch` / `order_default_batch` re-sorts —
//!   resolves same-window cross-shard ties identically in both engines;
//! * worker threads only ever run **phase A**: compute bursts of *pure
//!   local* instructions (`exec::issue_local` — the same single
//!   implementation `exec::issue` delegates to) on disjoint slices of the
//!   TCU array, returning per-task stat deltas. Everything with shared
//!   state — memory packages, the master, spawn control — is **phase B**,
//!   run by the coordinator alone, interleaved with phase-A commits in
//!   canonical batch order. Since a burstable instruction touches nothing
//!   but its own TCU's registers and pc, precomputing it from
//!   window-start state equals executing it at its canonical position;
//! * the coordinator blocks until every worker has returned before it
//!   commits anything, so there is no cross-thread timing visibility at
//!   all — only the partitioning of work.
//!
//! The result: identical cycles, simulated time, statistics JSON and
//! machine image for any thread count, enforced continuously by
//! `differential::run_all_engines` and the cross-engine fuzzer.

use super::{BurstBreak, CycleSim, Ev, Outcome, SimError, TcuState, BURST_CAP};
use crate::config::{ClockDomain, IcnModel};
use crate::decode::{Cursor, DecodeCache, ReplayEnv};
use crate::engine::{Priority, Time, PRI_DEFAULT, PRI_NEGOTIATE};
use crate::exec::{self, CostClass};
use crate::machine::ThreadCtx;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use xmt_isa::{Executable, FuKind};

/// Minimum burstable step events in a window before phase A is worth a
/// barrier round-trip. Kept low so even the fuzzer's tiny configurations
/// exercise the offload path.
const MIN_OFFLOAD_TASKS: usize = 2;

/// Window-constant inputs a worker needs to replay `tcu_step`'s burst break
/// conditions exactly (the instruction-limit check is excluded by the
/// offload headroom guard, which proves it false for the whole window).
#[derive(Clone, Copy)]
struct BurstParams {
    /// The window timestamp (burst start).
    now: Time,
    /// The cluster clock period in force (constant within a window:
    /// DVFS changes happen in `PRI_SAMPLE` groups).
    cp: Time,
    next_sample_at: Option<Time>,
    max_cycles: Option<u64>,
    checkpoint_any_at: Option<u64>,
    cycles_base: u64,
    period_changed_at: Time,
    horizon: Option<u64>,
}

impl BurstParams {
    /// `CycleSim::cycles_at` from window-constant state.
    fn cycles_at(&self, t: Time) -> u64 {
        self.cycles_base + (t - self.period_changed_at) / self.cp
    }
}

/// One offloaded step event: position in the canonical batch + TCU.
struct StepTask {
    idx: usize,
    tcu: u32,
}

/// A completed phase-A burst, ready to commit at batch position `idx`.
struct StepDone {
    idx: usize,
    tcu: u32,
    /// Aggregate completion time of the burst (next step event time).
    done: Time,
    /// Instructions folded into the burst (host-profile bookkeeping).
    len: u64,
    reason: BurstBreak,
    /// Instructions by functional unit: `[Alu, Sft, Br, Ctl]` — the only
    /// classes a pure-local instruction can be.
    counts: [u64; 4],
    /// Decoded-block replays performed (host-profile bookkeeping).
    replays: u64,
    /// Constituents executed via replay rather than `issue_local`.
    replay_instrs: u64,
    /// Fused superinstructions executed whole during replay.
    fused: u64,
}

/// Base pointer of the TCU array, shipped to a worker together with the
/// index range it may touch.
///
/// SAFETY: the coordinator sends each window's tasks partitioned by
/// shard, every TCU index appears in at most one task (a TCU has at most
/// one pending step event), and the coordinator does not touch `tcus` —
/// or any other `&mut self` state — between sending the commands and
/// receiving every worker's reply (the `recv` loop is the barrier). The
/// array itself never reallocates during a run (its length is fixed at
/// construction). Exclusive access is therefore guaranteed temporally.
struct TcuPtr(*mut TcuState);

unsafe impl Send for TcuPtr {}

/// Shared read-only view of the coordinator's decode cache for the
/// duration of one phase-A barrier.
///
/// SAFETY: same temporal-exclusivity argument as [`TcuPtr`] — the
/// coordinator pre-warms the cache *before* sending commands and touches
/// no `&mut self` state (so no cache mutation) until every worker has
/// replied; workers only call the `&self` lookup path
/// ([`DecodeCache::replay_shared`]), never decode-on-miss.
struct CachePtr(*const DecodeCache);

unsafe impl Send for CachePtr {}

/// One phase-A work order: run every task's burst on the slice
/// `base[lo..hi]` and reply with the results.
struct WorkerCmd {
    base: TcuPtr,
    lo: usize,
    hi: usize,
    params: BurstParams,
    /// The coordinator's decode cache, pre-warmed for this window's task
    /// pcs; `None` under `DecodeMode::Off`.
    cache: Option<CachePtr>,
    tasks: Vec<StepTask>,
}

/// Worker thread body: serve phase-A commands until the command channel
/// closes (end of the run).
fn worker_loop(exe: &Executable, rx: Receiver<WorkerCmd>, tx: Sender<Vec<StepDone>>) {
    while let Ok(cmd) = rx.recv() {
        // SAFETY: see `CachePtr` — read-only and unmutated until every
        // worker has replied.
        let cache = cmd.cache.as_ref().map(|c| unsafe { &*c.0 });
        let mut out = Vec::with_capacity(cmd.tasks.len());
        for task in &cmd.tasks {
            let i = task.tcu as usize;
            debug_assert!(
                cmd.lo <= i && i < cmd.hi,
                "task outside this worker's shard"
            );
            // SAFETY: see `TcuPtr` — unique for the barrier's duration.
            let st = unsafe { &mut *cmd.base.0.add(i) };
            out.push(burst_local(exe, &mut st.ctx, &cmd.params, cache, task));
        }
        if tx.send(out).is_err() {
            break;
        }
    }
}

/// Latency of a pure-local instruction — `CycleSim::tcu_cost` restricted
/// to the classes `exec::issue_local` can return, where it is a pure
/// function (no shared-FU timeline arbitration).
fn local_cost(cost: CostClass, cp: Time) -> Time {
    match cost {
        CostClass::Branch { taken: true } => 2 * cp,
        // Alu / Sft / Ctl / untaken branch: one cluster cycle.
        _ => cp,
    }
}

fn count(counts: &mut [u64; 4], cost: CostClass) {
    let slot = match cost {
        CostClass::Alu => 0,
        CostClass::Sft => 1,
        CostClass::Branch { .. } => 2,
        _ => 3, // Ctl (Nop) — nothing else is local
    };
    counts[slot] += 1;
}

/// Replay `tcu_step` for one TCU whose first instruction is local,
/// worker-side: same instructions (via the shared `exec` local path),
/// same costs, same break conditions, no shared state touched.
fn burst_local(
    exe: &Executable,
    ctx: &mut ThreadCtx,
    p: &BurstParams,
    cache: Option<&DecodeCache>,
    task: &StepTask,
) -> StepDone {
    let mut counts = [0u64; 4];
    let first = exec::issue_local(exe, ctx).expect("triage peeked a burstable instruction");
    count(&mut counts, first);
    let mut done = p.now + local_cost(first, p.cp);
    let mut len = 1u64;
    // The instruction-limit and quiescent-checkpoint checks are excluded
    // by the offload preconditions, exactly as in the interpreted loop
    // below; replay checks the remaining conditions per constituent.
    let env = ReplayEnv {
        cp: p.cp,
        next_sample_at: p.next_sample_at,
        max_cycles: p.max_cycles,
        max_instrs: None,
        checkpoint_any_at: p.checkpoint_any_at,
        stop_cycle: p.horizon,
        cycles_base: p.cycles_base,
        period_changed_at: p.period_changed_at,
        instrs_base: 0,
    };
    let mut replays = 0u64;
    let mut replay_instrs = 0u64;
    let mut fused = 0u64;
    let reason = loop {
        // Decoded-replay fast-forward over the shared read-only cache
        // (an un-warmed pc just falls through to interpreted issue).
        if let Some(dc) = cache.filter(|dc| dc.replayable_shared(ctx.pc)) {
            let mut cur = Cursor::new(len, done);
            dc.replay_shared(ctx, &env, &mut cur);
            if cur.executed > 0 {
                len = cur.len;
                done = cur.done;
                for k in 0..4 {
                    counts[k] += cur.counts[k];
                }
                replays += cur.replays;
                replay_instrs += cur.executed;
                fused += cur.fused;
            }
        }
        if len >= BURST_CAP {
            break BurstBreak::Cap;
        }
        if p.next_sample_at.is_some_and(|s| done > s) {
            break BurstBreak::Sample;
        }
        if p.max_cycles.is_some_and(|l| p.cycles_at(done) > l)
            || p.checkpoint_any_at.is_some_and(|c| p.cycles_at(done) >= c)
            || p.horizon.is_some_and(|c| p.cycles_at(done) >= c)
        {
            break BurstBreak::Boundary;
        }
        if !exec::peek_burstable(exe, ctx.pc) {
            break BurstBreak::NonLocal;
        }
        let cost = exec::issue_local(exe, ctx).expect("peeked instructions are local");
        count(&mut counts, cost);
        done += local_cost(cost, p.cp);
        len += 1;
    };
    StepDone {
        idx: task.idx,
        tcu: task.tcu,
        done,
        len,
        reason,
        counts,
        replays,
        replay_instrs,
        fused,
    }
}

impl CycleSim {
    /// The parallel twin of `run_inner_sequential`: spawn one worker per
    /// shard for the duration of the run, then drive the window loop.
    pub(super) fn run_inner_parallel(&mut self) -> Result<Outcome, SimError> {
        self.start();
        // A second handle on the shared image, so the workers can borrow
        // it while the window loop borrows `self` mutably.
        let exe = Arc::clone(&self.exe);
        let workers = self.workers();
        std::thread::scope(|scope| {
            let mut cmd_txs: Vec<Sender<WorkerCmd>> = Vec::with_capacity(workers);
            let (res_tx, res_rx) = channel::<Vec<StepDone>>();
            for _ in 0..workers {
                let (tx, rx) = channel::<WorkerCmd>();
                cmd_txs.push(tx);
                let res_tx = res_tx.clone();
                let exe = &exe;
                scope.spawn(move || worker_loop(exe, rx, res_tx));
            }
            // Dropping `cmd_txs` when this closure returns closes every
            // command channel; the workers exit and the scope joins them.
            self.window_loop(&cmd_txs, &res_rx)
        })
    }

    /// First cluster owned by worker shard `i` (contiguous balanced
    /// ranges; the inverse of the `c * w / clusters` routing in
    /// `shard_of_ev`).
    fn shard_cluster_lo(&self, i: usize) -> usize {
        let w = self.workers() as u64;
        ((i as u64 * self.cfg.clusters as u64).div_ceil(w)) as usize
    }

    /// The conservatively-synchronized window loop (see module docs).
    fn window_loop(
        &mut self,
        cmd_txs: &[Sender<WorkerCmd>],
        res_rx: &Receiver<Vec<StepDone>>,
    ) -> Result<Outcome, SimError> {
        let mut merged: Vec<(u64, Ev)> = Vec::new();
        let mut batch: Vec<Ev> = Vec::new();
        let mut results: Vec<Option<StepDone>> = Vec::new();
        loop {
            if self.stop_requested {
                return Ok(Outcome::Done(self.summary()));
            }
            let profile = self.host_profile.is_some();
            let obs_host = self.obs.as_deref().is_some_and(crate::obs::Obs::host_detail);
            let s0 = (profile || obs_host).then(std::time::Instant::now);
            // The window bound: the globally smallest pending
            // (time, priority) — the barrier every shard advances to.
            let mut key = self.sched.peek_key();
            for q in &self.shard_queues {
                key = match (key, q.peek_key()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
            }
            let Some((now, pri)) = key else {
                return if self.machine.halted {
                    Ok(Outcome::Done(self.summary()))
                } else {
                    Err(SimError::Deadlock {
                        time: self.sched.now(),
                    })
                };
            };
            // Drain every shard's slice of the group (lock-stepping all
            // shard clocks, even idle ones) and merge by global seq: the
            // exact batch a sequential `pop_cycle` would have produced.
            merged.clear();
            self.sched.pop_group_seq(now, pri, &mut merged);
            for q in &mut self.shard_queues {
                q.pop_group_seq(now, pri, &mut merged);
            }
            merged.sort_unstable_by_key(|&(seq, _)| seq);
            batch.clear();
            batch.extend(merged.drain(..).map(|(_, ev)| ev));
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
            // From here on: the same checks, re-sorts and walk as the
            // sequential engine, with phase-A commits spliced in.
            if let Some(limit) = self.max_cycles {
                let c = self.cycles_at(now);
                if c > limit {
                    return Err(SimError::CycleLimit { cycles: c });
                }
            }
            if let Some(target) = self.checkpoint_any_at {
                if self.cycles_at(now) >= target {
                    self.checkpoint_any_at = None;
                    self.requeue_tail(now, pri, &mut batch, 0);
                    return Ok(Outcome::Checkpoint(now));
                }
            }
            if pri == PRI_NEGOTIATE && batch.len() > 1 && self.cfg.icn_model == IcnModel::Express {
                super::order_express_batch(&self.express_legs, &mut batch);
            }
            if pri == PRI_DEFAULT && batch.len() > 1 {
                super::order_default_batch(&mut batch);
            }
            self.offload_phase_a(now, pri, &batch, cmd_txs, res_rx, &mut results);
            let mut i = 0;
            while i < batch.len() {
                if i > 0 && self.stop_requested {
                    debug_assert!(results.iter().skip(i).all(|r| r.is_none()));
                    self.requeue_tail(now, pri, &mut batch, i);
                    return Ok(Outcome::Done(self.summary()));
                }
                let ev = std::mem::replace(&mut batch[i], Ev::Sample);
                i += 1;
                if let (Some(target), Ev::MasterStep, None) =
                    (self.checkpoint_at, &ev, self.par.as_ref())
                {
                    if self.cycles_at(now) >= target && self.pending_total == 0 {
                        self.checkpoint_at = None;
                        self.schedule_ev(now, PRI_DEFAULT, Ev::MasterStep);
                        debug_assert!(results.iter().skip(i).all(|r| r.is_none()));
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
                match results.get(i - 1).and_then(Option::as_ref) {
                    Some(r) => self.commit_burst(r),
                    None => self.handle(now, ev)?,
                }
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
                    debug_assert!(results.iter().skip(i).all(|r| r.is_none()));
                    self.requeue_tail(now, pri, &mut batch, i);
                    return Ok(Outcome::Done(self.summary()));
                }
            }
        }
    }

    /// Phase-A triage + fan-out + barrier. Fills `results` (indexed by
    /// batch position) with precomputed bursts when the window is
    /// offloadable, leaves it empty otherwise.
    ///
    /// Offload preconditions — each one guarantees no event in this
    /// window can observe the difference between a burst precomputed from
    /// window-start state and one executed at its canonical position:
    ///
    /// * `PRI_DEFAULT` only, and no `MasterStep` in the window (the
    ///   master never coexists with TCU steps — spawn/join are full
    ///   barriers — but guard defensively): the canonical order then puts
    ///   every step event before every completion, and burstable
    ///   instructions touch only their own TCU's private context;
    /// * burst issue in force (`IssueModel::Burst`, no tracer) and no
    ///   filter plug-ins: nothing records per-instruction side effects;
    /// * instruction-limit headroom: one event issues at most one
    ///   instruction and a `BURST_CAP` burst after it, so if the window's
    ///   `batch.len() * (BURST_CAP + 1)` cannot reach the limit, every
    ///   mid-burst and top-of-handler limit check in the window is false
    ///   and workers may skip them.
    fn offload_phase_a(
        &mut self,
        now: Time,
        pri: Priority,
        batch: &[Ev],
        cmd_txs: &[Sender<WorkerCmd>],
        res_rx: &Receiver<Vec<StepDone>>,
        results: &mut Vec<Option<StepDone>>,
    ) {
        results.clear();
        if pri != PRI_DEFAULT || !self.burst_issue() || !self.filters.is_empty() {
            return;
        }
        if let Some(l) = self.max_instrs {
            if self
                .stats
                .instructions
                .saturating_add(batch.len() as u64 * (BURST_CAP + 1))
                >= l
            {
                return;
            }
        }
        if batch.iter().any(|ev| matches!(ev, Ev::MasterStep)) {
            return;
        }
        let mut per_worker: Vec<Vec<StepTask>> = (0..cmd_txs.len()).map(|_| Vec::new()).collect();
        let mut n_tasks = 0usize;
        let w = cmd_txs.len() as u64;
        for (idx, ev) in batch.iter().enumerate() {
            if let Ev::TcuStep(t) = ev {
                if exec::peek_burstable(&self.exe, self.tcus[*t as usize].ctx.pc) {
                    let shard =
                        (self.cfg.cluster_of(*t) as u64 * w / self.cfg.clusters as u64) as usize;
                    per_worker[shard].push(StepTask { idx, tcu: *t });
                    n_tasks += 1;
                }
            }
        }
        if n_tasks < MIN_OFFLOAD_TASKS {
            return;
        }
        // Pre-warm the decode cache from the task pcs (and their static
        // successors) so the read-only worker replays can run whole hot
        // loops; must happen before the `base` pointer is taken — workers
        // see a frozen cache for the barrier's duration (see `CachePtr`).
        if self.decode.is_some() {
            let mut decoded0 = 0;
            if let Some(dc) = self.decode.as_mut() {
                decoded0 = dc.stats.blocks_decoded;
                for tasks in &per_worker {
                    for task in tasks {
                        let pc = self.tcus[task.tcu as usize].ctx.pc;
                        dc.warm(&self.exe, pc, 16);
                    }
                }
            }
            if let Some(hp) = self.host_profile.as_mut() {
                let dc = self.decode.as_ref().expect("checked above");
                hp.blocks_decoded += dc.stats.blocks_decoded - decoded0;
            }
        }
        let cache_ptr = self.decode.as_ref().map(|d| d as *const DecodeCache);
        let params = BurstParams {
            now,
            cp: self.p(ClockDomain::Cluster),
            next_sample_at: self.next_sample_at,
            max_cycles: self.max_cycles,
            checkpoint_any_at: self.checkpoint_any_at,
            cycles_base: self.cycles_base,
            period_changed_at: self.period_changed_at,
            horizon: self.limit_horizon(),
        };
        let base = self.tcus.as_mut_ptr();
        let tpc = self.cfg.tcus_per_cluster as usize;
        let mut expected = 0usize;
        for (i, tasks) in per_worker.into_iter().enumerate() {
            if tasks.is_empty() {
                continue;
            }
            let lo = self.shard_cluster_lo(i) * tpc;
            let hi = self.shard_cluster_lo(i + 1) * tpc;
            cmd_txs[i]
                .send(WorkerCmd {
                    base: TcuPtr(base),
                    lo,
                    hi,
                    params,
                    cache: cache_ptr.map(CachePtr),
                    tasks,
                })
                .expect("worker thread alive for the whole run");
            expected += 1;
        }
        // The barrier: nothing on `self` may be touched until every
        // worker has replied (see `TcuPtr` safety).
        let b0 = self
            .obs
            .as_deref()
            .is_some_and(crate::obs::Obs::host_detail)
            .then(std::time::Instant::now);
        results.resize_with(batch.len(), || None);
        for _ in 0..expected {
            let dones = res_rx
                .recv()
                .expect("worker thread alive for the whole run");
            for d in dones {
                let idx = d.idx;
                results[idx] = Some(d);
            }
        }
        if let (Some(b0), Some(o)) = (b0, self.obs.as_deref_mut()) {
            o.offload_barrier(n_tasks, b0.elapsed());
        }
    }

    /// Commit one precomputed phase-A burst at its canonical batch
    /// position: bulk the stat counters the sequential path would have
    /// counted one by one, record the burst, and schedule the TCU's next
    /// step — the only scheduler insertion the sequential handler makes
    /// on this path, now happening in exact canonical order.
    fn commit_burst(&mut self, r: &StepDone) {
        let cluster = self.cfg.cluster_of(r.tcu);
        self.stats
            .count_instr_bulk(FuKind::Alu, Some(cluster), r.counts[0]);
        self.stats
            .count_instr_bulk(FuKind::Sft, Some(cluster), r.counts[1]);
        self.stats
            .count_instr_bulk(FuKind::Br, Some(cluster), r.counts[2]);
        self.stats
            .count_instr_bulk(FuKind::Ctl, Some(cluster), r.counts[3]);
        if let Some(hp) = self.host_profile.as_mut() {
            hp.record_tcu_burst(r.len, r.reason, &self.exe, self.tcus[r.tcu as usize].ctx.pc);
            hp.block_replays += r.replays;
            hp.replay_instrs += r.replay_instrs;
            hp.fusions += r.fused;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            if o.host_detail() {
                o.decode_replays(r.replays);
            }
        }
        self.schedule_ev(r.done, PRI_DEFAULT, Ev::TcuStep(r.tcu));
    }
}
