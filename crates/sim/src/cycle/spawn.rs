//! Spawn and join: opening a parallel section — its first allocation
//! round in closed form where nothing can tell (DESIGN §17) — and closing
//! it once every TCU has parked and nothing is in flight.

use super::{BurstBreak, CycleSim, Ev, ParState, BURST_CAP};
use crate::config::ClockDomain;
use crate::engine::{Time, PRI_DEFAULT, PRI_TRANSFER};
use crate::exec::{self, CostClass, Issued, Mode};
use crate::machine::ThreadCtx;
use xmt_isa::{FuKind, Instr, Reg};

/// A section's first allocation round, taken whole when the spawn
/// broadcast finishes (see [`CycleSim::first_round`]).
struct FirstRound {
    /// Every TCU's context after the block's local prefix, on its `ps rt`.
    ctx: ThreadCtx,
    rt: Reg,
    /// The prefix's and the `ps`'s instructions by functional unit.
    counts: [u64; FuKind::ALL.len()],
    /// When the `chkid`s issue.
    at: Time,
}

impl CycleSim {
    /// `Ok(t)`: the range was empty and the master issues again at `t`;
    /// `Err`: the section is open and the join restarts the master.
    pub(super) fn begin_spawn(
        &mut self,
        now: Time,
        lo: i32,
        hi: i32,
        spawn_idx: u32,
        join_idx: u32,
    ) -> Result<Time, BurstBreak> {
        self.stats.spawns += 1;
        let cp = self.p(ClockDomain::Cluster);
        self.master.pc = join_idx + 1; // where the master resumes
        if lo > hi {
            // Empty range: no parallel section at all.
            return Ok(now + self.cfg.spawn_overhead as Time * cp);
        }
        self.stats.virtual_threads += (hi as i64 - lo as i64 + 1) as u64;
        self.stats.spawn_records.push(crate::stats::SpawnRecord {
            threads: (hi as i64 - lo as i64 + 1) as u64,
            start_ps: now,
            end_ps: 0,
        });
        // Seed the thread-allocation counter and open the section.
        self.machine.gregs[0] = lo as u32;
        self.par = Some(ParState {
            hi,
            join_idx,
            parked: 0,
        });
        // Broadcast the spawn block to the TCUs over the broadcast bus.
        let body_len = join_idx.saturating_sub(spawn_idx + 1);
        let bc_cycles =
            self.cfg.spawn_overhead as Time + body_len.div_ceil(self.cfg.broadcast_ipc) as Time;
        self.sched.schedule_at(
            now + bc_cycles * cp,
            PRI_TRANSFER,
            Ev::BroadcastDone {
                body_pc: spawn_idx + 1,
            },
        );
        Err(BurstBreak::Spawn)
    }

    /// Once per section: kept out of `handle`, which every event runs.
    #[inline(never)]
    pub(super) fn activate_tcus(&mut self, now: Time, body_pc: u32) {
        // Broadcast the master register file to every TCU and start them
        // at the top of the spawn block (the paper's chosen fix for
        // master-register values live into the spawn block, §IV-B).
        let ctx = ThreadCtx { regs: self.master.regs.clone(), pc: body_pc };
        let round = self.first_round(now, &ctx);
        for t in 0..self.tcus.len() as u32 {
            let tcu = &mut self.tcus[t as usize];
            tcu.ctx = round.as_ref().map_or(&ctx, |r| &r.ctx).clone();
            tcu.parked = false;
            tcu.fence_wait = false;
            tcu.pbuf.clear();
            if let Some(o) = self.obs.as_deref_mut() {
                o.tcu_activate(now, self.cfg.cluster_of(t), t);
            }
            match &round {
                Some(r) => self.draw_first_id(t, r),
                None => self.sched.schedule_at(now, PRI_DEFAULT, Ev::TcuStep(t)),
            }
        }
        // The oracle parks the idle TCUs after every activation.
        if let (Some(r), Some(o)) = (&round, self.obs.as_deref_mut()) {
            for (t, _) in self.tcus.iter().enumerate().filter(|(_, tcu)| tcu.parked) {
                o.tcu_park(r.at, self.cfg.cluster_of(t as u32), t as u32);
            }
        }
    }

    /// The first allocation round in closed form, or `None` to open the
    /// section step by step: every TCU runs the block's local prefix from
    /// `ctx` alike, and if the `ps rt` it reaches is followed by `chkid rt`
    /// the ids go out in TCU order, as in the oracle's group of `ps` steps
    /// — when nothing can observe the instants skipped (DESIGN §17).
    fn first_round(&mut self, now: Time, ctx: &ThreadCtx) -> Option<FirstRound> {
        let hi = self.par.filter(|_| self.burst_issue() && self.filters.is_empty())?.hi;
        let (mut pre, mut at, mut counts) = (ctx.clone(), now, [0; FuKind::ALL.len()]);
        for _ in 0..BURST_CAP {
            let Some(cost) = exec::issue_local(&self.exe, &mut pre) else { break };
            counts[cost.fu() as usize] += 1;
            at = self.tcu_cost(at, 0, cost); // a local class: a pure latency
        }
        let Some(&Instr::Ps { rt, gr }) = self.exe.instr(pre.pc) else { return None };
        counts[FuKind::Ps as usize] += 1;
        let at = at + self.cfg.ps_latency as Time * self.p(ClockDomain::Cluster);
        let taken = matches!(self.exe.instr(pre.pc + 1), Some(&Instr::Chkid { rt: c }) if c == rt)
            && matches!(pre.regs.get_i(rt), 0 | 1)
            && self.machine.gregs[gr.0 as usize] as i32 <= hi
            && self.clip_at(at).is_none()
            && !self.limit_before(at);
        taken.then_some(FirstRound { ctx: pre, rt, counts, at })
    }

    /// TCU `t`'s share of a first round: its prefix and `ps` are counted,
    /// and its `chkid` either parks it now or is its step at `r.at`.
    fn draw_first_id(&mut self, t: u32, r: &FirstRound) {
        let cluster = self.cfg.cluster_of(t);
        self.stats.count_instrs(&r.counts, Some(cluster));
        self.stats.ps_ops += 1;
        let Some(par) = self.par.as_mut() else { return };
        let ctx = &mut self.tcus[t as usize].ctx;
        let ps = exec::issue(&self.exe, ctx, &mut self.machine, Mode::Parallel { hi: par.hi });
        debug_assert_eq!(ps, Ok(Issued::Done(CostClass::Ps)), "an increment of 0 or 1");
        let idle = ctx.regs.get_i(r.rt) > par.hi;
        if let Some(hp) = self.host_profile.as_mut() {
            hp.first_rounds += 1;
            hp.idle_parked += idle as u64;
            hp.record_tcu_burst(r.counts.iter().sum(), BurstBreak::NonLocal, &self.exe, ctx.pc);
        }
        if idle {
            // Parked at the `chkid`, which counts as the oracle's does.
            self.stats.count_instr(FuKind::Br, Some(cluster));
            self.tcus[t as usize].parked = true;
            par.parked += 1;
        } else {
            self.sched.schedule_at(r.at, PRI_DEFAULT, Ev::TcuStep(t));
        }
    }

    pub(super) fn maybe_join(&mut self, now: Time) {
        let Some(par) = self.par else { return };
        if par.parked == self.tcus.len() as u32 && self.pending_total == 0 {
            self.par = None;
            let done = now + self.cfg.spawn_overhead as Time * self.p(ClockDomain::Cluster);
            if let Some(rec) = self.stats.spawn_records.last_mut() {
                rec.end_ps = done;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.spawn_section(rec.threads, rec.start_ps, done);
                }
            }
            self.sched.schedule_at(done, PRI_DEFAULT, Ev::MasterStep);
        }
    }
}
