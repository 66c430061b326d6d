//! Simulation checkpoints (paper §III-E).
//!
//! The state of the simulation can be saved at a point given ahead of
//! time and resumed later — which, among other uses, facilitates
//! dynamically load-balancing a batch of long simulations across
//! machines. Checkpoints come in two flavours:
//!
//! * **quiescent** ([`CycleSim::run_to_checkpoint`]): taken at a
//!   master-step boundary with no parallel section open and no memory
//!   packages in flight, so the event list is empty by construction and
//!   the whole remaining state is plain data;
//! * **mid-flight** ([`CycleSim::run_to_checkpoint_anytime`]): taken at
//!   the next event-group boundary, packages in flight and all. The
//!   pending event list is serialized in exact pop order (events are
//!   plain data too), along with the express-leg table and the
//!   package-tracking side tables, in [`InflightState`].

use crate::config::XmtConfig;
use crate::cycle::cachesim::CacheTags;
use crate::cycle::{CycleSim, InflightState, Outcome, RunSummary, SimError, TcuState};
use crate::engine::Time;
use crate::machine::{Machine, ThreadCtx};
use crate::stats::Stats;
use std::sync::Arc;
use xmt_harness::{json_struct, FromJson, JsonError, ToJson};
use xmt_isa::Executable;

/// A serializable snapshot of a paused simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Simulated time of the snapshot (ps).
    pub time: Time,
    pub machine: Machine,
    pub master: ThreadCtx,
    pub tcus: Vec<TcuState>,
    pub stats: Stats,
    pub period_ps: [u64; 4],
    pub cycles_base: u64,
    pub period_changed_at: Time,
    pub vc_free: Vec<Time>,
    pub module_free: Vec<Time>,
    pub dram_free: Vec<Time>,
    pub mdu_free: Vec<Time>,
    pub fpu_free: Vec<Time>,
    pub modules: Vec<CacheTags>,
    pub ro_caches: Vec<CacheTags>,
    pub master_cache: CacheTags,
    /// In-flight state (pending events, express legs, side tables);
    /// empty for quiescent checkpoints.
    pub inflight: InflightState,
}

json_struct!(Checkpoint {
    time, machine, master, tcus, stats, period_ps, cycles_base,
    period_changed_at, vc_free, module_free, dram_free, mdu_free, fpu_free,
    modules, ro_caches, master_cache, inflight,
});

impl Checkpoint {
    /// Serialize to JSON (human-inspectable, as the toolchain favours).
    pub fn to_json(&self) -> String {
        self.to_json_string()
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        Self::from_json_str(s)
    }

    /// True when this checkpoint was taken at a quiescent boundary (no
    /// packages in flight).
    pub fn is_quiescent(&self) -> bool {
        self.inflight.is_quiescent()
    }

    /// Check that the checkpoint fits a machine configured as `cfg`: one
    /// entry per TCU / cluster / cache module / DRAM channel where the
    /// simulator indexes by them, clock periods it can divide by, and
    /// in-flight records the machine can have.
    fn validate(&self, cfg: &XmtConfig) -> Result<(), String> {
        let (clusters, modules) = (cfg.clusters as usize, cfg.cache_modules as usize);
        for (name, len, want) in [
            ("tcus", self.tcus.len(), cfg.n_tcus() as usize),
            ("vc_free", self.vc_free.len(), (clusters + 1) * modules),
            ("module_free", self.module_free.len(), modules),
            ("dram_free", self.dram_free.len(), cfg.dram_channels as usize),
            ("mdu_free", self.mdu_free.len(), clusters),
            ("fpu_free", self.fpu_free.len(), clusters),
            ("modules", self.modules.len(), modules),
            ("ro_caches", self.ro_caches.len(), clusters),
            ("stats.per_cluster", self.stats.per_cluster.len(), clusters),
            ("stats.module_accesses", self.stats.module_accesses.len(), modules),
        ] {
            if len != want {
                return Err(format!("checkpoint has {len} `{name}` entries, the machine {want}"));
            }
        }
        if self.period_ps.contains(&0) {
            return Err("checkpoint clock periods must be nonzero".into());
        }
        if self.period_changed_at > self.time {
            return Err("checkpoint periods changed after the checkpoint was taken".into());
        }
        self.inflight.validate(&self.tcus, self.time)
    }
}

/// What `run_to_checkpoint` produced.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// The program halted before the checkpoint cycle.
    Done(RunSummary),
    /// Paused at a quiescent point at-or-after the requested cycle.
    Checkpoint(Box<Checkpoint>),
}

impl CycleSim {
    /// Run until the first quiescent master-step boundary at or after
    /// `cycle`, and snapshot there; or to completion if the program halts
    /// first.
    pub fn run_to_checkpoint(&mut self, cycle: u64) -> Result<CheckpointOutcome, SimError> {
        self.set_checkpoint_cycle(cycle);
        match self.run_inner()? {
            Outcome::Done(s) => Ok(CheckpointOutcome::Done(s)),
            Outcome::Checkpoint(time) => {
                Ok(CheckpointOutcome::Checkpoint(Box::new(self.snapshot(time, false))))
            }
        }
    }

    /// Run until the first event-group boundary at or after `cycle` and
    /// snapshot there — without waiting for quiescence, so memory
    /// packages (and express ICN legs) may be in flight; or to completion
    /// if the program halts first. The simulator itself remains
    /// resumable: the interrupted event group is requeued intact.
    pub fn run_to_checkpoint_anytime(
        &mut self,
        cycle: u64,
    ) -> Result<CheckpointOutcome, SimError> {
        self.set_checkpoint_any_cycle(cycle);
        match self.run_inner()? {
            Outcome::Done(s) => Ok(CheckpointOutcome::Done(s)),
            Outcome::Checkpoint(time) => {
                Ok(CheckpointOutcome::Checkpoint(Box::new(self.snapshot(time, true))))
            }
        }
    }

    fn snapshot(&self, time: Time, inflight: bool) -> Checkpoint {
        let (machine, master, tcus, stats, period_ps, cyc, tl, caches, _now) =
            self.checkpoint_parts();
        Checkpoint {
            time,
            machine: machine.clone(),
            master: master.clone(),
            tcus: tcus.clone(),
            stats: stats.clone(),
            period_ps,
            cycles_base: cyc.0,
            period_changed_at: cyc.1,
            vc_free: tl.0.to_vec(),
            module_free: tl.1.to_vec(),
            dram_free: tl.2.to_vec(),
            mdu_free: tl.3.to_vec(),
            fpu_free: tl.4.to_vec(),
            modules: caches.0.to_vec(),
            ro_caches: caches.1.to_vec(),
            master_cache: caches.2.clone(),
            // Quiescent checkpoints restore through the original
            // master-step re-seeding path, so they stay byte-compatible
            // in behaviour and carry no event list.
            inflight: if inflight { self.inflight_snapshot() } else { InflightState::default() },
        }
    }

    /// Rebuild a simulator from a checkpoint (same executable and
    /// configuration as the original run), panicking on a configuration or
    /// checkpoint [`Self::try_resume`] rejects. Plug-ins and tracers must
    /// be re-attached by the caller.
    pub fn resume(exe: impl Into<Arc<Executable>>, cfg: XmtConfig, ckpt: Checkpoint) -> CycleSim {
        Self::try_resume(exe, cfg, ckpt).expect("checkpoint does not fit this simulator")
    }

    /// Rebuild a simulator from a checkpoint, reporting an invalid
    /// configuration or a checkpoint that does not fit it — wrong-length
    /// per-TCU, per-cluster or per-module tables, zero clock periods,
    /// in-flight records naming a TCU, priority or state the machine
    /// cannot have — as an error instead of a panic later in the run: the
    /// entry point for checkpoints read from a file.
    pub fn try_resume(
        exe: impl Into<Arc<Executable>>,
        cfg: XmtConfig,
        ckpt: Checkpoint,
    ) -> Result<CycleSim, String> {
        let mut sim = CycleSim::try_new(exe, cfg)?;
        ckpt.validate(sim.config())?;
        let time = ckpt.time;
        sim.restore_parts(
            ckpt.machine,
            ckpt.master,
            ckpt.tcus,
            ckpt.stats,
            ckpt.period_ps,
            (ckpt.cycles_base, ckpt.period_changed_at),
            (
                ckpt.vc_free,
                ckpt.module_free,
                ckpt.dram_free,
                ckpt.mdu_free,
                ckpt.fpu_free,
            ),
            (ckpt.modules, ckpt.ro_caches, ckpt.master_cache),
            time,
            ckpt.inflight,
        );
        Ok(sim)
    }
}
