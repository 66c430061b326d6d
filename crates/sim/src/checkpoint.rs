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

use crate::cycle::cachesim::CacheTags;
use crate::cycle::{CycleSim, InflightState, Outcome, RunSummary, SimError, TcuState};
use crate::engine::Time;
use crate::machine::{Machine, ThreadCtx};
use crate::stats::Stats;
use xmt_harness::{json_struct, FromJson, JsonError, ToJson};

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
    /// configuration as the original run). Plug-ins and tracers must be
    /// re-attached by the caller.
    pub fn resume(
        exe: impl Into<std::sync::Arc<xmt_isa::Executable>>,
        cfg: crate::config::XmtConfig,
        ckpt: Checkpoint,
    ) -> CycleSim {
        let mut sim = CycleSim::new(exe, cfg);
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
        sim
    }
}
