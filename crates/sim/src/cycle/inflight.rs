//! What `CycleSim::try_resume` checks of a checkpoint's in-flight records
//! before it restores them: every pending event and memory operation must
//! be one this machine can have — or the run loop would index out of the
//! TCU array, trip the event list's priority assert, underflow a chain or
//! a pending count, or step a TCU outside any parallel section.

use super::{Ev, InflightState, SavedMemOp, TcuState, MASTER_ID};
use crate::engine::{Time, N_PRI};
use crate::exec::MemKind;

impl InflightState {
    /// Check the records against `tcus` (the checkpoint's TCU states) and
    /// the checkpoint time `time`; `Err` names the first misfit.
    pub(crate) fn validate(&self, tcus: &[TcuState], time: Time) -> Result<(), String> {
        let n = tcus.len() as u32;
        // Non-blocking operations in flight per TCU, to check `pending`.
        let mut pending = vec![0u32; tcus.len()];
        let mut tcu_work = |tcu: u32, kind: Option<MemKind>| {
            if tcu == MASTER_ID && kind.is_some() {
                return Ok(()); // the master's own package
            }
            if tcu >= n {
                return Err(format!("in-flight work names TCU {tcu} of {n}"));
            }
            if self.par.is_none() {
                return Err(format!("TCU {tcu} has work in flight outside a parallel section"));
            }
            pending[tcu as usize] += kind.is_some_and(|k| !k.blocking()) as u32;
            Ok(())
        };
        let not_before = |at: Time| {
            if at < time {
                return Err(format!("in-flight work due at {at} ps, before the checkpoint's {time} ps"));
            }
            Ok(())
        };
        for e in &self.events {
            if e.pri as usize >= N_PRI {
                return Err(format!("pending event priority {} is not below {N_PRI}", e.pri));
            }
            not_before(e.time)?;
            match &e.ev {
                Ev::TcuStep(t) => tcu_work(*t, None)?,
                Ev::Hop { tcu, req, .. } | Ev::Complete { tcu, req, .. } => {
                    tcu_work(*tcu, Some(req.kind))?
                }
                Ev::Service { tcu, req, done, .. } if *done == e.time => {
                    tcu_work(*tcu, Some(req.kind))?
                }
                Ev::Service { done, .. } => {
                    return Err(format!("a service done at {done} ps is due at {} ps", e.time))
                }
                Ev::ExpressEnd { .. } => {
                    return Err("an express leg end outside `mem_ops` has no leg".into())
                }
                Ev::MasterStep | Ev::BroadcastDone { .. } | Ev::Sample => {}
            }
        }
        for op in &self.mem_ops {
            let (tcu, req, due) = match op {
                SavedMemOp::Flight { tcu, req, chain, .. } => {
                    let end = chain.last().ok_or("an in-flight leg has an empty chain")?;
                    (tcu, req, *end)
                }
                SavedMemOp::Queued { tcu, req, done, .. } => (tcu, req, *done),
                SavedMemOp::Done { tcu, req, at, .. } => (tcu, req, *at),
            };
            not_before(due)?;
            tcu_work(*tcu, Some(req.kind))?;
        }
        for w in &self.pbuf_waiters {
            tcu_work(w.tcu, None)?;
        }
        for (t, (tcu, &in_flight)) in tcus.iter().zip(&pending).enumerate() {
            if tcu.pending != in_flight {
                return Err(format!(
                    "TCU {t} counts {} pending operations, {in_flight} are in flight",
                    tcu.pending
                ));
            }
        }
        let total: u64 = pending.iter().map(|&p| p as u64).sum();
        if self.pending_total != total {
            return Err(format!(
                "{} pending operations counted, {total} in flight",
                self.pending_total
            ));
        }
        Ok(())
    }
}
