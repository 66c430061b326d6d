//! Simulation statistics and runtime control (paper §III-B, Fig. 3).
//!
//! XMTSim keeps built-in counters of executed instructions and of the
//! activity of the cycle-accurate components. Two plug-in interfaces make
//! them programmable:
//!
//! * **filter plug-ins** customize the instruction statistics reported at
//!   the end of a run — e.g. [`MemHotspotFilter`], the paper's example
//!   plug-in that lists the most frequently accessed locations in the XMT
//!   shared memory space;
//! * **activity plug-ins** are invoked at regular intervals of simulated
//!   time with a snapshot of the counters, and may *change the frequencies
//!   of the clock domains* — the mechanism behind dynamic power and
//!   thermal management studies (§III-B, §III-F).

use crate::config::ClockDomain;
use crate::engine::Time;
use crate::exec::MemRequest;
use std::collections::HashMap;
use xmt_harness::json_struct;
use xmt_isa::FuKind;

/// One parallel section's footprint: the raw material of the PRAM
/// work/depth teaching view (how many virtual threads, how long the
/// section ran).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnRecord {
    /// Virtual threads executed by this section.
    pub threads: u64,
    /// Simulated time the section started (spawn issue), ps.
    pub start_ps: Time,
    /// Simulated time the master resumed, ps (0 while still open).
    pub end_ps: Time,
}

json_struct!(SpawnRecord { threads, start_ps, end_ps });

impl SpawnRecord {
    /// Section duration in picoseconds.
    pub fn duration_ps(&self) -> Time {
        self.end_ps.saturating_sub(self.start_ps)
    }
}

/// Built-in instruction and activity counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Total instructions executed (all contexts).
    pub instructions: u64,
    /// Instructions executed by the Master TCU.
    pub master_instructions: u64,
    /// Instructions executed by parallel TCUs.
    pub tcu_instructions: u64,
    /// Instruction count per functional-unit kind (indexed by
    /// [`FuKind::ALL`] order).
    pub by_fu: [u64; 8],
    /// Per-cluster instruction counts.
    pub per_cluster: Vec<u64>,

    /// Parallel sections entered.
    pub spawns: u64,
    /// Virtual threads executed.
    pub virtual_threads: u64,
    /// Per-section footprints, in execution order.
    pub spawn_records: Vec<SpawnRecord>,

    /// Shared-cache accesses per module.
    pub module_accesses: Vec<u64>,
    /// Shared-cache hits / misses.
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Master cache hits / misses.
    pub master_hits: u64,
    pub master_misses: u64,
    /// Read-only cache hits / misses.
    pub ro_hits: u64,
    pub ro_misses: u64,
    /// Prefetch-buffer hits (loads served without an ICN round trip).
    pub prefetch_hits: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// DRAM line transfers.
    pub dram_accesses: u64,
    /// Packages injected into the interconnection network (both ways).
    pub icn_packages: u64,
    /// `psm` operations performed at the cache modules.
    pub psm_ops: u64,
    /// `ps` operations through the global prefix-sum unit.
    pub ps_ops: u64,

    /// Picoseconds TCUs spent stalled waiting for memory responses.
    pub mem_wait_ps: u64,
    /// Picoseconds TCUs spent stalled at fences.
    pub fence_wait_ps: u64,
}

json_struct!(Stats {
    instructions, master_instructions, tcu_instructions, by_fu, per_cluster,
    spawns, virtual_threads, spawn_records, module_accesses, cache_hits,
    cache_misses, master_hits, master_misses, ro_hits, ro_misses,
    prefetch_hits, prefetches, dram_accesses, icn_packages, psm_ops, ps_ops,
    mem_wait_ps, fence_wait_ps,
});

impl Stats {
    /// Initialize per-cluster / per-module vectors for a topology.
    pub fn for_topology(clusters: u32, modules: u32) -> Self {
        Stats {
            per_cluster: vec![0; clusters as usize],
            module_accesses: vec![0; modules as usize],
            ..Default::default()
        }
    }

    /// Record an executed instruction.
    #[inline]
    pub fn count_instr(&mut self, fu: FuKind, cluster: Option<u32>) {
        self.instructions += 1;
        self.by_fu[fu as usize] += 1;
        match cluster {
            Some(c) => {
                self.tcu_instructions += 1;
                self.per_cluster[c as usize] += 1;
            }
            None => self.master_instructions += 1,
        }
    }

    /// Record a batch of executed instructions, `counts[fu as usize]` of
    /// each kind — decoded replay and the closed-form first round count
    /// privately and merge here; the result is exactly that many calls to
    /// [`count_instr`](Self::count_instr).
    #[inline]
    pub fn count_instrs(&mut self, counts: &[u64; 8], cluster: Option<u32>) {
        let mut n = 0;
        for (by, k) in self.by_fu.iter_mut().zip(counts) {
            *by += k;
            n += k;
        }
        self.instructions += n;
        match cluster {
            Some(c) => {
                self.tcu_instructions += n;
                self.per_cluster[c as usize] += n;
            }
            None => self.master_instructions += n,
        }
    }

    /// Instruction count for one functional-unit kind.
    pub fn fu(&self, kind: FuKind) -> u64 {
        self.by_fu[kind as usize]
    }

    /// Human-readable end-of-run report (the default statistics output).
    pub fn report(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("instructions          {}\n", self.instructions));
        s.push_str(&format!("  master              {}\n", self.master_instructions));
        s.push_str(&format!("  tcu                 {}\n", self.tcu_instructions));
        for kind in FuKind::ALL {
            s.push_str(&format!("  {:<6}              {}\n", kind.name(), self.fu(kind)));
        }
        s.push_str(&format!("spawns                {}\n", self.spawns));
        s.push_str(&format!("virtual threads       {}\n", self.virtual_threads));
        s.push_str(&format!(
            "shared cache          {} hits, {} misses\n",
            self.cache_hits, self.cache_misses
        ));
        s.push_str(&format!(
            "master cache          {} hits, {} misses\n",
            self.master_hits, self.master_misses
        ));
        s.push_str(&format!(
            "prefetch buffer       {} hits / {} prefetches\n",
            self.prefetch_hits, self.prefetches
        ));
        s.push_str(&format!("dram line transfers   {}\n", self.dram_accesses));
        s.push_str(&format!("icn packages          {}\n", self.icn_packages));
        s.push_str(&format!("ps / psm operations   {} / {}\n", self.ps_ops, self.psm_ops));
        s.push_str(&format!(
            "read-only cache       {} hits, {} misses\n",
            self.ro_hits, self.ro_misses
        ));
        s.push_str(&format!("tcu memory-wait (ps)  {}\n", self.mem_wait_ps));
        s.push_str(&format!("tcu fence-wait (ps)   {}\n", self.fence_wait_ps));
        if !self.spawn_records.is_empty() {
            s.push_str("parallel sections (threads / duration ps):\n");
            for (k, r) in self.spawn_records.iter().enumerate().take(16) {
                s.push_str(&format!(
                    "  #{k:<3} {:>8} threads  {:>12} ps\n",
                    r.threads,
                    r.duration_ps()
                ));
            }
            if self.spawn_records.len() > 16 {
                s.push_str(&format!(
                    "  ... {} more sections\n",
                    self.spawn_records.len() - 16
                ));
            }
        }
        s
    }
}

/// A filter plug-in observes the executed instruction stream and produces
/// a custom report at the end of the simulation.
pub trait FilterPlugin {
    /// Called for every executed instruction.
    fn on_instr(&mut self, _pc: u32, _fu: FuKind) {}
    /// Called for every memory request issued to the memory system.
    fn on_mem(&mut self, _req: &MemRequest) {}
    /// Final report text.
    fn report(&self) -> String;
    /// Downcast access for typed readback of filter results (mirrors
    /// [`ActivityPlugin::as_any`]). `None` hides the concrete type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The paper's example filter plug-in: ranks the most frequently accessed
/// locations (cache lines) of the shared memory space, so a programmer
/// can find the assembly lines causing memory bottlenecks.
#[derive(Debug, Default)]
pub struct MemHotspotFilter {
    line_bytes: u32,
    counts: HashMap<u32, u64>,
    /// Per accessed line, the instruction (pc) that touched it most —
    /// lets the report point back at the offending assembly line.
    by_pc: HashMap<u32, HashMap<u32, u64>>,
    top: usize,
}

impl MemHotspotFilter {
    /// Track hotspots at `line_bytes` granularity, reporting the `top` N.
    pub fn new(line_bytes: u32, top: usize) -> Self {
        MemHotspotFilter { line_bytes: line_bytes.max(4), top, ..Default::default() }
    }

    /// Like [`Self::hottest`], with the instruction (pc) that touched
    /// each line most — the hook the compiler's line table turns into
    /// "XMTC line N" (paper §III-B).
    pub fn hottest_with_pc(&self) -> Vec<(u32, u64, u32)> {
        self.hottest()
            .into_iter()
            .map(|(addr, n)| {
                let line = addr / self.line_bytes;
                let pc = self
                    .by_pc
                    .get(&line)
                    .and_then(|m| m.iter().max_by_key(|(pc, n)| (**n, u32::MAX - **pc)))
                    .map(|(pc, _)| *pc)
                    .unwrap_or(0);
                (addr, n, pc)
            })
            .collect()
    }

    /// The `top` hottest (line address, access count) pairs, hottest
    /// first; ties broken by address for determinism.
    pub fn hottest(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self
            .counts
            .iter()
            .map(|(line, n)| (line * self.line_bytes, *n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(self.top);
        v
    }
}

impl FilterPlugin for MemHotspotFilter {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_mem(&mut self, req: &MemRequest) {
        let line = req.addr / self.line_bytes;
        *self.counts.entry(line).or_default() += 1;
        *self.by_pc.entry(line).or_default().entry(req.pc).or_default() += 1;
    }

    fn report(&self) -> String {
        let mut s = String::from("hottest shared-memory lines:\n");
        for (addr, n) in self.hottest() {
            let line = addr / self.line_bytes;
            let hot_pc = self
                .by_pc
                .get(&line)
                .and_then(|m| m.iter().max_by_key(|(pc, n)| (**n, u32::MAX - **pc)))
                .map(|(pc, _)| *pc)
                .unwrap_or(0);
            s.push_str(&format!(
                "  0x{addr:08x}  {n:>10} accesses  (hottest at instruction {hot_pc})\n"
            ));
        }
        s
    }
}

/// Snapshot handed to activity plug-ins at every sampling interval.
#[derive(Debug, Clone)]
pub struct ActivitySample<'a> {
    /// Simulated time of this sample.
    pub now: Time,
    /// Cumulative counters.
    pub stats: &'a Stats,
    /// Counter deltas since the previous sample.
    pub delta: Stats,
    /// Current period of each clock domain (ps).
    pub period_ps: [u64; 4],
}

/// Runtime control surface offered to activity plug-ins: retune clock
/// domains or stop the simulation — the API the paper describes for
/// "modifying the operation of the cycle-accurate components during
/// runtime".
#[derive(Debug, Clone)]
pub struct RuntimeCtl {
    /// Domain periods to apply after the plug-in returns (ps).
    pub period_ps: [u64; 4],
    /// Set to stop the simulation.
    pub stop: bool,
}

impl RuntimeCtl {
    /// Scale a domain's frequency by `factor` (e.g. 0.5 halves the
    /// frequency / doubles the period). Clamped to stay nonzero.
    pub fn scale_frequency(&mut self, dom: ClockDomain, factor: f64) {
        assert!(factor > 0.0, "frequency factor must be positive");
        let p = self.period_ps[dom as usize] as f64 / factor;
        self.period_ps[dom as usize] = p.round().max(1.0) as u64;
    }

    /// Set a domain's frequency in MHz.
    pub fn set_frequency_mhz(&mut self, dom: ClockDomain, mhz: f64) {
        assert!(mhz > 0.0);
        self.period_ps[dom as usize] = (1.0e6 / mhz).round().max(1.0) as u64;
    }
}

/// An activity plug-in: sampled at fixed intervals of simulated time; sees
/// counter deltas and may exercise runtime control (DVFS, early stop).
pub trait ActivityPlugin {
    /// Called once per sampling interval.
    fn sample(&mut self, sample: &ActivitySample<'_>, ctl: &mut RuntimeCtl);
    /// Final report text (optional).
    fn report(&self) -> String {
        String::new()
    }
    /// Downcast hook so collected data (thermal history, animation
    /// frames, …) can be retrieved after the run. Opt-in: return
    /// `Some(self)` to make the plug-in retrievable by type.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Compute the per-field difference `now - prev` for counter snapshots.
pub fn stats_delta(now: &Stats, prev: &Stats) -> Stats {
    let mut d = now.clone();
    d.instructions -= prev.instructions;
    d.master_instructions -= prev.master_instructions;
    d.tcu_instructions -= prev.tcu_instructions;
    for k in 0..8 {
        d.by_fu[k] -= prev.by_fu[k];
    }
    for (a, b) in d.per_cluster.iter_mut().zip(&prev.per_cluster) {
        *a -= b;
    }
    d.spawns -= prev.spawns;
    d.virtual_threads -= prev.virtual_threads;
    // Per-section records are a log, not a counter; deltas drop them.
    d.spawn_records.clear();
    for (a, b) in d.module_accesses.iter_mut().zip(&prev.module_accesses) {
        *a -= b;
    }
    d.cache_hits -= prev.cache_hits;
    d.cache_misses -= prev.cache_misses;
    d.master_hits -= prev.master_hits;
    d.master_misses -= prev.master_misses;
    d.ro_hits -= prev.ro_hits;
    d.ro_misses -= prev.ro_misses;
    d.prefetch_hits -= prev.prefetch_hits;
    d.prefetches -= prev.prefetches;
    d.dram_accesses -= prev.dram_accesses;
    d.icn_packages -= prev.icn_packages;
    d.psm_ops -= prev.psm_ops;
    d.ps_ops -= prev.ps_ops;
    d.mem_wait_ps -= prev.mem_wait_ps;
    d.fence_wait_ps -= prev.fence_wait_ps;
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MemKind;

    fn req(addr: u32, pc: u32) -> MemRequest {
        MemRequest { kind: MemKind::LoadW, addr, dst_i: None, dst_f: None, value: 0, pc }
    }

    #[test]
    fn count_instr_buckets() {
        let mut s = Stats::for_topology(2, 2);
        s.count_instr(FuKind::Alu, None);
        s.count_instr(FuKind::Mem, Some(1));
        s.count_instr(FuKind::Mem, Some(1));
        assert_eq!(s.instructions, 3);
        assert_eq!(s.master_instructions, 1);
        assert_eq!(s.tcu_instructions, 2);
        assert_eq!(s.fu(FuKind::Mem), 2);
        assert_eq!(s.per_cluster, vec![0, 2]);
        assert!(s.report().contains("instructions          3"));
    }

    #[test]
    fn hotspot_filter_ranks_lines() {
        let mut f = MemHotspotFilter::new(32, 2);
        for _ in 0..5 {
            f.on_mem(&req(0x1000_0000, 7));
        }
        for _ in 0..9 {
            f.on_mem(&req(0x1000_0040, 3));
        }
        f.on_mem(&req(0x1000_0080, 1));
        let top = f.hottest();
        assert_eq!(top, vec![(0x1000_0040, 9), (0x1000_0000, 5)]);
        let rep = f.report();
        assert!(rep.contains("0x10000040"));
        assert!(rep.contains("instruction 3"));
    }

    #[test]
    fn hotspot_same_line_aggregates() {
        let mut f = MemHotspotFilter::new(32, 1);
        f.on_mem(&req(0x1000_0000, 1));
        f.on_mem(&req(0x1000_001c, 1)); // same 32-byte line
        assert_eq!(f.hottest(), vec![(0x1000_0000, 2)]);
    }

    #[test]
    fn runtime_ctl_frequency_math() {
        let mut ctl = RuntimeCtl { period_ps: [1000, 1000, 1000, 1000], stop: false };
        ctl.scale_frequency(ClockDomain::Cluster, 0.5);
        assert_eq!(ctl.period_ps[0], 2000);
        ctl.set_frequency_mhz(ClockDomain::Dram, 500.0);
        assert_eq!(ctl.period_ps[3], 2000);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut a = Stats::for_topology(1, 1);
        let mut b = Stats::for_topology(1, 1);
        b.instructions = 10;
        b.cache_hits = 4;
        b.per_cluster[0] = 3;
        a.instructions = 4;
        a.cache_hits = 1;
        a.per_cluster[0] = 1;
        let d = stats_delta(&b, &a);
        assert_eq!(d.instructions, 6);
        assert_eq!(d.cache_hits, 3);
        assert_eq!(d.per_cluster[0], 2);
    }
}
