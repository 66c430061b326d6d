//! Simulator configuration (paper §III).
//!
//! XMTSim is highly configurable: number of TCUs and clusters, cache
//! sizes, DRAM bandwidth and the *relative clock frequencies of
//! components* are all parameters. Two built-in configurations mirror the
//! paper's: the 64-TCU Paraleap FPGA prototype used for verification, and
//! the envisioned 1024-TCU XMT chip used in the GPU comparisons.

use crate::cycle::cachesim::MAX_ASSOC;
use xmt_harness::{json_enum, json_struct};

/// Replacement policy of the TCU prefetch buffers (the design-space knob
/// explored in the paper's reference \[8\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Evict the oldest-inserted entry.
    Fifo,
    /// Evict the least-recently-used entry.
    Lru,
}

json_enum!(PrefetchPolicy { Fifo, Lru });

/// Timing discipline of the interconnection network switches
/// (paper §III-F: the asynchronous-interconnect study with Columbia,
/// following ref \[39\] — a GALS mesh-of-trees).
///
/// Discrete-*event* simulation makes the asynchronous variant possible at
/// all: switch delays are continuous picosecond values, not multiples of
/// a clock period, which a discrete-time simulator cannot represent
/// (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcnTiming {
    /// Clocked switches: every hop takes one ICN-domain cycle.
    Synchronous,
    /// Self-timed switches: each hop completes after `hop_ps` plus a
    /// deterministic data-dependent component of up to `jitter_ps`
    /// (handshake completion varies with the data pattern).
    Asynchronous { hop_ps: u64, jitter_ps: u64 },
}

json_enum!(IcnTiming { Synchronous, Asynchronous { hop_ps, jitter_ps } });

/// How the cycle model moves packages across the ICN.
///
/// Both timing disciplines have closed-form hop delays (one ICN cycle, or
/// `hop_ps` plus a deterministic hash of `(addr, stage)`), so a leg's total
/// traversal time can be computed analytically when the package enters the
/// network. `Express` does exactly that and schedules a single
/// end-of-leg event; `PerHop` walks one event per switch stage — the
/// original, mechanically-obvious model, kept as the differential oracle
/// (like `engine::baseline::HeapScheduler` for the calendar queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcnModel {
    /// Closed-form leg scheduling: one event per network traversal.
    Express,
    /// One event per switch stage (the reference model).
    PerHop,
}

json_enum!(IcnModel { Express, PerHop });

/// How the cycle model turns issued instructions into scheduler events.
///
/// Straight-line runs of pure local ops (ALU/shift/immediate/branch) have
/// closed-form aggregate latency: nothing they do is observable by any
/// other component until the run ends at a memory op, a shared-FU op, a
/// prefix-sum, spawn control, or a timing boundary (sample tick, cycle
/// limit, checkpoint target). `Burst` executes such a run functionally in
/// one go and schedules a single step event at the aggregate completion
/// time; `PerInstr` walks one event per instruction — the original,
/// mechanically-obvious model, kept as the differential oracle (like
/// `IcnModel::PerHop` for the express network path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueModel {
    /// Batch straight-line compute runs into single step events.
    Burst,
    /// One scheduler event per issued instruction (the reference model).
    PerInstr,
}

json_enum!(IssueModel { Burst, PerInstr });

/// The memory-system event model. One scheduler event per request is the
/// only model; the enum exists only because `bench/e2e` names
/// `MemModel::PerRequest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemModel {
    /// One scheduler event per request.
    PerRequest,
}

json_enum!(MemModel { PerRequest });

/// How the cycle model drives its event loop across host threads.
///
/// `Parallel` shards the chip — TCU clusters (with their step/completion
/// traffic) and cache-module slices each own a calendar-queue scheduler —
/// and advances all shards in lock-step `(time, priority)` windows,
/// offloading straight-line compute bursts to a worker pool. Events carry
/// a single global sequence number, so the cross-shard merge reproduces
/// the sequential engine's `(time, priority, seq)` order exactly: the
/// parallel engine is bit-identical to `Sequential`, which survives
/// untouched as the differential oracle (like `PerInstr` and `PerHop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Single-threaded event loop (the reference engine).
    Sequential,
    /// Sharded lock-step engine over `threads` worker threads.
    Parallel,
}

json_enum!(EngineMode {
    Sequential,
    Parallel
});

/// Whether burst/functional execution may replay pre-decoded basic
/// blocks instead of re-interpreting `Instr` per instruction.
///
/// `Cache` decodes each basic block once into a flat `Vec<DecodedOp>`
/// (dense tags, resolved operands, fused superinstructions) and replays
/// the slice on later visits — bit-identical to interpreted issue by
/// construction and by the `decode_diff` differential suite. `Off`
/// disables the cache entirely; E1's Table I reference runs pin it `Off`
/// alongside `PerInstr` + `PerHop` to preserve the paper's cost profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeMode {
    /// Pre-decode basic blocks and replay them (the default).
    Cache,
    /// Always walk `Instr` through the interpreted issue path.
    Off,
}

json_enum!(DecodeMode { Cache, Off });

/// How much the observability layer (`crate::obs`) records.
///
/// Observability is a pure *observer*: unlike tracers and filter
/// plug-ins it never degrades burst issue or invalidates the decode
/// cache, and every hook is equivalence-preserving — the
/// `obs_diff` differential suite proves runs with it enabled are
/// bit-identical (cycles, simulated time, stats JSON, machine image) to
/// runs with it `Off`, under both engines. `Off` is a true zero: no
/// recorder is allocated and every hook is a single `Option` test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsDetail {
    /// No observability state at all (the default).
    Off,
    /// Simulated-time tracks only: TCU occupancy, parallel sections, ICN
    /// flights, cache-queue depths, DVFS markers, metric samples.
    Spans,
    /// `Spans` plus host-time tracks: scheduler windows, parallel-engine
    /// offload barriers, decode-cache replays.
    Full,
}

json_enum!(ObsDetail { Off, Spans, Full });

/// The four independent clock domains whose frequencies an activity
/// plug-in may retune at runtime (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ClockDomain {
    /// TCU clusters (and the Master TCU).
    Cluster = 0,
    /// Interconnection network.
    Icn = 1,
    /// Shared cache modules.
    Cache = 2,
    /// DRAM controllers.
    Dram = 3,
}

json_enum!(ClockDomain {
    Cluster,
    Icn,
    Cache,
    Dram
});

impl ClockDomain {
    /// All domains in index order.
    pub const ALL: [ClockDomain; 4] = [
        ClockDomain::Cluster,
        ClockDomain::Icn,
        ClockDomain::Cache,
        ClockDomain::Dram,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClockDomain::Cluster => "cluster",
            ClockDomain::Icn => "icn",
            ClockDomain::Cache => "cache",
            ClockDomain::Dram => "dram",
        }
    }
}

/// Full parameterization of the simulated XMT chip.
///
/// All latencies are expressed in cycles of the owning component's clock
/// domain; periods convert them to simulated picoseconds, so changing a
/// domain frequency at runtime rescales exactly the work still to come.
#[derive(Debug, Clone, PartialEq)]
pub struct XmtConfig {
    // ---- topology ----
    /// Number of TCU clusters.
    pub clusters: u32,
    /// TCUs per cluster.
    pub tcus_per_cluster: u32,
    /// Number of mutually-exclusive shared cache modules.
    pub cache_modules: u32,
    /// Number of off-chip DRAM channels.
    pub dram_channels: u32,

    // ---- clock domains (periods in picoseconds) ----
    /// Period of each clock domain, indexed by [`ClockDomain`].
    pub period_ps: [u64; 4],

    // ---- shared L1 cache modules ----
    /// Capacity of one cache module in KiB.
    pub cache_module_kb: u32,
    /// Associativity of the cache modules.
    pub cache_assoc: u32,
    /// Cache line size in bytes (applies to every cache in the system).
    pub line_bytes: u32,
    /// Cache-module hit/tag-check latency (cache cycles).
    pub cache_hit_latency: u32,

    // ---- DRAM ----
    /// DRAM access latency (DRAM cycles).
    pub dram_latency: u32,
    /// Channel occupancy per line transfer (DRAM cycles) — the inverse of
    /// per-channel bandwidth.
    pub dram_service: u32,

    // ---- interconnection network ----
    /// One-way ICN traversal latency (ICN cycles); 0 derives
    /// `2·log2(clusters) + 2` from the mesh-of-trees depth.
    pub icn_latency: u32,
    /// Switch timing discipline (synchronous clock vs self-timed).
    pub icn_timing: IcnTiming,
    /// Package-movement model (closed-form express vs per-hop walk).
    pub icn_model: IcnModel,
    /// Instruction-issue model (compute-burst batching vs per-instruction).
    pub issue_model: IssueModel,
    /// Has one legal value; exists only because `bench/e2e` sets it.
    pub mem_model: MemModel,
    /// Event-loop engine (sequential reference vs sharded parallel).
    pub engine_mode: EngineMode,
    /// Worker threads for [`EngineMode::Parallel`]; clamped to the
    /// cluster count at run time. Ignored by `Sequential`.
    pub threads: u32,
    /// Pre-decoded basic-block cache (burst + functional replay).
    pub decode_cache: DecodeMode,
    /// Observability recording level (timeline + metric samples).
    pub obs_detail: ObsDetail,

    // ---- per-cluster shared units ----
    /// Multiply latency on the cluster MDU (cluster cycles, pipelined).
    pub mul_latency: u32,
    /// Divide latency on the cluster MDU (cluster cycles, unpipelined).
    pub div_latency: u32,
    /// FP add/sub latency (cluster cycles, pipelined).
    pub fpu_add_latency: u32,
    /// FP multiply latency (cluster cycles, pipelined).
    pub fpu_mul_latency: u32,
    /// FP divide latency (cluster cycles, unpipelined).
    pub fpu_div_latency: u32,
    /// FP move/convert/compare latency (cluster cycles).
    pub fpu_misc_latency: u32,

    // ---- latency-tolerating structures ----
    /// Entries in each TCU prefetch buffer.
    pub prefetch_entries: u32,
    /// Prefetch buffer replacement policy.
    pub prefetch_policy: PrefetchPolicy,
    /// Capacity of the per-cluster read-only cache in KiB.
    pub ro_cache_kb: u32,
    /// Read-only cache hit latency (cluster cycles).
    pub ro_hit_latency: u32,

    // ---- master TCU ----
    /// Master cache capacity in KiB.
    pub master_cache_kb: u32,
    /// Master cache associativity.
    pub master_cache_assoc: u32,
    /// Master cache hit latency (cluster cycles).
    pub master_hit_latency: u32,

    // ---- prefix-sum and spawn hardware ----
    /// Latency of a `ps` through the global prefix-sum unit (cluster
    /// cycles). Throughput is unbounded: the hardware combines all
    /// same-cycle requests in a parallel-prefix tree.
    pub ps_latency: u32,
    /// Fixed overhead of entering/leaving a parallel section (cluster
    /// cycles), covering spawn setup and join detection.
    pub spawn_overhead: u32,
    /// Spawn-block instructions broadcast per cluster cycle.
    pub broadcast_ipc: u32,
}

json_struct!(XmtConfig {
    clusters,
    tcus_per_cluster,
    cache_modules,
    dram_channels,
    period_ps,
    cache_module_kb,
    cache_assoc,
    line_bytes,
    cache_hit_latency,
    dram_latency,
    dram_service,
    icn_latency,
    icn_timing,
    icn_model,
    issue_model,
    mem_model,
    engine_mode,
    threads,
    decode_cache,
    obs_detail,
    mul_latency,
    div_latency,
    fpu_add_latency,
    fpu_mul_latency,
    fpu_div_latency,
    fpu_misc_latency,
    prefetch_entries,
    prefetch_policy,
    ro_cache_kb,
    ro_hit_latency,
    master_cache_kb,
    master_cache_assoc,
    master_hit_latency,
    ps_latency,
    spawn_overhead,
    broadcast_ipc,
});

impl XmtConfig {
    /// Total number of TCUs.
    pub fn n_tcus(&self) -> u32 {
        self.clusters * self.tcus_per_cluster
    }

    /// Effective one-way ICN latency in ICN cycles.
    pub fn icn_oneway(&self) -> u32 {
        if self.icn_latency != 0 {
            self.icn_latency
        } else {
            2 * (32 - u32::leading_zeros(self.clusters.max(2) - 1)) + 2
        }
    }

    /// The cluster index that owns TCU `t`.
    pub fn cluster_of(&self, tcu: u32) -> u32 {
        tcu / self.tcus_per_cluster
    }

    /// Map a byte address to its cache module.
    ///
    /// The load-store unit hashes addresses to spread consecutive lines
    /// over the modules and avoid hotspots (paper §II). A multiplicative
    /// hash of the line address keeps the mapping deterministic.
    pub fn module_of(&self, addr: u32) -> u32 {
        let line = addr / self.line_bytes;
        let h = line.wrapping_mul(0x9e37_79b9);
        // Take high bits: the low bits of a multiplicative hash are weak.
        (h >> 16) % self.cache_modules
    }

    /// Whether every operation a TCU or the master can issue takes at
    /// least one cycle (no FU, `ps`, RO-cache, master-cache or spawn
    /// latency is zero), so that no context issues twice at one instant.
    /// The cycle model's in-place resume of a completed TCU and its
    /// instruction-limit headroom rest on it (DESIGN §16); the presets
    /// all satisfy it.
    pub fn one_issue_per_cycle(&self) -> bool {
        [
            self.mul_latency,
            self.div_latency,
            self.fpu_add_latency,
            self.fpu_mul_latency,
            self.fpu_div_latency,
            self.fpu_misc_latency,
            self.ps_latency,
            self.ro_hit_latency,
            self.master_hit_latency,
            self.spawn_overhead,
        ]
        .iter()
        .all(|&l| l > 0)
    }

    /// Sanity-check structural invariants; call after hand-editing.
    pub fn validate(&self) -> Result<(), String> {
        if self.clusters == 0 || self.tcus_per_cluster == 0 {
            return Err("need at least one cluster and one TCU".into());
        }
        if !self.clusters.is_power_of_two() {
            return Err("cluster count must be a power of two (mesh-of-trees)".into());
        }
        if self.cache_modules == 0 {
            return Err("need at least one cache module".into());
        }
        if self.dram_channels == 0 {
            // Every cache miss picks a channel via `module % dram_channels`;
            // zero channels would divide by zero at the first miss.
            return Err(
                "dram_channels must be ≥ 1: every cache miss selects a DRAM \
                 channel, so a zero-channel chip cannot service misses"
                    .into(),
            );
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 4 {
            return Err("line size must be a power of two ≥ 4".into());
        }
        if self.period_ps.contains(&0) {
            return Err("clock periods must be nonzero".into());
        }
        if self.cache_assoc == 0 || self.master_cache_assoc == 0 {
            return Err("associativity must be nonzero".into());
        }
        if self.cache_assoc.max(self.master_cache_assoc) > MAX_ASSOC {
            return Err(format!("associativity must be at most {MAX_ASSOC}"));
        }
        if self.broadcast_ipc == 0 {
            return Err("broadcast ipc must be nonzero".into());
        }
        if self.engine_mode == EngineMode::Parallel && self.threads == 0 {
            return Err("parallel engine needs at least one worker thread".into());
        }
        Ok(())
    }

    /// The 64-TCU Paraleap FPGA prototype (8 clusters × 8 TCUs) — the
    /// configuration XMTSim was verified against.
    pub fn fpga64() -> Self {
        XmtConfig {
            clusters: 8,
            tcus_per_cluster: 8,
            cache_modules: 8,
            dram_channels: 1,
            period_ps: [1000; 4], // uniform 1 GHz-equivalent
            cache_module_kb: 32,
            cache_assoc: 2,
            line_bytes: 32,
            cache_hit_latency: 2,
            dram_latency: 40,
            dram_service: 8,
            icn_latency: 0, // derived: 2·log2(8)+2 = 8
            icn_timing: IcnTiming::Synchronous,
            icn_model: IcnModel::Express,
            issue_model: IssueModel::Burst,
            mem_model: MemModel::PerRequest,
            engine_mode: EngineMode::Sequential,
            threads: 4,
            decode_cache: DecodeMode::Cache,
            obs_detail: ObsDetail::Off,
            mul_latency: 3,
            div_latency: 16,
            fpu_add_latency: 4,
            fpu_mul_latency: 4,
            fpu_div_latency: 16,
            fpu_misc_latency: 2,
            prefetch_entries: 4,
            prefetch_policy: PrefetchPolicy::Fifo,
            ro_cache_kb: 4,
            ro_hit_latency: 2,
            master_cache_kb: 32,
            master_cache_assoc: 4,
            master_hit_latency: 2,
            ps_latency: 6,
            spawn_overhead: 12,
            broadcast_ipc: 4,
        }
    }

    /// The envisioned 1024-TCU XMT chip (64 clusters × 16 TCUs) used in
    /// the paper's GPU comparisons and in Table I.
    pub fn chip1024() -> Self {
        XmtConfig {
            clusters: 64,
            tcus_per_cluster: 16,
            cache_modules: 64,
            dram_channels: 8,
            period_ps: [1000; 4],
            cache_module_kb: 64,
            cache_assoc: 4,
            line_bytes: 32,
            cache_hit_latency: 3,
            dram_latency: 60,
            dram_service: 8,
            icn_latency: 0, // derived: 2·log2(64)+2 = 14
            icn_timing: IcnTiming::Synchronous,
            icn_model: IcnModel::Express,
            issue_model: IssueModel::Burst,
            mem_model: MemModel::PerRequest,
            engine_mode: EngineMode::Sequential,
            threads: 4,
            decode_cache: DecodeMode::Cache,
            obs_detail: ObsDetail::Off,
            mul_latency: 3,
            div_latency: 16,
            fpu_add_latency: 4,
            fpu_mul_latency: 4,
            fpu_div_latency: 16,
            fpu_misc_latency: 2,
            prefetch_entries: 8,
            prefetch_policy: PrefetchPolicy::Fifo,
            ro_cache_kb: 8,
            ro_hit_latency: 2,
            master_cache_kb: 64,
            master_cache_assoc: 4,
            master_hit_latency: 2,
            ps_latency: 8,
            spawn_overhead: 16,
            broadcast_ipc: 4,
        }
    }

    /// A deliberately tiny machine (2 clusters × 2 TCUs) for fast unit
    /// tests.
    pub fn tiny() -> Self {
        XmtConfig {
            clusters: 2,
            tcus_per_cluster: 2,
            cache_modules: 2,
            dram_channels: 1,
            cache_module_kb: 1,
            master_cache_kb: 1,
            ro_cache_kb: 1,
            ..Self::fpga64()
        }
    }
}

impl Default for XmtConfig {
    fn default() -> Self {
        Self::fpga64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        XmtConfig::fpga64().validate().unwrap();
        XmtConfig::chip1024().validate().unwrap();
        XmtConfig::tiny().validate().unwrap();
    }

    #[test]
    fn preset_shapes_match_paper() {
        assert_eq!(XmtConfig::fpga64().n_tcus(), 64);
        assert_eq!(XmtConfig::chip1024().n_tcus(), 1024);
        assert_eq!(XmtConfig::fpga64().icn_oneway(), 8);
        assert_eq!(XmtConfig::chip1024().icn_oneway(), 14);
    }

    #[test]
    fn module_hash_spreads_consecutive_lines() {
        let c = XmtConfig::chip1024();
        // Consecutive lines of a big array should not all land on one
        // module (the hotspot the hashing avoids).
        let mut counts = vec![0u32; c.cache_modules as usize];
        for k in 0..4096u32 {
            counts[c.module_of(0x1000_0000 + k * c.line_bytes) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < 3 * (min + 1), "unbalanced: min={min} max={max}");
        // Same address always maps to the same module (determinism).
        assert_eq!(c.module_of(0x1234_5678 & !3), c.module_of(0x1234_5678 & !3));
        // Addresses within one line map together.
        assert_eq!(c.module_of(0x1000_0000), c.module_of(0x1000_001c));
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = XmtConfig::tiny();
        c.clusters = 3;
        assert!(c.validate().is_err());
        let mut c = XmtConfig::tiny();
        c.line_bytes = 24;
        assert!(c.validate().is_err());
        let mut c = XmtConfig::tiny();
        c.period_ps[2] = 0;
        assert!(c.validate().is_err());
        let mut c = XmtConfig::tiny();
        c.engine_mode = EngineMode::Parallel;
        c.threads = 0;
        assert!(c.validate().is_err());
    }

    /// Regression: `dram_channels = 0` used to pass validation (only the
    /// combined cache/DRAM check existed) and then panic with a
    /// divide-by-zero inside `arrive()` at the first cache miss. It must
    /// be rejected up front with a message naming the channel count.
    #[test]
    fn zero_dram_channels_is_rejected_with_a_specific_error() {
        let mut c = XmtConfig::tiny();
        c.dram_channels = 0;
        let err = c.validate().unwrap_err();
        assert!(err.contains("dram_channels"), "unspecific error: {err}");
        assert!(
            err.contains("miss"),
            "error should explain the failure mode: {err}"
        );
    }

    /// Regression for the `decode_cache` field: presets default to
    /// `Cache`, the knob round-trips through config JSON, and a JSON
    /// image naming either mode loads to that mode and validates.
    #[test]
    fn decode_cache_field_loads_from_json() {
        use xmt_harness::{FromJson, ToJson};

        assert_eq!(XmtConfig::fpga64().decode_cache, DecodeMode::Cache);
        assert_eq!(XmtConfig::chip1024().decode_cache, DecodeMode::Cache);
        assert_eq!(XmtConfig::tiny().decode_cache, DecodeMode::Cache);

        let mut c = XmtConfig::tiny();
        c.decode_cache = DecodeMode::Off;
        let text = c.to_json_string();
        assert!(
            text.contains("decode_cache"),
            "field missing from JSON: {text}"
        );
        let back = XmtConfig::from_json_str(&text).unwrap();
        assert_eq!(back, c);
        back.validate().unwrap();

        let text = text.replace("\"decode_cache\":\"Off\"", "\"decode_cache\":\"Cache\"");
        let back = XmtConfig::from_json_str(&text).unwrap();
        assert_eq!(back.decode_cache, DecodeMode::Cache);
        back.validate().unwrap();
    }

    /// `mem_model` has one legal value: presets carry it and it
    /// round-trips through config JSON.
    #[test]
    fn mem_model_field_loads_from_json() {
        use xmt_harness::{FromJson, ToJson};

        assert_eq!(XmtConfig::fpga64().mem_model, MemModel::PerRequest);
        assert_eq!(XmtConfig::chip1024().mem_model, MemModel::PerRequest);
        let c = XmtConfig::tiny();
        let text = c.to_json_string();
        assert!(text.contains("\"mem_model\":\"PerRequest\""), "{text}");
        assert_eq!(XmtConfig::from_json_str(&text).unwrap(), c);
    }

    /// A config written when the `Macro` memory model existed is rejected
    /// with an error naming the removed model — not a panic, and not a
    /// silent fall-back to the per-request model.
    #[test]
    fn removed_macro_mem_model_is_rejected_by_name() {
        use xmt_harness::{FromJson, ToJson};

        let text = XmtConfig::tiny()
            .to_json_string()
            .replace("\"mem_model\":\"PerRequest\"", "\"mem_model\":\"Macro\"");
        let err = XmtConfig::from_json_str(&text).unwrap_err().to_string();
        assert!(
            err.contains("mem_model") && err.contains("Macro"),
            "unspecific error: {err}"
        );
    }

    /// The `obs_detail` knob follows the same contract as `decode_cache`:
    /// presets default to `Off`, the field round-trips through config
    /// JSON, and a JSON image naming any level loads to that level.
    #[test]
    fn obs_detail_field_loads_from_json() {
        use xmt_harness::{FromJson, ToJson};

        assert_eq!(XmtConfig::fpga64().obs_detail, ObsDetail::Off);
        assert_eq!(XmtConfig::chip1024().obs_detail, ObsDetail::Off);
        assert_eq!(XmtConfig::tiny().obs_detail, ObsDetail::Off);

        let mut c = XmtConfig::tiny();
        c.obs_detail = ObsDetail::Full;
        let text = c.to_json_string();
        assert!(text.contains("obs_detail"), "field missing from JSON: {text}");
        let back = XmtConfig::from_json_str(&text).unwrap();
        assert_eq!(back, c);
        back.validate().unwrap();

        let text = text.replace("\"Full\"", "\"Spans\"");
        let back = XmtConfig::from_json_str(&text).unwrap();
        assert_eq!(back.obs_detail, ObsDetail::Spans);
        back.validate().unwrap();
    }
}
