//! Mid-flight checkpoints (ISSUE 3 satellite): `run_to_checkpoint_anytime`
//! can stop at *any* event-group boundary — in the middle of a parallel
//! section, with packages still traversing the ICN — and the saved
//! [`InflightState`] (pending events, express legs, line-busy map, spawn
//! bookkeeping) must round-trip through JSON and resume to the exact same
//! final cycles, statistics and machine state as the uninterrupted run.
//! Exercised under both package-movement models.

use xmt_core::Toolchain;
use xmt_harness::{FromJson, Json, ToJson};
use xmtsim::checkpoint::{Checkpoint, CheckpointOutcome};
use xmtsim::cycle::RunSummary;
use xmtsim::{CycleSim, DecodeMode, IcnModel, XmtConfig};

fn memory_heavy_program() -> xmt_core::Compiled {
    // One long parallel section saturating the ICN, so a mid-section
    // checkpoint is guaranteed to catch packages in flight.
    let src = "
        int A[512]; int H[8]; int N = 512;
        void main() {
            spawn(0, N - 1) {
                int one = 1;
                A[$] = A[$] + $;
                psm(one, H[$ % 8]);
                A[(($ * 7) % N)] = A[(($ * 7) % N)] + 1;
            }
            int sum = 0;
            for (int i = 0; i < N; i++) { sum += A[i]; }
            print(sum);
        }
    ";
    Toolchain::new().compile(src).unwrap()
}

fn compute_heavy_program() -> xmt_core::Compiled {
    // Compute-bound virtual threads: tight local loops so the decode
    // cache is hot and a mid-run stop lands inside decoded replay.
    let src = "
        int A[64]; int N = 64;
        void main() {
            spawn(0, N - 1) {
                int acc = 0;
                for (int i = 0; i < 40; i++) { acc += i * 3 + 1; }
                A[$] = acc + $;
            }
            int sum = 0;
            for (int i = 0; i < N; i++) { sum += A[i]; }
            print(sum);
        }
    ";
    Toolchain::new().compile(src).unwrap()
}

fn config(model: IcnModel) -> XmtConfig {
    let mut cfg = XmtConfig::fpga64();
    cfg.icn_model = model;
    cfg
}

fn check_model(model: IcnModel) {
    let cfg = config(model);
    let compiled = memory_heavy_program();

    // Reference: run straight through.
    let mut full = compiled.simulator(&cfg);
    let full_sum = full.run().unwrap();
    let full_stats = full.stats.to_json_string();
    let full_machine = full.machine.to_json_string();

    // Stop mid-parallel-section at several instants — whichever event
    // boundary comes first past each target. Every one must resume
    // bit-identically; under the express model at least one of them
    // must catch closed-form legs mid-traversal.
    let mut saw_legs = false;
    for eighths in 2..=6u64 {
        let target = full_sum.cycles * eighths / 8;
        let mut first = compiled.simulator(&cfg);
        let ckpt = match first.run_to_checkpoint_anytime(target).unwrap() {
            CheckpointOutcome::Checkpoint(c) => c,
            CheckpointOutcome::Done(_) => panic!("program ended before the checkpoint"),
        };
        assert!(
            !ckpt.is_quiescent(),
            "a mid-section stop must capture in-flight state ({model:?})"
        );
        assert!(
            ckpt.inflight.pending_events() > 0,
            "pending events travel with the checkpoint"
        );
        let legs = ckpt.inflight.express_legs_in_flight();
        match model {
            IcnModel::Express => saw_legs |= legs > 0,
            IcnModel::PerHop => assert_eq!(legs, 0, "oracle never builds express legs"),
        }

        // The in-flight snapshot must survive serialization bit-for-bit.
        let json = ckpt.to_json();
        let restored = xmtsim::checkpoint::Checkpoint::from_json(&json).unwrap();
        assert_eq!(
            *ckpt, restored,
            "inflight checkpoint JSON round trip ({model:?})"
        );

        // Resume in a fresh simulator: bit-identical end of run.
        let mut resumed = CycleSim::resume(compiled.executable().clone(), cfg.clone(), restored);
        let resumed_sum = resumed.run().unwrap();
        assert_eq!(
            resumed_sum.cycles, full_sum.cycles,
            "cycle-exact mid-flight resume ({model:?}, target {target})"
        );
        assert_eq!(resumed_sum.time_ps, full_sum.time_ps);
        assert_eq!(resumed_sum.instructions, full_sum.instructions);
        assert_eq!(
            resumed.stats.to_json_string(),
            full_stats,
            "stats JSON ({model:?})"
        );
        assert_eq!(
            resumed.machine.to_json_string(),
            full_machine,
            "machine state ({model:?})"
        );

        // Taking the snapshot must not perturb the donor simulator either.
        let finished = first.run().unwrap();
        assert_eq!(
            finished.cycles, full_sum.cycles,
            "donor continues unperturbed ({model:?})"
        );
        assert_eq!(first.machine.to_json_string(), full_machine);
    }
    if model == IcnModel::Express {
        assert!(
            saw_legs,
            "no probed checkpoint caught an express leg in flight"
        );
    }
}

#[test]
fn inflight_checkpoint_resumes_exactly_express() {
    check_model(IcnModel::Express);
}

#[test]
fn inflight_checkpoint_resumes_exactly_perhop() {
    check_model(IcnModel::PerHop);
}

/// Decode-cache satellite (ISSUE 8): a mid-flight checkpoint taken while
/// decoded replay is fast-forwarding compute bursts must resume
/// bit-identically whether the resuming simulator re-enables the cache
/// or runs interpreted — and vice versa, a cache-off donor's checkpoint
/// resumes identically under cache-on. The cache itself never travels in
/// the image: donors in either mode serialize byte-identical
/// checkpoints, and a resumed cache rebuilds deterministically from the
/// immutable program text.
#[test]
fn decode_cache_checkpoint_resumes_under_both_modes() {
    let compiled = compute_heavy_program();
    let with_decode = |decode: DecodeMode| {
        let mut cfg = config(IcnModel::Express);
        cfg.decode_cache = decode;
        cfg
    };

    // Reference: the interpreted oracle straight through.
    let mut full = compiled.simulator(&with_decode(DecodeMode::Off));
    let full_sum = full.run().unwrap();
    let full_stats = full.stats.to_json_string();
    let full_machine = full.machine.to_json_string();

    let target = full_sum.cycles / 2;
    let snapshot = |decode: DecodeMode| {
        let mut sim = compiled.simulator(&with_decode(decode));
        sim.enable_host_profiling();
        let ckpt = match sim.run_to_checkpoint_anytime(target).unwrap() {
            CheckpointOutcome::Checkpoint(c) => c,
            CheckpointOutcome::Done(_) => panic!("program ended before the checkpoint"),
        };
        (ckpt.to_json(), sim.host_profile().unwrap().replay_instrs)
    };
    let (cache_json, cache_replays) = snapshot(DecodeMode::Cache);
    let (off_json, off_replays) = snapshot(DecodeMode::Off);
    assert!(
        cache_replays > 0,
        "the donor should reach the checkpoint through decoded replay"
    );
    assert_eq!(off_replays, 0, "cache-off donor must never replay");
    assert_eq!(
        cache_json, off_json,
        "decode state must not leak into the checkpoint bytes"
    );

    for resume_mode in [DecodeMode::Cache, DecodeMode::Off] {
        let restored = xmtsim::checkpoint::Checkpoint::from_json(&cache_json).unwrap();
        let cfg = with_decode(resume_mode);
        let mut resumed = CycleSim::resume(compiled.executable().clone(), cfg, restored);
        resumed.enable_host_profiling();
        let sum = resumed.run().unwrap();
        assert_eq!(
            (sum.cycles, sum.time_ps, sum.instructions),
            (full_sum.cycles, full_sum.time_ps, full_sum.instructions),
            "resume under {resume_mode:?} must finish cycle-exact"
        );
        assert_eq!(
            resumed.stats.to_json_string(),
            full_stats,
            "stats JSON ({resume_mode:?})"
        );
        assert_eq!(
            resumed.machine.to_json_string(),
            full_machine,
            "machine ({resume_mode:?})"
        );
        let replays = resumed.host_profile().unwrap().replay_instrs;
        match resume_mode {
            DecodeMode::Cache => {
                assert!(
                    replays > 0,
                    "a cache-on resume should rebuild blocks and replay"
                )
            }
            DecodeMode::Off => assert_eq!(replays, 0, "a cache-off resume must stay interpreted"),
        }
    }
}

/// Mid-flight checkpoints compose with the quiescent flavour: a
/// quiescent `run_to_checkpoint` still produces an empty in-flight
/// record (the legacy restore path), and `is_quiescent` tells the two
/// apart.
#[test]
fn quiescent_checkpoints_stay_quiescent() {
    let cfg = config(IcnModel::Express);
    let compiled = memory_heavy_program();
    let mut ref_sim = compiled.simulator(&cfg);
    let want = ref_sim.run().unwrap();

    let mut sim = compiled.simulator(&cfg);
    let ckpt = match sim.run_to_checkpoint(want.cycles / 2).unwrap() {
        CheckpointOutcome::Checkpoint(c) => c,
        CheckpointOutcome::Done(_) => panic!("ended early"),
    };
    assert!(
        ckpt.is_quiescent(),
        "run_to_checkpoint waits for a quiescent instant"
    );
    assert_eq!(ckpt.inflight.pending_events(), 0);

    let mut resumed = CycleSim::resume(compiled.executable().clone(), cfg, *ckpt.clone());
    let resumed_sum = resumed.run().unwrap();
    assert_eq!(resumed_sum.cycles, want.cycles);
    assert_eq!(resumed.machine.output, ref_sim.machine.output);
}

/// The program behind `fixtures/parent_inflight_*.json`: hand-written
/// assembly and memory map, so that neither a compiler change nor a
/// preset other than `tiny` can move it.
const FIXTURE_ASM: &str = r"
main:
    li $a0, 0
    li $a1, 63
    li $s0, 268435456    # A
    li $s1, 268435712    # H = A + 64 words
    spawn $a0, $a1
vt:
    li $t0, 1
    ps $t0, gr0
    chkid $t0
    sll $t1, $t0, 2
    add $t1, $t1, $s0
    lw $t2, 0($t1)
    add $t2, $t2, $t0
    swnb $t2, 0($t1)
    andi $t3, $t0, 3
    sll $t3, $t3, 2
    add $t3, $t3, $s1
    li $t4, 1
    psm $t4, 0($t3)
    j vt
    join
    lw $t5, 0($s1)
    print $t5
    halt
";

fn fixture_memmap() -> xmt_isa::MemoryMap {
    let mut mm = xmt_isa::MemoryMap::new();
    mm.push("A", (1..=64).collect());
    mm.push("H", vec![0; 4]);
    mm
}

/// The checkpoint JSON is the compatibility surface, not the in-memory
/// layout of `Memory`, `CacheTags` or the express-leg chains. The two
/// fixtures were written by the binary of commit f9027ed — the last one
/// with a `BTreeMap` memory, per-set `Vec` tags and `Vec` chains — from
/// the program above on `XmtConfig::tiny()`: its mid-flight checkpoint at
/// half the run (express legs in flight), and the summary, statistics and
/// machine image of its uninterrupted run. This binary must read that
/// checkpoint, write the same bytes for the same stop, and finish where
/// the parent finished.
#[test]
fn parent_written_checkpoint_is_read_rewritten_and_resumed() {
    const CKPT: &str = include_str!("fixtures/parent_inflight_checkpoint.json");
    const FINAL: &str = include_str!("fixtures/parent_inflight_final.json");
    let exe = xmt_isa::asm::parse(FIXTURE_ASM).unwrap().link(fixture_memmap()).unwrap();
    let cfg = XmtConfig::tiny();
    let expected = Json::parse(FINAL).unwrap();
    let field = |name: &str| {
        let members = expected.as_obj().unwrap();
        &members.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no `{name}`")).1
    };

    let restored = Checkpoint::from_json(CKPT).unwrap();
    assert!(restored.inflight.express_legs_in_flight() > 0, "fixture is mid-flight");
    assert_eq!(restored.to_json(), CKPT, "decode → encode reproduces the parent's bytes");

    let stop = u64::from_json(field("stop_cycle")).unwrap();
    let mut donor = CycleSim::new(exe.clone(), cfg.clone());
    let own = match donor.run_to_checkpoint_anytime(stop).unwrap() {
        CheckpointOutcome::Checkpoint(c) => c,
        CheckpointOutcome::Done(_) => panic!("program ended before the checkpoint"),
    };
    assert_eq!(own.to_json(), CKPT, "same program, config and stop: same checkpoint bytes");

    let mut resumed = CycleSim::resume(exe, cfg, restored);
    let summary = resumed.run().unwrap();
    let want = RunSummary::from_json(field("summary")).unwrap();
    // `events` counts the events of this process, not of the whole run.
    assert_eq!(
        (summary.cycles, summary.time_ps, summary.instructions),
        (want.cycles, want.time_ps, want.instructions)
    );
    assert_eq!(resumed.stats.to_json_string(), field("stats").encode(), "stats JSON");
    assert_eq!(resumed.machine.to_json_string(), field("machine").encode(), "machine image");
}

/// The member at dotted `path` (object keys, array indices) of `j`.
fn at<'a>(j: &'a mut Json, path: &str) -> &'a mut Json {
    path.split('.').fold(j, |cur, key| match cur {
        Json::Obj(members) => {
            let member = members.iter_mut().find(|(k, _)| k == key);
            &mut member.unwrap_or_else(|| panic!("no `{key}`")).1
        }
        Json::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
        other => panic!("`{key}` of {other:?}"),
    })
}

/// A checkpoint that does not fit the machine is an `Err` from
/// `try_resume` — one line naming what is wrong — not a panic in the run
/// loop: one mutation of the parent-written fixture per rule.
#[test]
fn hostile_checkpoints_are_rejected_by_try_resume() {
    const CKPT: &str = include_str!("fixtures/parent_inflight_checkpoint.json");
    let exe = xmt_isa::asm::parse(FIXTURE_ASM).unwrap().link(fixture_memmap()).unwrap();
    let cfg = XmtConfig::tiny();
    let fixture = Json::parse(CKPT).unwrap();
    let Json::I(time) = *at(&mut fixture.clone(), "time") else { panic!("time") };
    let pop = |j: &mut Json, path: &str| match at(j, path) {
        Json::Arr(items) => drop(items.pop()),
        other => panic!("{path} is {other:?}"),
    };
    let set = |j: &mut Json, path: &str, v: &str| *at(j, path) = Json::parse(v).unwrap();
    let set_time = |j: &mut Json, path: &str, t: i64| *at(j, path) = Json::I(t);
    let service = format!(
        r#"{{"Service":{{"tcu":0,"req":{},"done":{},"issued_at":0}}}}"#,
        at(&mut fixture.clone(), "inflight.mem_ops.0.Done.req").encode(),
        time + 5
    );
    const LEG_END: &str = r#"{"ExpressEnd":{"leg":0,"gen":1}}"#;
    const WAITER: &str = r#"[{"tcu":9,"addr":0,"waiters":[]}]"#;
    type Mutation<'a> = (&'a str, Box<dyn Fn(&mut Json) + 'a>);
    let mutations: Vec<Mutation> = vec![
        ("`tcus` entries", Box::new(|j| pop(j, "tcus"))),
        ("`vc_free` entries", Box::new(|j| pop(j, "vc_free"))),
        ("`module_free` entries", Box::new(|j| pop(j, "module_free"))),
        ("`dram_free` entries", Box::new(|j| pop(j, "dram_free"))),
        ("`mdu_free` entries", Box::new(|j| pop(j, "mdu_free"))),
        ("`fpu_free` entries", Box::new(|j| pop(j, "fpu_free"))),
        ("`modules` entries", Box::new(|j| pop(j, "modules"))),
        ("`ro_caches` entries", Box::new(|j| pop(j, "ro_caches"))),
        ("`stats.per_cluster`", Box::new(|j| pop(j, "stats.per_cluster"))),
        ("`stats.module_accesses`", Box::new(|j| pop(j, "stats.module_accesses"))),
        ("periods must be nonzero", Box::new(|j| set(j, "period_ps.2", "0"))),
        ("periods changed after", Box::new(|j| set_time(j, "period_changed_at", time + 1))),
        ("priority 4 is not below 4", Box::new(|j| set(j, "inflight.events.0.pri", "4"))),
        ("before the checkpoint", Box::new(|j| set_time(j, "inflight.events.1.time", time - 1))),
        ("names TCU 4 of 4", Box::new(|j| set(j, "inflight.events.2.ev", r#"{"TcuStep":4}"#))),
        ("a service done at", Box::new(|j| set(j, "inflight.events.0.ev", &service))),
        ("express leg end", Box::new(|j| set(j, "inflight.events.0.ev", LEG_END))),
        ("empty chain", Box::new(|j| set(j, "inflight.mem_ops.1.Flight.chain", "[]"))),
        ("due at", Box::new(|j| set_time(j, "inflight.mem_ops.0.Done.at", time - 1))),
        ("outside a parallel section", Box::new(|j| set(j, "inflight.par", "null"))),
        ("names TCU 9 of 4", Box::new(|j| set(j, "inflight.pbuf_waiters", WAITER))),
        ("TCU 1 counts 1 pending", Box::new(|j| set(j, "tcus.1.pending", "1"))),
        ("3 pending operations counted", Box::new(|j| set(j, "inflight.pending_total", "3"))),
    ];
    let parent = Checkpoint::from_json(CKPT).unwrap();
    assert!(CycleSim::try_resume(exe.clone(), cfg.clone(), parent).is_ok(), "the fixture fits");
    for (want, mutate) in &mutations {
        let mut j = fixture.clone();
        mutate(&mut j);
        let ckpt = Checkpoint::from_json(&j.encode()).expect("mutated checkpoint still parses");
        let err = CycleSim::try_resume(exe.clone(), cfg.clone(), ckpt).err();
        let err = err.unwrap_or_else(|| panic!("mutation `{want}` was accepted"));
        assert!(err.contains(want) && !err.contains('\n'), "mutation `{want}`: {err}");
    }
}
