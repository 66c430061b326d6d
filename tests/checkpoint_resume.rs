//! **E14 — checkpoints** (paper §III-E): the state of the simulation can
//! be saved at a point given ahead of time and resumed later. A resumed
//! run must finish with exactly the same results, cycle counts and
//! statistics as the uninterrupted run.

use xmt_harness::{FromJson, ToJson};
use xmtc::Options;
use xmtsim::checkpoint::CheckpointOutcome;
use xmtsim::trace::{TraceLevel, Tracer};
use xmtsim::{CycleSim, XmtConfig};
use xmt_core::Toolchain;
use xmt_workloads::suite::{self, Variant};

fn checkpointable_program() -> xmt_core::Compiled {
    // Several parallel phases with serial gaps in between — plenty of
    // quiescent points to checkpoint at.
    let src = "
        int A[256]; int N = 256; int sum = 0;
        void main() {
            for (int round = 0; round < 4; round++) {
                spawn(0, N - 1) { A[$] = A[$] + round + 1; }
            }
            for (int i = 0; i < N; i++) { sum += A[i]; }
            print(sum);
        }
    ";
    Toolchain::new().compile(src).unwrap()
}

#[test]
fn resume_equals_uninterrupted_run() {
    let cfg = XmtConfig::fpga64();
    let compiled = checkpointable_program();

    // Reference: run straight through.
    let mut full = compiled.simulator(&cfg);
    let full_sum = full.run().unwrap();
    let full_out = full.machine.output.clone();
    let full_mem = full.machine.read_symbol(full.executable(), "A", 256).unwrap();

    // Checkpoint mid-run, serialize through JSON, resume in a new sim.
    let mut first = compiled.simulator(&cfg);
    let target = full_sum.cycles / 2;
    let ckpt = match first.run_to_checkpoint(target).unwrap() {
        CheckpointOutcome::Checkpoint(c) => c,
        CheckpointOutcome::Done(_) => panic!("program ended before the checkpoint"),
    };
    assert!(ckpt.time > 0);
    let json = ckpt.to_json();
    let restored = xmtsim::checkpoint::Checkpoint::from_json(&json).unwrap();
    assert_eq!(*ckpt, restored);

    let mut resumed = CycleSim::resume(compiled.executable().clone(), cfg.clone(), restored);
    let resumed_sum = resumed.run().unwrap();

    assert_eq!(resumed_sum.cycles, full_sum.cycles, "cycle-exact resume");
    assert_eq!(resumed.machine.output, full_out);
    assert_eq!(
        resumed.machine.read_symbol(resumed.executable(), "A", 256).unwrap(),
        full_mem
    );
    assert_eq!(resumed.stats.instructions, full.stats.instructions);
    assert_eq!(resumed.stats.cache_misses, full.stats.cache_misses);
    // The whole statistics record — not just the spot-checked counters —
    // must be bit-identical after a save → serialize → resume cycle.
    assert_eq!(
        resumed.stats.to_json_string(),
        full.stats.to_json_string(),
        "resumed stats JSON matches the uninterrupted run"
    );
}

#[test]
fn non_finite_floats_checkpoint_and_resume_bit_for_bit() {
    // 1/0 and 0/0 leave inf and NaN in FP registers and memory. The
    // checkpoint's JSON keeps every bit pattern, and the resumed run ends
    // bit-identical to the uninterrupted one.
    let src = "float F[4]; int A[4];
        int main() { float z = F[0]; float x = 1.0 / z; F[1] = x; F[2] = z / z;
                     int i; int s = 0;
                     for (i = 0; i < 2000; i = i + 1) { s = s + i; }
                     A[0] = s; return 0; }";
    let cfg = XmtConfig::fpga64();
    let compiled = Toolchain::new().compile(src).unwrap();
    let mut full = compiled.simulator(&cfg);
    let full_sum = full.run().unwrap();
    let words = |sim: &CycleSim, name| sim.machine.read_symbol(sim.executable(), name, 4).unwrap();
    let full_f = words(&full, "F");
    assert!(f32::from_bits(full_f[1]).is_infinite() && f32::from_bits(full_f[2]).is_nan());

    let mut first = compiled.simulator(&cfg);
    let ckpt = match first.run_to_checkpoint(full_sum.cycles / 2).unwrap() {
        CheckpointOutcome::Checkpoint(c) => c,
        CheckpointOutcome::Done(_) => panic!("program ended before the checkpoint"),
    };
    let text = ckpt.to_json_string();
    assert!(text.contains("\"inf\"") && text.contains("\"nan("), "FP state holds inf and NaN");
    let restored = xmtsim::checkpoint::Checkpoint::from_json_str(&text).unwrap();
    assert_eq!(restored.to_json_string(), text, "the checkpoint reads back bit for bit");

    let mut resumed = CycleSim::resume(compiled.executable().clone(), cfg, restored);
    assert_eq!(resumed.run().unwrap().cycles, full_sum.cycles, "cycle-exact resume");
    assert_eq!((words(&resumed, "F"), words(&resumed, "A")), (full_f, words(&full, "A")));
    assert_eq!(resumed.stats.to_json_string(), full.stats.to_json_string());
}

#[test]
fn original_simulator_continues_after_checkpoint() {
    // Taking a checkpoint must not corrupt the running simulator.
    let cfg = XmtConfig::fpga64();
    let compiled = checkpointable_program();
    let mut reference = compiled.simulator(&cfg);
    let want = reference.run().unwrap();

    let mut sim = compiled.simulator(&cfg);
    match sim.run_to_checkpoint(want.cycles / 3).unwrap() {
        CheckpointOutcome::Checkpoint(_) => {}
        CheckpointOutcome::Done(_) => panic!("ended early"),
    }
    let finished = sim.run().unwrap();
    assert_eq!(finished.cycles, want.cycles);
    assert_eq!(sim.machine.output, reference.machine.output);
}

#[test]
fn checkpoint_after_halt_reports_done() {
    let cfg = XmtConfig::tiny();
    let compiled = checkpointable_program();
    let mut sim = compiled.simulator(&cfg);
    match sim.run_to_checkpoint(u64::MAX).unwrap() {
        CheckpointOutcome::Done(s) => assert!(s.cycles > 0),
        CheckpointOutcome::Checkpoint(_) => panic!("no checkpoint past the end"),
    }
}

/// Run one workload end to end with a tracer attached and return every
/// observable artifact as strings, so two runs can be compared byte for
/// byte.
fn observable_run(seed: u64) -> (u64, String, String, String) {
    let cfg = XmtConfig::tiny();
    let w = suite::bfs(48, 96, seed, Variant::Parallel, &Options::default()).unwrap();
    let mut sim = w.compiled.simulator(&cfg);
    sim.attach_tracer(Tracer::new(TraceLevel::CycleAccurate).with_max_records(4096));
    let summary = sim.run().unwrap();
    let trace = sim.tracer.as_ref().unwrap();
    (
        summary.cycles,
        sim.stats.to_json_string(),
        trace.to_json_string(),
        sim.machine.to_json_string(),
    )
}

#[test]
fn same_config_and_seed_is_bit_identical() {
    // The simulator is a deterministic function of (program, config): two
    // runs of the same seeded workload must agree on cycle counts, the
    // full statistics record, the complete trace stream, and final
    // machine state — compared through their JSON encodings so any field
    // drift (including float formatting) is caught.
    let (cycles_a, stats_a, trace_a, machine_a) = observable_run(7);
    let (cycles_b, stats_b, trace_b, machine_b) = observable_run(7);
    assert_eq!(cycles_a, cycles_b, "cycle counts identical");
    assert_eq!(stats_a, stats_b, "stats JSON identical");
    assert_eq!(trace_a, trace_b, "trace streams identical");
    assert_eq!(machine_a, machine_b, "final machine state identical");

    // And the seed must actually matter: a different seed changes the
    // input data, hence the memory image (guards against the generator
    // ignoring its seed, which would make the test above vacuous).
    let (_, _, _, machine_c) = observable_run(8);
    assert_ne!(machine_a, machine_c, "different seed, different run");
}

#[test]
fn fast_forward_with_functional_mode_then_inspect() {
    // The paper's other fast-forwarding vehicle: run the whole program in
    // the fast functional mode and compare its final memory against the
    // cycle-accurate run (a dry-run debugging workflow).
    let w = suite::prefix(64, 5, Variant::Parallel, &Options::default()).unwrap();
    let f = w.run_functional_and_verify().unwrap();
    let c = w.run_and_verify(&XmtConfig::tiny()).unwrap();
    assert_eq!(
        f.read_global("A", 64).unwrap(),
        c.read_global("A", 64).unwrap()
    );
}
