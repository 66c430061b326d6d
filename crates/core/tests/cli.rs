//! Integration tests for the `xmtcc` command-line tool (the paper's
//! student-facing workflow).

use std::process::Command;

fn xmtcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xmtcc"))
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xmtcc_test_{name}_{}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

const COMPACT: &str = "
    int A[8]; int B[8]; int base = 0; int N = 8;
    void main() {
        spawn(0, N - 1) {
            int inc = 1;
            if (A[$] != 0) { ps(inc, base); B[inc] = A[$]; }
        }
        print(base);
    }
";

#[test]
fn compile_set_run_dump() {
    let src = write_tmp("compact.c", COMPACT);
    let out = xmtcc()
        .arg(&src)
        .args(["--set", "A=5,0,12,0,0,3,0,9", "--dump", "B:8", "--config", "tiny"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("4\n"), "prints the count: {stdout}");
    assert!(stdout.contains("B = ["));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cycles"));
}

/// `--dump` of a global the program does not define is an error: exit 1
/// after the run, with the other dumps still printed.
fn missing_dump_fails_after_the_run(mode: &[&str]) {
    let src = write_tmp(&format!("missing{}.c", mode.len()), COMPACT);
    let out = xmtcc()
        .arg(&src)
        .args(["--set", "A=5,0,12,0,0,3,0,9", "--dump", "MISSING:4", "--dump", "N:1"])
        .args(mode)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing --dump global exited 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no global `MISSING`"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("4\n"), "the run completed: {stdout}");
    assert!(stdout.contains("N = [8]"), "the other dump printed: {stdout}");
}

#[test]
fn dumping_a_missing_global_fails_the_cycle_run() {
    missing_dump_fails_after_the_run(&["--config", "tiny"]);
}

#[test]
fn dumping_a_missing_global_fails_the_functional_run() {
    missing_dump_fails_after_the_run(&["--functional"]);
}

#[test]
fn functional_mode_flag() {
    let src = write_tmp("func.c", "void main() { print(123); }");
    let out = xmtcc().arg(&src).arg("--functional").output().unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), "123\n");
    assert!(String::from_utf8_lossy(&out.stderr).contains("functional"));
}

#[test]
fn emit_asm_prints_assembly() {
    let src = write_tmp("emit.c", COMPACT);
    let out = xmtcc().arg(&src).arg("--emit-asm").output().unwrap();
    assert!(out.status.success());
    let asm = String::from_utf8_lossy(&out.stdout);
    for needle in ["spawn", "chkid", "join", "ps", "main:"] {
        assert!(asm.contains(needle), "assembly lacks `{needle}`:\n{asm}");
    }
}

#[test]
fn emit_files_writes_loadable_pair() {
    let src = write_tmp("pair.c", COMPACT);
    let base = std::env::temp_dir().join(format!("xmtcc_pair_{}", std::process::id()));
    let out = xmtcc()
        .arg(&src)
        .args(["--set", "A=1,2,0,0,0,0,0,3", "--emit-files"])
        .arg(&base)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Both files exist and re-load through the library path.
    let asm_text = std::fs::read_to_string(format!("{}.xs", base.display())).unwrap();
    let map_text = std::fs::read_to_string(format!("{}.xbo", base.display())).unwrap();
    let prog = xmt_isa::asm::parse(&asm_text).unwrap();
    let mm = xmt_isa::MemoryMap::parse(&map_text).unwrap();
    assert_eq!(mm.lookup("A").unwrap().words[0], 1);
    let exe = prog.link(mm).unwrap();
    let mut sim = xmtsim::FunctionalSim::new(exe);
    sim.run().unwrap();
    assert_eq!(sim.machine.output.ints(), vec![3]);
}

#[test]
fn compile_errors_exit_nonzero_with_position() {
    let src = write_tmp("bad.c", "void main() { int x = $; }");
    let out = xmtcc().arg(&src).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spawn"), "{err}");
    assert!(err.contains("1:"), "position included: {err}");
}

#[test]
fn cycle_limit_stops_runaway() {
    let src = write_tmp("loop.c", "void main() { while (1) { } }");
    let out = xmtcc()
        .arg(&src)
        .args(["--cycles-limit", "5000", "--config", "tiny"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cycle limit"));
}

#[test]
fn hotspots_map_back_to_source_lines() {
    // The §III-B workflow: the memory-bottleneck report points back at
    // XMTC source lines through the compiler's line table.
    let src = write_tmp(
        "hot.c",
        "int H[4]; int N = 64;\nvoid main() {\n    spawn(0, N - 1) {\n        int one = 1;\n        psm(one, H[0]);\n    }\n}\n",
    );
    let out = xmtcc()
        .arg(&src)
        .args(["--hotspots", "--config", "tiny"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("hot assembly"), "{err}");
    // The psm on H[0] sits in the spawn-body block starting at source
    // line 4 (line resolution is per basic block).
    assert!(
        err.contains("line 4") || err.contains("line 5"),
        "hotspot resolves into the spawn body:\n{err}"
    );
}

#[test]
fn checkpoint_and_resume_roundtrip() {
    let prog = "
        int A[64]; int N = 64; int sum = 0;
        void main() {
            for (int r = 0; r < 6; r++) {
                spawn(0, N - 1) { A[$] = A[$] + r + 1; }
            }
            for (int i = 0; i < N; i++) { sum += A[i]; }
            print(sum);
        }
    ";
    let src = write_tmp("ckpt.c", prog);
    let ckpt = std::env::temp_dir().join(format!("xmtcc_ckpt_{}.json", std::process::id()));

    // Reference run.
    let full = xmtcc().arg(&src).args(["--config", "tiny"]).output().unwrap();
    assert!(full.status.success());
    let want = String::from_utf8_lossy(&full.stdout).to_string();

    // Save mid-run…
    let save = xmtcc()
        .arg(&src)
        .args(["--config", "tiny", "--checkpoint"])
        .arg(format!("800:{}", ckpt.display()))
        .output()
        .unwrap();
    assert!(save.status.success(), "{}", String::from_utf8_lossy(&save.stderr));
    assert!(String::from_utf8_lossy(&save.stderr).contains("checkpoint saved"));

    // …and resume to the same result.
    let resume = xmtcc()
        .arg(&src)
        .args(["--config", "tiny", "--resume"])
        .arg(&ckpt)
        .output()
        .unwrap();
    assert!(resume.status.success(), "{}", String::from_utf8_lossy(&resume.stderr));
    assert_eq!(String::from_utf8_lossy(&resume.stdout), want);
}

/// `--metrics-out` writes the compile's `xmtsim.metrics.v1` rows: one
/// time per pass, which together fit inside the compile's wall time, and
/// the emitted instruction count.
#[test]
fn metrics_out_reports_the_compiler_passes() {
    use xmt_harness::{FromJson, Json};
    use xmtsim::obs::{MetricValue, MetricsRegistry};

    let src = write_tmp("metrics.c", COMPACT);
    let path = std::env::temp_dir().join(format!("xmtcc_metrics_{}.json", std::process::id()));
    let out = xmtcc()
        .arg(&src)
        .args(["--functional", "--set", "A=5,0,12,0,0,3,0,9", "--metrics-out"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let m = MetricsRegistry::from_json(&json).unwrap();
    let value = |name: &str| match m.get(name).map(|r| &r.value) {
        Some(MetricValue::F(v)) => *v,
        Some(MetricValue::U(v)) => *v as f64,
        other => panic!("{name}: {other:?}"),
    };
    let passes: Vec<f64> = xmtc::PASSES.iter().map(|p| value(&format!("xmtc.{p}_us"))).collect();
    assert!(passes.iter().all(|&us| us >= 0.0), "{passes:?}");
    let sum: f64 = passes.iter().sum();
    let wall = value("xmtc.compile_us");
    assert!(sum > 0.0 && sum <= wall, "passes sum to {sum} µs, compile took {wall} µs");
    let asm = xmtcc().arg(&src).arg("--emit-asm").output().unwrap();
    let instrs = xmt_isa::asm::parse(&String::from_utf8_lossy(&asm.stdout)).unwrap().instrs().count();
    assert_eq!(value("xmtc.asm_instrs"), instrs as f64);
    // The fix count is the one the compile's note reports.
    let note = format!("relocated {} basic block(s)", value("xmtc.layout_fixes"));
    assert!(String::from_utf8_lossy(&asm.stderr).contains(&note), "no `{note}`");
}
