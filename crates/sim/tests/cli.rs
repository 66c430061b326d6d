//! Integration tests for `xmtsim-cli`: assembly + memory-map file inputs
//! (the paper's Fig. 3 front end).

use std::process::Command;
use xmt_harness::ToJson;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xmtsim-cli"))
}

const ASM: &str = r"
main:
    li $a0, 0
    li $a1, 7
    li $s0, 268435456    # address of A
    spawn $a0, $a1
vt:
    li $t0, 1
    ps $t0, gr0
    chkid $t0
    sll $t1, $t0, 2
    add $t1, $t1, $s0
    lw $t2, 0($t1)
    addi $t2, $t2, 10
    swnb $t2, 0($t1)
    j vt
    join
    li $t3, 1
    print $t3
    halt
";

const MAP: &str = "# xmt memory map\nA 0x10000000 8 1 2 3 4 5 6 7 8\n";

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xmtsim_cli_{name}_{}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

#[test]
fn runs_assembly_with_memory_map() {
    let xs = write_tmp("a.xs", ASM);
    let xbo = write_tmp("a.xbo", MAP);
    let out = cli()
        .arg(&xs)
        .args(["--config", "tiny", "--dump", "A:8"])
        .arg("--memmap")
        .arg(&xbo)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("A = [11, 12, 13, 14, 15, 16, 17, 18]"), "{stdout}");
}

#[test]
fn functional_mode_matches() {
    let xs = write_tmp("f.xs", ASM);
    let xbo = write_tmp("f.xbo", MAP);
    let out = cli()
        .arg(&xs)
        .args(["--functional", "--dump", "A:8"])
        .arg("--memmap")
        .arg(&xbo)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("A = [11, 12"));
}

#[test]
fn dumping_a_missing_global_fails_after_the_run() {
    let xs = write_tmp("m.xs", ASM);
    let xbo = write_tmp("m.xbo", MAP);
    let out = cli()
        .arg(&xs)
        .args(["--config", "tiny", "--dump", "MISSING:4", "--dump", "A:8"])
        .arg("--memmap")
        .arg(&xbo)
        .output()
        .unwrap();
    assert!(!out.status.success(), "missing --dump global exited 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no global `MISSING`"));
    // The run itself completed and the other dump still printed.
    assert!(String::from_utf8_lossy(&out.stdout).contains("A = [11, 12"));
}

#[test]
fn bad_assembly_reports_line() {
    let xs = write_tmp("bad.xs", "main:\n    bogus $t0\n");
    let out = cli().arg(&xs).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn link_errors_reported() {
    let xs = write_tmp("nolbl.xs", "main:\n    j nowhere\n    halt\n");
    let out = cli().arg(&xs).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nowhere"));
}

/// `--engine` and `--threads` select nothing (there is one cycle engine):
/// they are usage errors like any unknown option, not silently ignored.
#[test]
fn removed_engine_flags_are_usage_errors() {
    let xs = write_tmp("u.xs", ASM);
    let xbo = write_tmp("u.xbo", MAP);
    for flags in [&["--engine", "parallel"][..], &["--threads", "2"]] {
        let out = cli().arg(&xs).arg("--memmap").arg(&xbo).args(flags).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"), "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?} ran the program");
    }
}

#[test]
fn trace_and_metrics_sidecars_are_written_and_parse() {
    let xs = write_tmp("o.xs", ASM);
    let xbo = write_tmp("o.xbo", MAP);
    let trace = std::env::temp_dir().join(format!("xmtsim_cli_o_{}.trace.json", std::process::id()));
    let metrics = std::env::temp_dir().join(format!("xmtsim_cli_o_{}.metrics.json", std::process::id()));
    let out = cli()
        .arg(&xs)
        .args(["--config", "tiny", "--dump", "A:8"])
        .arg("--memmap")
        .arg(&xbo)
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Observability must not change the simulated result.
    assert!(String::from_utf8_lossy(&out.stdout).contains("A = [11, 12, 13, 14, 15, 16, 17, 18]"));

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let doc = xmt_harness::Json::parse(&trace_text).unwrap();
    let members = doc.as_obj().unwrap();
    let events = members
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .expect("traceEvents present")
        .1
        .as_arr()
        .unwrap();
    assert!(!events.is_empty(), "trace has events");

    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    use xmt_harness::FromJson;
    let reg = xmtsim::MetricsRegistry::from_json_str(&metrics_text).unwrap();
    assert!(reg.get("sim.cycles").is_some());
    assert!(reg.get("host.sched_s").is_some(), "host profile included");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn functional_mode_rejects_obs_outputs() {
    let xs = write_tmp("fo.xs", ASM);
    let out = cli()
        .arg(&xs)
        .args(["--functional", "--trace-out", "/dev/null"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cycle model"), "{err}");
}

#[test]
fn invalid_config_is_an_error_not_a_panic() {
    // dram_channels = 0 must surface as a clean CLI error (the
    // validation added with CycleSim::try_new), not a crash at the
    // first cache miss.
    let xs = write_tmp("z.xs", ASM);
    let xbo = write_tmp("z.xbo", MAP);
    let cfg = write_tmp(
        "z.json",
        &{
            let mut c = xmtsim::XmtConfig::tiny();
            c.dram_channels = 0;
            c.to_json_string()
        },
    );
    let out = cli()
        .arg(&xs)
        .arg("--memmap")
        .arg(&xbo)
        .arg("--config")
        .arg(&cfg)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("dram_channels"), "{err}");
}

/// A hostile memory map is a one-line diagnostic naming the line — in
/// both modes, with no abort (the word count used to be reserved up
/// front: 16 GB) and no wrapped store (an entry past 2³² used to put its
/// second word at address 0).
#[test]
fn hostile_memory_maps_are_diagnosed() {
    let xs = write_tmp("h.xs", ASM);
    for (name, map, want) in [
        ("count", "x 0x10000000 4294967295 1\n", "memory map line 1: too few words"),
        (
            "wrap",
            "# top\nx 0xfffffffc 2 7 9\n",
            "memory map line 2: entry runs past the end of the address space",
        ),
    ] {
        let xbo = write_tmp(&format!("h_{name}.xbo"), map);
        for mode in [&["--config", "tiny"][..], &["--functional"][..]] {
            let out = cli()
                .arg(&xs)
                .args(mode)
                .args(["--dump", "x:2"])
                .arg("--memmap")
                .arg(&xbo)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(1), "{name} {mode:?}: {:?}", out.status);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(err.lines().count(), 1, "{err}");
            assert!(err.contains(want), "{err}");
            assert!(out.stdout.is_empty(), "nothing ran");
        }
    }
}
