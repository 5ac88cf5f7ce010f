//! End-to-end tests of the `specfetch` command-line binary.

use std::process::Command;

fn specfetch() -> Command {
    Command::new(env!("CARGO_BIN_EXE_specfetch"))
}

#[test]
fn bench_run_reports_all_sections() {
    let out = specfetch()
        .args(["--bench", "li", "--instrs", "50000", "--policy", "resume"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["policy:", "Resume", "ISPI:", "miss rate:", "traffic:", "bpred:"] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn classify_flag_adds_classification() {
    let out = specfetch()
        .args(["--bench", "li", "--instrs", "30000", "--policy", "optimistic", "--classify"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("classification:"), "{stdout}");
    assert!(stdout.contains("BM"), "{stdout}");
}

#[test]
fn unknown_benchmark_fails_with_suggestions() {
    let out = specfetch().args(["--bench", "nonesuch"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"));
    assert!(stderr.contains("gcc"), "should list known benchmarks: {stderr}");
}

#[test]
fn missing_input_fails() {
    let out = specfetch().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace or --bench"));
}

#[test]
fn conflicting_prefetchers_fail_cleanly() {
    let out = specfetch()
        .args(["--bench", "li", "--prefetch", "--stream-buffer"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not both"), "{stderr}");
}

#[test]
fn stream_buffer_flag_runs() {
    let out = specfetch()
        .args(["--bench", "li", "--instrs", "30000", "--stream-buffer"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn bad_policy_fails() {
    let out =
        specfetch().args(["--bench", "li", "--policy", "yolo"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn dynamic_policy_is_accepted() {
    let out = specfetch()
        .args(["--bench", "li", "--instrs", "30000", "--policy", "dynamic"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Dynamic"));
}

#[test]
fn zero_instrs_fails() {
    let out = specfetch().args(["--bench", "li", "--instrs", "0"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--instrs"), "{stderr}");
}

#[test]
fn trace_round_trip_through_cli() {
    use specfetch::synth::{Workload, WorkloadSpec};
    use specfetch::trace::{write_trace_binary, Trace};

    // Record a small trace to a temp file.
    let w = Workload::generate(&WorkloadSpec::c_like("cli-trace", 3)).unwrap();
    let mut exec = w.executor(1);
    let trace = Trace::record(&mut exec, 20_000);
    let dir = std::env::temp_dir().join(format!("specfetch-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.sftb");
    write_trace_binary(&trace, &mut std::fs::File::create(&path).unwrap()).unwrap();

    let out = specfetch()
        .args(["--trace", path.to_str().unwrap(), "--policy", "pessimistic"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Pessimistic"));
    assert!(stdout.lines().any(|l| l == "instructions:  20000"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
