//! Peak-memory regression test for the preflight.
//!
//! Every run generates and verifies all thirteen images before it
//! simulates anything, and on a warm replay from the result store that
//! preflight is the process's peak resident set. Generating and
//! analyzing gcc, the largest image (43k instructions, 168 KiB of
//! words), must raise the peak by less than 1 MiB: the generator keeps
//! one function's AST at a time and the verifier one flag byte per
//! instruction.
//!
//! This binary holds this one test, so no other test allocates while it
//! measures.

use specfetch_synth::suite::Benchmark;

/// The process's peak resident set (`VmHWM`) in KiB, where `/proc` has
/// it.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn generating_and_analyzing_gcc_raises_peak_rss_by_under_one_mib() {
    let Some(before) = peak_rss_kib() else {
        eprintln!("no VmHWM in /proc/self/status on this host; peak RSS not checked");
        return;
    };
    let report = Benchmark::by_name("gcc").unwrap().workload().unwrap().analyze();
    assert!(report.is_ok(), "gcc: {report}");
    let after = peak_rss_kib().unwrap();
    let rise = after - before;
    eprintln!("VmHWM {before} KiB -> {after} KiB: +{rise} KiB");
    assert!(rise < 1024, "generating and analyzing gcc raised VmHWM by {rise} KiB");
}
