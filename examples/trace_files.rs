//! Record a workload execution to the portable `.sft` trace formats,
//! read it back, and simulate from the file — the workflow for feeding
//! externally captured traces to the simulator.
//!
//! Run with: `cargo run --release --example trace_files`

use std::io::BufReader;
use std::sync::Arc;

use specfetch::core::{FetchPolicy, SimConfig, Simulator};
use specfetch::experiments::simulate_trace;
use specfetch::synth::{Workload, WorkloadSpec};
use specfetch::trace::{
    read_trace_binary, read_trace_text, write_trace_binary, write_trace_text, PathSource,
    PredictedTrace,
};

const INSTRS: u64 = 100_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Produce an execution and record it.
    let workload = Workload::generate(&WorkloadSpec::c_like("traced", 42))?;
    let trace = PredictedTrace::record(&mut workload.executor(7), INSTRS);
    println!(
        "recorded: image {} instrs, {} data-dependent transfers",
        trace.program().len(),
        trace.record_count()
    );

    // 2. Write both formats to a temp directory.
    let dir = std::env::temp_dir().join("specfetch-trace-demo");
    std::fs::create_dir_all(&dir)?;
    let text_path = dir.join("demo.sft");
    let bin_path = dir.join("demo.sftb");
    write_trace_text(&trace, &mut std::fs::File::create(&text_path)?)?;
    write_trace_binary(&trace, &mut std::fs::File::create(&bin_path)?)?;
    let text_len = std::fs::metadata(&text_path)?.len();
    let bin_len = std::fs::metadata(&bin_path)?.len();
    println!(
        "wrote {} ({text_len} bytes) and {} ({bin_len} bytes)",
        text_path.display(),
        bin_path.display()
    );

    // 3. Read back, walking each file's path over its image, and verify
    //    both formats give back the recorded trace.
    let from_text = read_trace_text(BufReader::new(std::fs::File::open(&text_path)?), INSTRS)?;
    let from_bin = read_trace_binary(BufReader::new(std::fs::File::open(&bin_path)?), INSTRS)?;
    assert_eq!(from_text, trace, "the text file must hold the recorded path");
    assert_eq!(from_bin, trace, "the binary file must hold the recorded path");
    println!("round-trip OK: text and binary parse to the recorded trace");

    // 4. Simulate straight from the file-loaded trace, on the lockstep
    //    executor `--explain 'trace=<file>'` uses.
    let mut cfg = SimConfig::paper_baseline();
    cfg.policy = FetchPolicy::Resume;
    let result = simulate_trace(&Arc::new(from_bin), &[cfg]).remove(0).map_err(|f| f.cell())?;
    println!(
        "simulated from file: {} instrs, ISPI {:.3}, miss {:.2}%",
        result.correct_instrs,
        result.ispi(),
        result.miss_rate_pct()
    );

    // 5. The file replay must match simulating the live path directly.
    let direct = Simulator::new(cfg).run(workload.executor(7).take_instrs(INSTRS));
    assert_eq!(direct, result, "file replay must match the live path");
    println!("file replay matches the live execution exactly");

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
