//! `store::clear_memo` empties the process-wide result memo and nothing
//! else. It runs in a test binary of its own: clearing the memo under
//! the library's unit tests would race the ones that rely on it.

use std::sync::Arc;

use specfetch_core::SimConfig;
use specfetch_experiments::{run_grid, store, trace_cache, GridPoint, RunOptions};
use specfetch_synth::suite::Benchmark;

#[test]
fn clearing_the_memo_drops_results_and_keeps_traces() {
    let b = Benchmark::by_name("porky").expect("porky is a suite benchmark");
    let cfg = SimConfig::paper_baseline();
    let opts = RunOptions::smoke().with_instrs(1_500);
    assert_eq!(store::memoized(b, 1_500, cfg), None, "a cold point");

    let first = run_grid(&[GridPoint::new(b, cfg)], &opts);
    assert_eq!(store::memoized(b, 1_500, cfg).as_ref(), first.first(), "settled into the memo");
    let trace = trace_cache::try_predicted_trace(b, 1_500).unwrap();

    store::clear_memo();
    assert_eq!(store::memoized(b, 1_500, cfg), None, "the result was dropped");
    let kept = trace_cache::try_predicted_trace(b, 1_500).unwrap();
    assert!(Arc::ptr_eq(&trace, &kept), "the trace is kept");
    assert_eq!(run_grid(&[GridPoint::new(b, cfg)], &opts), first, "the engine is deterministic");
}
