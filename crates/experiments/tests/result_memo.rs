//! `trace_cache::clear_results` empties the process-wide result memo
//! and nothing else. It runs in a test binary of its own: clearing the
//! memo under the library's unit tests would race the ones that rely
//! on a memo hit.

use std::sync::Arc;

use specfetch_core::{SimConfig, Simulator};
use specfetch_experiments::trace_cache::{
    clear_results, memoized_result, predicted_source, shared_trace,
};
use specfetch_synth::suite::Benchmark;

#[test]
fn clearing_results_drops_them_and_keeps_recordings() {
    let b = Benchmark::by_name("porky").expect("porky is a suite benchmark");
    let cfg = SimConfig::paper_baseline();
    let runs = std::cell::Cell::new(0);
    let run = || {
        runs.set(runs.get() + 1);
        Simulator::new(cfg).run(predicted_source(b, 1_500))
    };
    let first = memoized_result(b, 1_500, cfg, run);
    assert_eq!(memoized_result(b, 1_500, cfg, run), first, "a memo hit");
    assert_eq!(runs.get(), 1);
    let recording = shared_trace(b, 1_500);

    clear_results();
    assert_eq!(memoized_result(b, 1_500, cfg, run), first, "the engine is deterministic");
    assert_eq!(runs.get(), 2, "the stored result was dropped, so the point simulates again");
    assert!(Arc::ptr_eq(&recording, &shared_trace(b, 1_500)), "the recording is kept");
}
