//! Trace-file equivalence: a path written to a binary trace file and read
//! back must replay to the `SimResult` the engine computed when it still
//! consumed the live interpreter one instruction at a time — the rows of
//! `tests/fixtures/path_results.txt`. That holds for any configuration:
//! every policy, both cache geometries, prefetchers on, classification on,
//! speculative history, pipelined bus, and a file read back only up to an
//! odd window.

mod pinned;

use std::sync::Arc;

use specfetch_bpred::GhrUpdate;
use specfetch_core::{run_lockstep, FetchPolicy, FrontEnd, SimConfig};
use specfetch_isa::{Addr, DynInstr, ProgramBuilder};
use specfetch_synth::{Workload, WorkloadSpec};
use specfetch_trace::{
    read_trace_binary, write_trace_binary, PathSource, PredictedTrace, VecSource,
};

use pinned::assert_pinned;

const INSTRS: u64 = 30_000;

/// Records `live` in full, writes it as a binary trace file, and reads
/// back its first `max_instrs` instructions (a file does not store its
/// length: its reader walks on until the budget or the next unrecorded
/// data-dependent transfer).
fn via_file(mut live: impl PathSource, max_instrs: u64) -> Arc<PredictedTrace> {
    let mut file = Vec::new();
    write_trace_binary(&PredictedTrace::record(&mut live, u64::MAX), &mut file)
        .expect("write to memory");
    Arc::new(read_trace_binary(file.as_slice(), max_instrs).expect("the file just written reads"))
}

/// Runs `cfg` over `trace` and demands the result pinned for `case`.
fn assert_replays_pinned(trace: &Arc<PredictedTrace>, cfg: SimConfig, case: &str) {
    let fe = FrontEnd::build(cfg).expect("valid config");
    match run_lockstep(trace, vec![fe]).pop() {
        Some(Ok(result)) => assert_pinned(case, &result),
        _ => panic!("{case}: the lane failed"),
    }
}

#[test]
fn every_policy_matches_on_a_branchy_workload() {
    let w = Workload::generate(&WorkloadSpec::c_like("ovl", 7)).unwrap();
    let trace = via_file(w.executor(3).take_instrs(INSTRS), INSTRS);
    for policy in FetchPolicy::ALL {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;
        assert_replays_pinned(&trace, cfg, &format!("policy/{}", policy.short_name()));
    }
}

#[test]
fn sweep_axes_match() {
    let w = Workload::generate(&WorkloadSpec::cpp_like("ovl-axes", 11)).unwrap();
    let trace = via_file(w.executor(5).take_instrs(INSTRS), INSTRS);
    let base = SimConfig::paper_baseline();

    let mut small = base;
    small.icache.size_bytes = 1024;
    small.miss_penalty = 20;
    assert_replays_pinned(&trace, small, "axis/1K-penalty20");

    let mut depth1 = base;
    depth1.max_unresolved = 1;
    assert_replays_pinned(&trace, depth1, "axis/depth1");

    let mut classify = base;
    classify.classify = true;
    assert_replays_pinned(&trace, classify, "axis/classify");

    let mut piped = base;
    piped.bus_slots = 2;
    assert_replays_pinned(&trace, piped, "axis/bus2");
}

#[test]
fn prefetchers_and_stream_buffer_match() {
    // These disable the batched fast path (per-access trigger side
    // effects) but must still replay identically through the trace
    // cursor itself.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-pf", 13)).unwrap();
    let trace = via_file(w.executor(2).take_instrs(INSTRS), INSTRS);
    let base = SimConfig::paper_baseline();

    let mut pf = base;
    pf.prefetch = true;
    assert_replays_pinned(&trace, pf, "prefetch/nl");

    let mut tpf = base;
    tpf.target_prefetch = true;
    tpf.prefetch = true;
    assert_replays_pinned(&trace, tpf, "prefetch/nl+target");

    let mut sb = base;
    sb.stream_buffer = true;
    assert_replays_pinned(&trace, sb, "prefetch/stream");
}

#[test]
fn speculative_history_ablation_matches() {
    // Speculative GHR update is outside what the outcome replay models;
    // the engine must skip the cross-check and still be byte-identical.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-ghr", 17)).unwrap();
    let trace = via_file(w.executor(4).take_instrs(INSTRS), INSTRS);
    let mut cfg = SimConfig::paper_baseline();
    cfg.bpred.ghr_update = GhrUpdate::Speculative;
    assert_replays_pinned(&trace, cfg, "ghr/speculative");
}

#[test]
fn straight_line_code_exercises_the_batch_path() {
    // Long sequential runs are where the batched fast path does the most
    // work; misses at every line boundary stress the batch/stall handoff.
    let n = 4096usize;
    let mut b = ProgramBuilder::new(Addr::new(0));
    b.push_seq(n);
    b.set_entry(Addr::new(0));
    let p = b.finish().unwrap();
    let path: Vec<DynInstr> = (0..n).map(|i| DynInstr::seq(Addr::from_word(i as u64))).collect();
    let trace = via_file(VecSource::new(p, path), n as u64);

    for policy in FetchPolicy::ALL {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;
        cfg.icache.size_bytes = 1024; // force capacity misses mid-run
        assert_replays_pinned(&trace, cfg, &format!("straight-1K/{}", policy.short_name()));
    }
}

#[test]
fn truncated_overlay_matches_truncated_recording() {
    // A file read back only up to an odd window must replay as the
    // recording that stopped there, whether the cut lands on a transfer
    // (its successor kept per transfer) or mid-run.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-cut", 23)).unwrap();
    let mut full = w.executor(9).take_instrs(8_000);
    let path: Vec<DynInstr> = std::iter::from_fn(|| full.next_instr()).collect();
    let ends_on = |transfer: bool| (7_777..8_000).find(|&n| path[n - 1].is_branch() == transfer);
    for window in [ends_on(true).unwrap(), ends_on(false).unwrap()] {
        let trace = via_file(w.executor(9).take_instrs(8_000), window as u64);
        assert_eq!(trace.len(), window, "the file read stops at the window");
        assert_replays_pinned(&trace, SimConfig::paper_baseline(), &format!("cut/{window}"));
    }
}
