//! Trace-replay equivalence: replaying the shared `PredictedTrace` (and
//! the engine's batched fast path over it) must be an invisible
//! optimisation. For any configuration — every policy, both cache
//! geometries, prefetchers on, classification on, speculative history,
//! pipelined bus — an engine fed a `PredictedSource` must produce a
//! `SimResult` byte-identical to one fed the live path it was recorded
//! from.

use std::sync::Arc;

use specfetch_bpred::GhrUpdate;
use specfetch_core::{FetchPolicy, SimConfig, Simulator};
use specfetch_isa::{Addr, DynInstr, ProgramBuilder};
use specfetch_synth::{Workload, WorkloadSpec};
use specfetch_trace::{PathSource, PredictedTrace, VecSource};

const INSTRS: u64 = 30_000;

/// Runs one config over the trace recorded from `live()` and over a
/// fresh `live()` path itself, and demands exact equality.
fn assert_equivalent<S: PathSource>(live: impl Fn() -> S, cfg: SimConfig, what: &str) {
    let trace = Arc::new(PredictedTrace::record(&mut live(), u64::MAX));
    let via_live = Simulator::new(cfg).run(live());
    let via_trace = Simulator::new(cfg).run(PredictedTrace::source(&trace));
    assert_eq!(via_trace, via_live, "{what}: trace replay diverged");
    assert_eq!(
        via_trace.ispi().to_bits(),
        via_live.ispi().to_bits(),
        "{what}: ISPI must be bit-identical"
    );
}

#[test]
fn every_policy_matches_on_a_branchy_workload() {
    let w = Workload::generate(&WorkloadSpec::c_like("ovl", 7)).unwrap();
    let live = || w.executor(3).take_instrs(INSTRS);
    for policy in FetchPolicy::ALL {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;
        assert_equivalent(live, cfg, &format!("{policy}"));
    }
}

#[test]
fn sweep_axes_match() {
    let w = Workload::generate(&WorkloadSpec::cpp_like("ovl-axes", 11)).unwrap();
    let live = || w.executor(5).take_instrs(INSTRS);
    let base = SimConfig::paper_baseline();

    let mut small = base;
    small.icache.size_bytes = 1024;
    small.miss_penalty = 20;
    assert_equivalent(live, small, "1K cache, 20-cycle penalty");

    let mut depth1 = base;
    depth1.max_unresolved = 1;
    assert_equivalent(live, depth1, "speculation depth 1");

    let mut classify = base;
    classify.classify = true;
    assert_equivalent(live, classify, "miss classification");

    let mut piped = base;
    piped.bus_slots = 2;
    assert_equivalent(live, piped, "pipelined bus");
}

#[test]
fn prefetchers_and_stream_buffer_match() {
    // These disable the batched fast path (per-access trigger side
    // effects) but must still replay identically through the trace
    // cursor itself.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-pf", 13)).unwrap();
    let live = || w.executor(2).take_instrs(INSTRS);
    let base = SimConfig::paper_baseline();

    let mut pf = base;
    pf.prefetch = true;
    assert_equivalent(live, pf, "next-line prefetch");

    let mut tpf = base;
    tpf.target_prefetch = true;
    tpf.prefetch = true;
    assert_equivalent(live, tpf, "target + next-line prefetch");

    let mut sb = base;
    sb.stream_buffer = true;
    assert_equivalent(live, sb, "stream buffer");
}

#[test]
fn speculative_history_ablation_matches() {
    // Speculative GHR update is outside what the outcome replay models;
    // the engine must skip the cross-check and still be byte-identical.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-ghr", 17)).unwrap();
    let live = || w.executor(4).take_instrs(INSTRS);
    let mut cfg = SimConfig::paper_baseline();
    cfg.bpred.ghr_update = GhrUpdate::Speculative;
    assert_equivalent(live, cfg, "speculative GHR");
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
    let live = || VecSource::new(p.clone(), path.clone());

    for policy in FetchPolicy::ALL {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;
        cfg.icache.size_bytes = 1024; // force capacity misses mid-run
        assert_equivalent(live, cfg, &format!("straight-line {policy}"));
    }
}

#[test]
fn truncated_overlay_matches_truncated_recording() {
    // A trace cut at an odd window must replay identically, whether the
    // cut lands on a transfer (its successor kept per transfer) or mid-run.
    let w = Workload::generate(&WorkloadSpec::c_like("ovl-cut", 23)).unwrap();
    let mut full = w.executor(9).take_instrs(8_000);
    let path: Vec<DynInstr> = std::iter::from_fn(|| full.next_instr()).collect();
    let ends_on = |transfer: bool| (7_777..8_000).find(|&n| path[n - 1].is_branch() == transfer);
    for window in [ends_on(true).unwrap(), ends_on(false).unwrap()] {
        let live = || w.executor(9).take_instrs(window as u64);
        assert_equivalent(live, SimConfig::paper_baseline(), &format!("cut at {window}"));
    }
}
