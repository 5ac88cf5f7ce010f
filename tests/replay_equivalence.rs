//! Replay-equivalence determinism: the shared-trace cache must be an
//! invisible optimisation.  Interpreting a benchmark afresh (the legacy
//! interpret-per-run path, built here as the reference) and running it
//! through the record-once/replay-many production path must produce
//! byte-identical `SimResult`s — same event counts, same ISPI — for every
//! policy, because both feed the engine the same retired-instruction
//! stream.

use specfetch_core::{FetchPolicy, SimConfig, Simulator};
use specfetch_experiments::{simulate_benchmark, RunOptions};
use specfetch_synth::suite::Benchmark;
use specfetch_trace::PathSource;

const INSTRS: u64 = 50_000;

/// One benchmark, two policies (the eager baseline and the paper's best
/// policy), production replay against the interpreter: results must
/// match exactly, field for field.
#[test]
fn legacy_and_shared_trace_paths_are_equivalent() {
    let bench = Benchmark::by_name("gcc").expect("gcc is in the suite");
    let opts = RunOptions::new().with_instrs(INSTRS);

    for policy in [FetchPolicy::Optimistic, FetchPolicy::Resume] {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;

        let shared = simulate_benchmark(bench, cfg, opts);
        let workload = bench.workload().expect("calibrated specs generate");
        let legacy =
            Simulator::new(cfg).run(workload.executor(bench.path_seed()).take_instrs(INSTRS));

        assert_eq!(
            shared, legacy,
            "{policy:?}: shared-trace result diverged from the legacy interpreter path"
        );
        assert_eq!(
            shared.ispi().to_bits(),
            legacy.ispi().to_bits(),
            "{policy:?}: ISPI must be bit-identical, not merely approximately equal"
        );
        assert_eq!(shared.correct_instrs, INSTRS);
    }
}

/// Replaying the same cached trace twice is itself deterministic: a
/// second shared-mode run reproduces the first exactly.
#[test]
fn shared_trace_replay_is_deterministic_across_runs() {
    let bench = Benchmark::by_name("li").expect("li is in the suite");
    let opts = RunOptions::new().with_instrs(INSTRS);
    let cfg = SimConfig::paper_baseline();

    let first = simulate_benchmark(bench, cfg, opts);
    let second = simulate_benchmark(bench, cfg, opts);
    assert_eq!(first, second);
}
