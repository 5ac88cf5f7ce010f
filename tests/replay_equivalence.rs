//! Shared-trace equivalence and determinism: the trace cache must be an
//! invisible optimisation. Running a benchmark through the record-once /
//! replay-many production path must reproduce, field for field, the
//! `SimResult` the engine computed when it interpreted the benchmark afresh
//! and consumed it one live instruction at a time (the legacy path, pinned
//! in `tests/fixtures/path_results.txt`) — same event counts, same ISPI.

mod pinned;

use specfetch_core::{FetchPolicy, SimConfig};
use specfetch_experiments::{simulate_benchmark, RunOptions};
use specfetch_synth::suite::Benchmark;

use pinned::assert_pinned;

const INSTRS: u64 = 50_000;

/// One benchmark, two policies (the eager baseline and the paper's best
/// policy), production replay against the pinned interpreter run: results
/// must match exactly, field for field.
#[test]
fn legacy_and_shared_trace_paths_are_equivalent() {
    let bench = Benchmark::by_name("gcc").expect("gcc is in the suite");
    let opts = RunOptions::new().with_instrs(INSTRS);

    for policy in [FetchPolicy::Optimistic, FetchPolicy::Resume] {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;

        let shared = simulate_benchmark(bench, cfg, opts);
        assert_pinned(&format!("suite/gcc/{}", policy.short_name()), &shared);
        assert_eq!(shared.correct_instrs, INSTRS);
    }
}

/// Replaying the same cached trace twice is itself deterministic: a
/// second shared-mode run reproduces the first exactly, and both are the
/// pinned interpreter run.
#[test]
fn shared_trace_replay_is_deterministic_across_runs() {
    let bench = Benchmark::by_name("li").expect("li is in the suite");
    let opts = RunOptions::new().with_instrs(INSTRS);
    let cfg = SimConfig::paper_baseline();

    let first = simulate_benchmark(bench, cfg, opts);
    let second = simulate_benchmark(bench, cfg, opts);
    assert_eq!(first, second);
    assert_pinned(&format!("suite/li/{}", cfg.policy.short_name()), &first);
}
