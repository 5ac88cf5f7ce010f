//! Where a grid point's outcome lives: the one module that knows.
//!
//! A point's outcome can already be held in two places — the
//! process-wide result memo here, and the on-disk
//! [`crate::result_store`]. [`resolve_stored`] looks a point up (memo,
//! then disk) before anything simulates it; [`record`] and
//! [`record_failed`] are the only writers, called by the runner once a
//! batch settles and once a grid's terminal outcomes are known. The
//! executor (`runner::simulate_configs`) only computes and never sees
//! either layer.
//!
//! The memo deduplicates points that recur across experiments (every
//! table re-runs the shared baselines; the engine is deterministic, so a
//! revisit is a clone). It lasts one run: a CLI process, or one busy
//! period of the job service, which empties it with [`clear_memo`].

use std::collections::HashMap;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

use specfetch_core::{SimConfig, SimResult};
use specfetch_synth::suite::Benchmark;

use crate::runner::{CellFailure, GridCell};
use crate::{result_store, RunOptions};

/// A grid point: benchmark, instruction window, configuration.
type Point = (&'static str, u64, SimConfig);

static MEMO: LazyLock<Mutex<HashMap<Point, SimResult>>> = LazyLock::new(Default::default);

/// The memo, held only for one lookup, insert or clear. No code runs
/// under the guard that could leave the map half-updated, so a poisoned
/// lock is still a consistent map.
fn memo() -> MutexGuard<'static, HashMap<Point, SimResult>> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The memoized result of `bench` at `instrs` under `cfg`, if this run
/// has already settled it.
pub fn memoized(bench: &Benchmark, instrs: u64, cfg: SimConfig) -> Option<SimResult> {
    memo().get(&(bench.name, instrs, cfg)).cloned()
}

/// Memoizes a finished result. If the point is already held, the
/// engine's determinism makes both values equal and the held one stays.
fn remember(bench: &Benchmark, instrs: u64, cfg: SimConfig, result: &SimResult) {
    memo().entry((bench.name, instrs, cfg)).or_insert_with(|| result.clone());
}

/// Empties the result memo. Recorded traces stay. A long-lived
/// caller (the job service, between busy periods) calls this so the
/// memo does not grow with every point the process has ever simulated.
pub fn clear_memo() {
    // Taken out under the lock, freed after it.
    let _results = std::mem::take(&mut *memo());
}

/// Resolves a grid point from the layers that already hold its outcome:
/// the memo first, then the on-disk result store (a disk hit back-fills
/// the memo so the next lookup is RAM-only). A stored *negative* entry
/// (terminal failure) resolves to its replayed `Err(CellFailure)`
/// unless `--retry-failed` opts back into recomputing. `None` means the
/// point must actually simulate.
pub(crate) fn resolve_stored(
    bench: &Benchmark,
    instrs: u64,
    cfg: SimConfig,
    opts: &RunOptions,
) -> Option<GridCell> {
    if let Some(r) = memoized(bench, instrs, cfg) {
        return Some(Ok(r));
    }
    match result_store::get(bench.name, instrs, &cfg) {
        Some(result_store::StoredOutcome::Completed(r)) => {
            remember(bench, instrs, cfg, &r);
            Some(Ok(r))
        }
        Some(result_store::StoredOutcome::Failed(reason)) if !opts.retry_failed => {
            Some(Err(CellFailure::from_replay(reason)))
        }
        _ => None,
    }
}

/// Records a simulated point's result: into the memo, and into the
/// result store when one is configured.
pub(crate) fn record(bench: &Benchmark, instrs: u64, cfg: SimConfig, result: &SimResult) {
    remember(bench, instrs, cfg, result);
    result_store::put(bench.name, instrs, &cfg, result);
}

/// Records a point's terminal failure as a negative result-store entry
/// (the memo holds successes only). A no-op without a result store.
pub(crate) fn record_failed(bench: &Benchmark, instrs: u64, cfg: SimConfig, reason: &str) {
    result_store::put_failed(bench.name, instrs, &cfg, reason);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_point_resolves_from_the_memo_and_keeps_its_first_result() {
        // The window is this test's own: the memo is process-wide.
        const W: u64 = 4_021;
        let b = Benchmark::by_name("idl").unwrap();
        let cfg = SimConfig::paper_baseline();
        let opts = RunOptions::smoke().with_instrs(W);
        assert_eq!(resolve_stored(b, W, cfg, &opts), None, "a cold point simulates");

        let first = crate::run_grid(&[crate::GridPoint::new(b, cfg)], &opts).remove(0);
        let later = SimResult { cycles: first.cycles + 1, ..first.clone() };
        record(b, W, cfg, &later);
        assert_eq!(memoized(b, W, cfg), Some(first.clone()), "the first result stays");
        assert_eq!(resolve_stored(b, W, cfg, &opts), Some(Ok(first)));
    }
}
