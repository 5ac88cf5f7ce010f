//! The store layer: one facade over every place a grid point's outcome
//! can already live — the process-wide result memo, the on-disk
//! [`crate::result_store`], and the crash-exact [`crate::journal`] —
//! owning the resolution order (memo → disk → compute) and exposing the
//! journal's lifecycle counters as typed [`Progress`] snapshots.
//!
//! The free function [`resolve_stored`] is the per-point lookup the
//! runner's planner calls on the hot path (computed results go to
//! [`crate::result_store::put`] when their batch settles);
//! [`RunStore`] is the per-job handle the driver and the service
//! controller hold — it attaches a journal, reads progress, and
//! releases the slot, without either layer touching journal internals.

use std::path::{Path, PathBuf};

use specfetch_core::{SimConfig, SpecfetchError};
use specfetch_synth::suite::Benchmark;

use crate::runner::{CellFailure, GridCell};
use crate::{journal, RunOptions};

/// A snapshot of one job's journalled lifecycle counters: how many grid
/// points this process run scheduled, and how many reached each
/// terminal state so far. `completed + failed + interrupted` catches up
/// to `scheduled` as the job drains.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Progress {
    /// Points journalled as scheduled.
    pub scheduled: u64,
    /// Points that completed OK.
    pub completed: u64,
    /// Points that failed terminally.
    pub failed: u64,
    /// Points drained by a shutdown or cancellation.
    pub interrupted: u64,
}

/// The per-job handle over the store layer. Holding one does not imply
/// a journal is attached — journalling activates only when a result
/// directory is configured, exactly as before.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RunStore {
    job: u64,
}

impl RunStore {
    /// The handle for `job` (`0` = the CLI's ambient job).
    pub fn for_job(job: u64) -> Self {
        RunStore { job }
    }

    /// The job this handle addresses.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// Opens (or, with `resume`, replays) the journal for `run_key`
    /// under `dir` and attaches it to this job. See
    /// [`journal::activate_job`].
    ///
    /// # Errors
    ///
    /// [`SpecfetchError::Io`] when the directory or file cannot be
    /// created; [`SpecfetchError::InvalidSpec`] for interior
    /// corruption, a bad header, or a double activation.
    pub fn attach_journal(
        &self,
        dir: &Path,
        run_key: u64,
        resume: bool,
    ) -> Result<PathBuf, SpecfetchError> {
        journal::activate_job(self.job, dir, run_key, resume)
    }

    /// This job's journalled progress so far, or `None` when no journal
    /// is attached (progress is a journal-derived quantity).
    pub fn progress(&self) -> Option<Progress> {
        journal::counters(self.job).map(|(scheduled, completed, failed, interrupted)| Progress {
            scheduled,
            completed,
            failed,
            interrupted,
        })
    }

    /// Flushes and detaches this job's journal (controller cleanup once
    /// the job reaches a terminal state). A no-op when none is attached.
    pub fn detach(&self) {
        journal::release(self.job);
    }
}

/// Resolves a grid point from the layers that already hold its outcome:
/// the process-wide memo first, then the on-disk result store (a disk
/// hit back-fills the memo so the next lookup is RAM-only). A stored
/// *negative* entry (terminal failure) resolves to its replayed
/// `Err(CellFailure)` unless `--retry-failed` opts back into
/// recomputing. `None` means the point must actually simulate.
pub(crate) fn resolve_stored(
    bench: &Benchmark,
    instrs: u64,
    cfg: SimConfig,
    opts: &RunOptions,
) -> Option<GridCell> {
    if let Some(r) = crate::trace_cache::cached_result(bench, instrs, cfg) {
        return Some(Ok(r));
    }
    match crate::result_store::get(bench.name, instrs, &cfg) {
        Some(crate::result_store::StoredOutcome::Completed(r)) => {
            crate::trace_cache::store_result(bench, instrs, cfg, r.clone());
            Some(Ok(r))
        }
        Some(crate::result_store::StoredOutcome::Failed(reason)) if !opts.retry_failed => {
            Some(Err(CellFailure::from_replay(reason)))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_snapshots_track_the_attached_journal() {
        let dir =
            std::env::temp_dir().join(format!("specfetch-runstore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Id chosen to stay clear of other tests: journals are
        // process-wide.
        let store = RunStore::for_job(0xDEAD_3001);
        assert_eq!(store.job(), 0xDEAD_3001);
        assert_eq!(store.progress(), None, "no journal attached yet");

        store.attach_journal(&dir, 42, false).unwrap();
        journal::begin_experiment(store.job(), "sweep");
        journal::record_scheduled(store.job(), 0, "li", 100, 0xaa);
        journal::record_scheduled(store.job(), 1, "gcc", 100, 0xab);
        journal::record_completed(store.job(), 0);
        journal::record_failed(store.job(), 1, 2, "injected err");
        assert_eq!(
            store.progress(),
            Some(Progress { scheduled: 2, completed: 1, failed: 1, interrupted: 0 })
        );

        store.detach();
        assert_eq!(store.progress(), None, "detached jobs report no progress");
        store.detach(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }
}
