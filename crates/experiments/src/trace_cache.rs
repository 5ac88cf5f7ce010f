//! Process-wide record-once / replay-many caches of benchmark
//! recordings and their pre-decoded overlays.
//!
//! The full reproduction is a cross-product of configurations over the
//! same 13 correct paths: every cell of every table replays the identical
//! instruction stream under a different front-end. Two layers keep that
//! cross-product cheap:
//!
//! 1. [`try_shared_trace`] interprets each calibrated workload **once
//!    per (benchmark, instruction window)** and hands every subsequent
//!    run the shared [`RecordedTrace`] ([`try_recorded_source`] is a
//!    replay cursor over it) — an `Arc` bump instead of a fresh
//!    behavioural interpretation.
//! 2. [`try_predicted_trace`] builds the [`PredictedTrace`] overlay —
//!    decoded instruction classes, sequential-run lengths, static
//!    targets, and the resolve-order outcome stream — **once per
//!    recording**, so no configuration ever re-decodes the path (the
//!    engine's batched fetch fast path also keys off it).
//!
//! Finished results are not cached here: a grid point's outcome belongs
//! to [`crate::store`] (the result memo and the on-disk store).
//!
//! Concurrency: each map is guarded by one mutex held only for key
//! lookup; each entry is a [`OnceLock`], so parallel workers that race on
//! a cold entry converge on one shared value.
//!
//! Failure: grid points are allowed to panic (see
//! [`try_par_map`](crate::try_par_map)), so the caches must outlive a
//! panicking neighbour. [`lock_recovering`] clears mutex poisoning and
//! evicts entries whose initialisation was in flight when the panic hit;
//! trace and workload failures are reported as [`SpecfetchError`] values
//! instead of unwinding, and never cached — the next request retries.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

use specfetch_core::SpecfetchError;
use specfetch_synth::suite::Benchmark;
use specfetch_trace::{PredictedTrace, RecordedSource, RecordedTrace};

type Key = (&'static str, u64);
type Cell<T> = Arc<OnceLock<T>>;
type Map<K, T> = Mutex<HashMap<K, Cell<T>>>;

/// Locks a cache map, recovering if a previous holder panicked.
///
/// The guard is held only for key lookup, so poisoning requires a panic
/// inside that critical section — which no current code path does — but
/// the experiment runner's contract is that one panicking grid point
/// costs one cell, so the caches must not amplify an unexpected panic
/// into a process-wide wedge. Recovery clears the poison flag and evicts
/// entries whose [`OnceLock`] is still unset: their initialisation may
/// have been unwound mid-flight, and eviction makes the next request
/// rebuild them from scratch.
fn lock_recovering<K: Eq + Hash, T>(map: &Map<K, T>) -> MutexGuard<'_, HashMap<K, Cell<T>>> {
    match map.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            map.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.retain(|_, cell| cell.get().is_some());
            guard
        }
    }
}

/// Fetches (creating if absent) the once-cell for `key`, then fills it
/// with `compute`. An `Err` from `compute` is returned to the caller
/// but **not** cached, so the next request retries.
///
/// The value is computed before the cell is filled; if two threads race
/// on a cold key, the loser's duplicate is discarded by
/// [`OnceLock::get_or_init`] and both return the winner's value, so all
/// callers still converge on one shared entry.
fn try_get_or_init<K: Eq + Hash + Clone, T: Clone>(
    map: &Map<K, T>,
    key: K,
    compute: impl FnOnce() -> Result<T, SpecfetchError>,
) -> Result<T, SpecfetchError> {
    let cell = {
        let mut map = lock_recovering(map);
        Arc::clone(map.entry(key).or_default())
    };
    if let Some(v) = cell.get() {
        return Ok(v.clone());
    }
    let v = compute()?;
    Ok(cell.get_or_init(|| v).clone())
}

static RECORDINGS: LazyLock<Map<Key, Arc<RecordedTrace>>> = LazyLock::new(Default::default);
static OVERLAYS: LazyLock<Map<Key, Arc<PredictedTrace>>> = LazyLock::new(Default::default);

/// The shared recording of `bench`'s correct path, capped at `instrs`
/// instructions — recorded on first request, replayed from memory after.
///
/// # Errors
///
/// Returns [`SpecfetchError::Workload`] if the calibrated spec fails to
/// generate.
pub fn try_shared_trace(
    bench: &Benchmark,
    instrs: u64,
) -> Result<Arc<RecordedTrace>, SpecfetchError> {
    try_get_or_init(&RECORDINGS, (bench.name, instrs), || {
        let workload = bench.workload().map_err(|e| SpecfetchError::Workload {
            bench: bench.name.to_owned(),
            detail: e.to_string(),
        })?;
        let mut live = workload.executor(bench.path_seed());
        Ok(Arc::new(RecordedTrace::record(&mut live, instrs)))
    })
}

/// Whether a recording of `bench` at `instrs` is held, without making
/// one: lets tests check that a path served from the store recorded
/// nothing.
#[cfg(test)]
pub(crate) fn has_recording(bench: &Benchmark, instrs: u64) -> bool {
    lock_recovering(&RECORDINGS).get(&(bench.name, instrs)).is_some_and(|c| c.get().is_some())
}

/// Infallible convenience over [`try_shared_trace`].
///
/// # Panics
///
/// Panics if the recording cannot be produced (calibrated specs always
/// generate; a panic here is captured per grid point by the runner).
pub fn shared_trace(bench: &Benchmark, instrs: u64) -> Arc<RecordedTrace> {
    try_shared_trace(bench, instrs)
        .unwrap_or_else(|e| panic!("recording {}/{instrs}: {e}", bench.name))
}

/// A fresh replay cursor over [`shared_trace`]'s recording.
///
/// # Errors
///
/// Propagates [`try_shared_trace`]'s errors.
pub fn try_recorded_source(
    bench: &Benchmark,
    instrs: u64,
) -> Result<RecordedSource, SpecfetchError> {
    Ok(RecordedTrace::source(&try_shared_trace(bench, instrs)?))
}

/// The shared pre-decoded overlay over [`shared_trace`]'s recording —
/// built on first request, an `Arc` bump after.
///
/// # Errors
///
/// Propagates [`try_shared_trace`]'s errors.
pub fn try_predicted_trace(
    bench: &Benchmark,
    instrs: u64,
) -> Result<Arc<PredictedTrace>, SpecfetchError> {
    try_get_or_init(&OVERLAYS, (bench.name, instrs), || {
        Ok(Arc::new(PredictedTrace::build(&try_shared_trace(bench, instrs)?)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_trace::PathSource;

    #[test]
    fn same_window_is_recorded_once() {
        let b = Benchmark::by_name("li").unwrap();
        let a = shared_trace(b, 1_234);
        let c = shared_trace(b, 1_234);
        assert!(Arc::ptr_eq(&a, &c), "second request must reuse the recording");
        assert_eq!(a.len(), 1_234);
    }

    #[test]
    fn windows_are_distinct_entries() {
        let b = Benchmark::by_name("li").unwrap();
        let a = shared_trace(b, 1_111);
        let c = shared_trace(b, 2_222);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 2_222);
    }

    #[test]
    fn fallible_and_infallible_paths_share_one_entry() {
        let b = Benchmark::by_name("gcc").unwrap();
        let a = try_shared_trace(b, 1_357).unwrap();
        let c = shared_trace(b, 1_357);
        assert!(Arc::ptr_eq(&a, &c));
        let p = try_predicted_trace(b, 1_357).unwrap();
        assert!(Arc::ptr_eq(&p, &try_predicted_trace(b, 1_357).unwrap()));
    }

    #[test]
    fn replay_matches_the_live_interpreter() {
        let b = Benchmark::by_name("tex").unwrap();
        let w = b.workload().unwrap();
        let mut live = w.executor(b.path_seed()).take_instrs(5_000);
        let mut replay = try_recorded_source(b, 5_000).unwrap();
        loop {
            let (x, y) = (live.next_instr(), replay.next_instr());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn concurrent_cold_requests_converge() {
        let b = Benchmark::by_name("groff").unwrap();
        let traces = crate::par_map(vec![(); 8], true, |()| shared_trace(b, 3_000));
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
        }
    }

    #[test]
    fn overlay_is_built_once_over_the_shared_recording() {
        let b = Benchmark::by_name("cfront").unwrap();
        let a = try_predicted_trace(b, 2_345).unwrap();
        let c = try_predicted_trace(b, 2_345).unwrap();
        assert!(Arc::ptr_eq(&a, &c), "second request must reuse the overlay");
        assert!(Arc::ptr_eq(a.base(), &shared_trace(b, 2_345)), "overlay wraps the shared trace");
        assert_eq!(a.len(), 2_345);
    }

    #[test]
    fn predicted_replay_matches_the_recorded_replay() {
        let b = Benchmark::by_name("ditroff").unwrap();
        let mut rec = try_recorded_source(b, 4_000).unwrap();
        let mut pre = PredictedTrace::source(&try_predicted_trace(b, 4_000).unwrap());
        loop {
            let (x, y) = (rec.next_instr(), pre.next_instr());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn poisoned_lock_recovers_and_evicts_inflight_cells() {
        let map: Map<&'static str, u32> = Mutex::new(HashMap::new());

        // One finished entry, one whose initialisation is "in flight"
        // (cell present but unset) when the poisoning panic hits.
        {
            let mut g = map.lock().unwrap();
            let done: Cell<u32> = Arc::default();
            done.set(7).unwrap();
            g.insert("done", done);
            g.insert("inflight", Arc::default());
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = map.lock().unwrap();
            panic!("poison the cache lock");
        }));
        assert!(map.is_poisoned(), "the panic above must have poisoned the lock");

        let g = lock_recovering(&map);
        assert_eq!(
            g.get("done").and_then(|c| c.get().copied()),
            Some(7),
            "finished entries survive"
        );
        assert!(!g.contains_key("inflight"), "in-flight entries are evicted for rebuild");
        drop(g);
        assert!(!map.is_poisoned(), "recovery clears the poison flag");

        // The evicted key rebuilds cleanly on the next request.
        assert_eq!(try_get_or_init(&map, "inflight", || Ok(42)).unwrap(), 42);
        assert_eq!(try_get_or_init(&map, "done", || unreachable!("cached")).unwrap(), 7);
    }

    #[test]
    fn errors_are_not_cached_and_later_success_is() {
        let map: Map<&'static str, u32> = Mutex::new(HashMap::new());
        let e = try_get_or_init(&map, "k", || Err(SpecfetchError::Injected { action: "err" }))
            .unwrap_err();
        assert!(matches!(e, SpecfetchError::Injected { .. }));

        // The failure did not wedge the cell: the retry computes, and the
        // third call is a cache hit.
        assert_eq!(try_get_or_init(&map, "k", || Ok(9)).unwrap(), 9);
        assert_eq!(try_get_or_init(&map, "k", || unreachable!("cached")).unwrap(), 9);
    }
}
