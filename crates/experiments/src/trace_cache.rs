//! Process-wide record-once / replay-many cache of benchmark traces.
//!
//! The full reproduction is a cross-product of configurations over the
//! same 13 correct paths: every cell of every table replays the identical
//! instruction stream under a different front end.
//! [`try_predicted_trace`] interprets each calibrated workload **once per
//! (benchmark, instruction window)** into a [`PredictedTrace`] and hands
//! every later request the shared trace — an `Arc` bump instead of a
//! fresh behavioural interpretation. Lockstep lanes replay it, and
//! Table 2 characterises the path from it.
//!
//! Finished results are not cached here: a grid point's outcome belongs
//! to [`crate::store`] (the result memo and the on-disk store).
//!
//! Concurrency: the map is guarded by one mutex held only for key
//! lookup; each entry is a [`OnceLock`], so parallel workers that race on
//! a cold entry converge on one shared value.
//!
//! Failure: grid points are allowed to panic (see
//! [`try_par_map`](crate::try_par_map)), so the cache must outlive a
//! panicking neighbour. [`lock_recovering`] clears mutex poisoning and
//! evicts entries whose initialisation was in flight when the panic hit;
//! workload failures are reported as [`SpecfetchError`] values instead of
//! unwinding, and never cached — the next request retries.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock};

use specfetch_core::SpecfetchError;
use specfetch_synth::suite::Benchmark;
use specfetch_trace::PredictedTrace;

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

static TRACES: LazyLock<Map<Key, Arc<PredictedTrace>>> = LazyLock::new(Default::default);

/// The shared trace of `bench`'s correct path, capped at `instrs`
/// instructions — recorded on first request, an `Arc` bump after.
///
/// # Errors
///
/// Returns [`SpecfetchError::Workload`] if the calibrated spec fails to
/// generate.
pub fn try_predicted_trace(
    bench: &Benchmark,
    instrs: u64,
) -> Result<Arc<PredictedTrace>, SpecfetchError> {
    try_get_or_init(&TRACES, (bench.name, instrs), || {
        let workload = bench.workload().map_err(|e| SpecfetchError::Workload {
            bench: bench.name.to_owned(),
            detail: e.to_string(),
        })?;
        let mut live = workload.executor(bench.path_seed());
        Ok(Arc::new(PredictedTrace::record(&mut live, instrs)))
    })
}

/// Whether a trace of `bench` at `instrs` is held, without recording
/// one: lets tests check that a path served from the store recorded
/// nothing.
#[cfg(test)]
pub(crate) fn has_trace(bench: &Benchmark, instrs: u64) -> bool {
    lock_recovering(&TRACES).get(&(bench.name, instrs)).is_some_and(|c| c.get().is_some())
}

/// [`try_predicted_trace`] under the name the benchmark ledger still
/// calls.
///
/// # Errors
///
/// Propagates [`try_predicted_trace`]'s errors.
pub fn try_shared_trace(
    bench: &Benchmark,
    instrs: u64,
) -> Result<Arc<PredictedTrace>, SpecfetchError> {
    try_predicted_trace(bench, instrs)
}

/// Infallible [`try_predicted_trace`], kept for the benchmark ledger.
///
/// # Panics
///
/// Panics if the trace cannot be recorded.
pub fn shared_trace(bench: &Benchmark, instrs: u64) -> Arc<PredictedTrace> {
    try_predicted_trace(bench, instrs)
        .unwrap_or_else(|e| panic!("recording {}/{instrs}: {e}", bench.name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_trace::PathSource;

    fn trace(name: &str, instrs: u64) -> Arc<PredictedTrace> {
        try_predicted_trace(Benchmark::by_name(name).unwrap(), instrs).unwrap()
    }

    #[test]
    fn same_window_is_recorded_once() {
        let a = trace("li", 1_234);
        assert!(Arc::ptr_eq(&a, &trace("li", 1_234)), "second request must reuse the trace");
        assert_eq!(a.len(), 1_234);
        let b = Benchmark::by_name("li").unwrap();
        assert!(Arc::ptr_eq(&a, &try_shared_trace(b, 1_234).unwrap()));
        assert!(Arc::ptr_eq(&a, &shared_trace(b, 1_234)));
    }

    #[test]
    fn windows_are_distinct_entries() {
        let (a, c) = (trace("li", 1_111), trace("li", 2_222));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.len(), 2_222);
    }

    #[test]
    fn replay_matches_the_live_interpreter_for_every_benchmark() {
        // An odd window, so traces end mid-run on some benchmarks and on a
        // transfer on others.
        const W: u64 = 7_013;
        for b in Benchmark::all() {
            let w = b.workload().unwrap();
            let mut live = w.executor(b.path_seed()).take_instrs(W);
            let mut replay = PredictedTrace::source(&trace(b.name, W));
            let mut n = 0;
            loop {
                let (x, y) = (live.next_instr(), replay.next_instr());
                assert_eq!(x, y, "{} at instruction {n}", b.name);
                if x.is_none() {
                    break;
                }
                n += 1;
            }
            assert_eq!(n, W, "{}", b.name);
        }
    }

    #[test]
    fn every_trace_stays_under_one_byte_per_instruction_and_five_per_transfer() {
        // Measured at this window: at most 0.95 bytes per instruction
        // (porky) and 4.86 per transfer besides the direction bits (groff).
        for b in Benchmark::all() {
            let t = trace(b.name, 50_000);
            let transfers = t.branches_in(0, t.len());
            let direction_bytes = t.cond_count().div_ceil(64) * 8;
            assert!(
                t.heap_bytes() < t.len() && t.heap_bytes() - direction_bytes <= 5 * transfers,
                "{}: {} bytes for {} instructions, {transfers} transfers",
                b.name,
                t.heap_bytes(),
                t.len()
            );
        }
    }

    #[test]
    fn concurrent_cold_requests_converge() {
        let traces = crate::par_map(vec![(); 8], true, |()| trace("groff", 3_000));
        for t in &traces {
            assert!(Arc::ptr_eq(t, &traces[0]));
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
