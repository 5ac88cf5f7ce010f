//! Static program analysis: the `repro --analyze` pass and the cheap
//! pre-simulation preflight.
//!
//! The fetch-policy comparison assumes every generated code image is
//! structurally sound — the speculative policies walk *wrong* paths, so a
//! dangling branch target or a walk that escapes the image would silently
//! skew the very cache statistics the paper measures. This module runs
//! the [`specfetch_isa::verify_cfg`] verifier (through
//! [`Workload::analyze`], which adds the behavioural-annotation checks)
//! over each benchmark's generated program:
//!
//! - [`analyze_benchmark`] / [`analyze_all`] back the `--analyze` CLI
//!   mode and return the full typed [`CfgReport`];
//! - [`preflight`] is the go/no-go gate the runner calls before
//!   simulating a point — its failures carry
//!   [`SpecfetchError::Analysis`] and render as `FAILED(analysis: …)`
//!   cells under the existing per-point isolation. It gates simulation,
//!   not lookup: a point the memo or the result store already holds
//!   reaches no engine and is never preflighted, so a fully warm replay
//!   generates and verifies no image.
//!
//! Analysis is memoized per process (one verifier walk per benchmark,
//! ever), so the preflight adds nothing measurable to a sweep. Each
//! benchmark has its own once-cell: the memo's lock is held only to find
//! that cell, so different benchmarks generate and verify in parallel,
//! and a repeated preflight reads the stored verdict without copying the
//! report.
//!
//! The `--corrupt-target <bench>` hook ([`set_corrupt_target`]) redirects
//! one conditional branch of the named benchmark's image out of the image
//! before analysis, so the failure paths — typed diagnostics, exit codes,
//! `FAILED(analysis: …)` cells — can be exercised end to end without
//! shipping a broken generator. The hook corrupts only the analysis
//! copy: what simulates, and so what a stored result came from, is the
//! real image.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use specfetch_core::SpecfetchError;
use specfetch_isa::CfgReport;
use specfetch_synth::suite::Benchmark;
use specfetch_synth::Workload;

use crate::{Format, Table};

/// Memoized per-benchmark analysis outcome. [`SpecfetchError`] is not
/// `Clone`, so generation failures are stored as their detail string and
/// re-wrapped on every read.
enum Memo {
    Report(CfgReport),
    WorkloadFail(String),
}

fn workload_error(bench: &Benchmark, detail: &str) -> SpecfetchError {
    SpecfetchError::Workload { bench: bench.name.to_owned(), detail: detail.to_owned() }
}

type MemoCell = Arc<OnceLock<Memo>>;

fn memo() -> &'static Mutex<HashMap<&'static str, MemoCell>> {
    static MEMO: OnceLock<Mutex<HashMap<&'static str, MemoCell>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Reads `bench`'s memoized outcome, computing it on first request. The
/// memo's lock is released before anything is generated: a second
/// caller for the same benchmark waits on its cell, not on the map.
fn with_memo<R>(bench: &Benchmark, read: impl FnOnce(&Memo) -> R) -> R {
    let cell = {
        let mut map = memo().lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry(bench.name).or_default())
    };
    read(cell.get_or_init(|| compute(bench)))
}

static CORRUPT_TARGET: OnceLock<String> = OnceLock::new();

/// Installs the process-wide corruption hook: the named benchmark's
/// image gets one branch target redirected out of the image before
/// analysis. Called once by the CLI (`--corrupt-target`) before anything
/// runs.
///
/// # Errors
///
/// [`SpecfetchError::InvalidSpec`] if `name` is not a benchmark or a
/// target is already installed.
pub fn set_corrupt_target(name: &str) -> Result<(), SpecfetchError> {
    if Benchmark::by_name(name).is_none() {
        return Err(SpecfetchError::InvalidSpec {
            detail: format!("--corrupt-target: unknown benchmark {name:?}"),
        });
    }
    CORRUPT_TARGET.set(name.to_owned()).map_err(|_| SpecfetchError::InvalidSpec {
        detail: "a corrupt target is already installed".to_owned(),
    })
}

fn maybe_corrupt(bench: &Benchmark, workload: Workload) -> Workload {
    if CORRUPT_TARGET.get().is_some_and(|n| n == bench.name) {
        if let Some((corrupted, _, _)) = workload.corrupt_first_branch_target() {
            return corrupted;
        }
    }
    workload
}

fn compute(bench: &Benchmark) -> Memo {
    match bench.workload() {
        Ok(w) => Memo::Report(maybe_corrupt(bench, w).analyze()),
        Err(e) => Memo::WorkloadFail(e.to_string()),
    }
}

/// Statically analyzes one benchmark's generated program, memoized per
/// process.
///
/// The returned report may still contain issues — use
/// [`CfgReport::is_ok`] (or call [`preflight`] for a pass/fail answer).
///
/// # Errors
///
/// [`SpecfetchError::Workload`] if the workload fails to generate at all
/// (there is then no image to analyze).
pub fn analyze_benchmark(bench: &Benchmark) -> Result<CfgReport, SpecfetchError> {
    with_memo(bench, |memo| match memo {
        Memo::Report(r) => Ok(r.clone()),
        Memo::WorkloadFail(detail) => Err(workload_error(bench, detail)),
    })
}

/// The go/no-go analysis gate the runner fires before simulating a
/// point: only a point that is neither memoized nor stored, so a warm
/// replay never calls it.
///
/// # Errors
///
/// [`SpecfetchError::Analysis`] (carrying the full typed report) if the
/// image fails verification; [`SpecfetchError::Workload`] if it cannot
/// even be generated.
pub fn preflight(bench: &Benchmark) -> Result<(), SpecfetchError> {
    with_memo(bench, |memo| match memo {
        Memo::Report(r) if r.is_ok() => Ok(()),
        Memo::Report(r) => {
            Err(SpecfetchError::Analysis { bench: bench.name.to_owned(), report: r.clone() })
        }
        Memo::WorkloadFail(detail) => Err(workload_error(bench, detail)),
    })
}

/// Analyzes every benchmark in suite order (the `--analyze` CLI mode).
pub fn analyze_all() -> Vec<(&'static Benchmark, Result<CfgReport, SpecfetchError>)> {
    Benchmark::all().iter().map(|b| (b, analyze_benchmark(b))).collect()
}

/// Renders analysis outcomes as a report table: one row per benchmark,
/// `ok` or `FAILED(...)` in the verdict column (so
/// [`Table::failed_cells`] counts analysis failures like any other
/// report).
pub fn render_analysis(
    results: &[(&'static Benchmark, Result<CfgReport, SpecfetchError>)],
    format: Format,
) -> String {
    let mut t = Table::new(["bench", "instrs", "reachable", "conds", "wp-visited", "verdict"]);
    for (bench, outcome) in results {
        match outcome {
            Ok(r) => t.row([
                bench.name.to_owned(),
                r.instrs.to_string(),
                r.reachable.to_string(),
                r.conditionals.to_string(),
                r.wrong_path_visited.to_string(),
                if r.is_ok() { "ok".to_owned() } else { format!("FAILED({})", r.headline()) },
            ]),
            Err(e) => t.row([
                bench.name.to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                format!("FAILED({})", e.cell_reason()),
            ]),
        }
    }
    t.render(format)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_preflights_clean() {
        for b in Benchmark::all() {
            assert!(preflight(b).is_ok(), "{} failed preflight", b.name);
        }
    }

    #[test]
    fn analysis_is_memoized() {
        let b = Benchmark::by_name("li").unwrap();
        let a = analyze_benchmark(b).unwrap();
        let c = analyze_benchmark(b).unwrap();
        assert_eq!(a, c);
        let map = memo().lock().unwrap_or_else(PoisonError::into_inner);
        assert!(map.get("li").is_some_and(|cell| cell.get().is_some()));
    }

    #[test]
    fn render_covers_all_rows_and_counts_no_failures_on_clean_tree() {
        let results = analyze_all();
        assert_eq!(results.len(), 13);
        let text = render_analysis(&results, Format::Plain);
        for b in Benchmark::all() {
            assert!(text.contains(b.name), "missing row for {}", b.name);
        }
        assert!(!text.contains("FAILED"), "clean tree rendered a failure:\n{text}");
    }

    #[test]
    fn corrupt_report_renders_as_failed_cell() {
        // Build the failure rendering without touching the process-wide
        // corruption hook (other tests in this binary rely on clean
        // preflights).
        let b = Benchmark::by_name("li").unwrap();
        let w = b.workload().unwrap();
        let (corrupted, _, _) = w.corrupt_first_branch_target().unwrap();
        let report = corrupted.analyze();
        assert!(!report.is_ok());
        let rendered = render_analysis(&[(b, Ok(report.clone()))], Format::Plain);
        assert!(rendered.contains("FAILED(transfer at"), "{rendered}");
        let err = SpecfetchError::Analysis { bench: b.name.to_owned(), report };
        assert!(err.cell_reason().starts_with("analysis: "), "{}", err.cell_reason());
    }

    #[test]
    fn set_corrupt_target_rejects_unknown_benchmarks() {
        let e = set_corrupt_target("nonesuch").unwrap_err();
        assert!(matches!(e, SpecfetchError::InvalidSpec { .. }));
        assert!(e.to_string().contains("nonesuch"));
    }
}
