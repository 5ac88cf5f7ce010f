//! Experiment harness regenerating every table and figure of the ISCA '95
//! fetch-policy paper.
//!
//! Each paper artifact has a module under [`experiments`] exposing a
//! structured `data(...)` function (used by tests)
//! and a `run(...)` function returning a rendered [`ExperimentReport`].
//! The `specfetch-repro` binary drives them:
//!
//! ```text
//! specfetch-repro --experiment table5 --instrs 2000000
//! specfetch-repro --experiment all --format markdown
//! ```
//!
//! | Id | Paper artifact | What it reproduces |
//! |---|---|---|
//! | `table2` | Table 2 | workload inventory: instruction counts, % branches |
//! | `table3` | Table 3 | miss rates (8K/32K) + PHT/BTB ISPI at depths 1 and 4 |
//! | `table4` | Table 4 | miss classification BM/SPo/SPr/WP + traffic ratio |
//! | `figure1` | Figure 1 | ISPI breakdown per policy, baseline (5-cycle penalty) |
//! | `figure2` | Figure 2 | ISPI breakdown per policy, 20-cycle penalty |
//! | `table5` | Table 5 | ISPI × speculation depth (1/2/4) × policy |
//! | `table6` | Table 6 | ISPI per policy with a 32K cache |
//! | `figure3` | Figure 3 | next-line prefetching at the baseline penalty |
//! | `figure4` | Figure 4 | next-line prefetching at the 20-cycle penalty |
//! | `table7` | Table 7 | memory-traffic ratios with prefetching |
//!
//! Every report prints measured values next to the paper's published
//! numbers (kept in [`paper`]), so shape comparisons are immediate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod codec;
#[cfg(test)]
mod conformance;
pub mod diag;
pub mod driver;
pub mod experiments;
pub mod fault;
pub mod journal;
mod options;
pub mod paper;
mod parallel;
pub mod registry;
mod report;
pub mod result_store;
mod runner;
pub mod scenario;
pub mod store;
pub mod supervise;
pub mod sweep;
mod table;
pub mod trace_cache;
pub mod worker;

pub use driver::{Driver, DriverEvents, DriverOutcome, JobSpec};
pub use journal::Progress;
pub use options::RunOptions;
pub use parallel::{par_map, try_par_map};
pub use registry::{ExperimentEntry, REGISTRY};
pub use report::ExperimentReport;
pub use runner::{
    run_grid, simulate_benchmark, suite_results, try_run_grid, BenchResult, CellFailure, FailKind,
    GridCell, GridPoint, Measured,
};
pub use scenario::{run_scenario, ConfigPoint, Metric, Scenario, ScenarioGrid};
pub use specfetch_core::SpecfetchError;
pub use sweep::{parse_explain, parse_sweep, ExplainSpec, PathInput, SweepError};
pub use table::{Format, Table};

/// The paper-artifact experiment identifiers (`--experiment all`).
pub const EXPERIMENT_IDS: [&str; 10] = [
    "table2", "table3", "table4", "figure1", "figure2", "table5", "table6", "figure3", "figure4",
    "table7",
];

/// The ablation-study identifiers (`--experiment extras`), beyond the
/// paper's artifacts.
pub const EXTRA_EXPERIMENT_IDS: [&str; 5] =
    ["ablation-prefetch", "ablation-bpred", "ablation-assoc", "ablation-penalty", "ablation-bus"];

/// Whether `id` names an experiment [`run_experiment`] can dispatch
/// (paper artifact or ablation).
pub fn is_known_experiment(id: &str) -> bool {
    registry::find(id).is_some()
}

/// Runs one experiment by id, isolated: grid-point failures render as
/// `FAILED(...)` cells inside the report, and even a panic that escapes
/// an experiment's own aggregation logic is caught here and returned as
/// a typed error instead of unwinding through the caller.
///
/// # Errors
///
/// [`SpecfetchError::UnknownExperiment`] if `id` is not one of
/// [`EXPERIMENT_IDS`] / [`EXTRA_EXPERIMENT_IDS`];
/// [`SpecfetchError::ExperimentPanic`] if the experiment itself
/// panicked.
pub fn run_experiment(id: &str, opts: &RunOptions) -> Result<ExperimentReport, SpecfetchError> {
    if !is_known_experiment(id) {
        return Err(SpecfetchError::UnknownExperiment { id: id.to_owned() });
    }
    fault::begin_experiment(id);
    journal::begin_experiment(opts.job, id);
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dispatch(id, opts))).map_err(
        |payload| SpecfetchError::ExperimentPanic {
            id: id.to_owned(),
            reason: parallel::panic_message(payload.as_ref()),
        },
    )
}

fn dispatch(id: &str, opts: &RunOptions) -> ExperimentReport {
    let entry =
        registry::find(id).unwrap_or_else(|| unreachable!("is_known_experiment admitted {id}"));
    (entry.run)(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_reported() {
        let opts = RunOptions::smoke();
        let e = run_experiment("table99", &opts).unwrap_err();
        assert!(matches!(&e, SpecfetchError::UnknownExperiment { id } if id == "table99"));
        assert!(e.to_string().contains("table99"));
    }

    #[test]
    fn known_ids_are_known() {
        for id in EXPERIMENT_IDS.iter().chain(&EXTRA_EXPERIMENT_IDS) {
            assert!(is_known_experiment(id), "{id} should be known");
        }
        assert!(!is_known_experiment("table99"));
        assert!(!is_known_experiment(""));
    }

    /// The const id arrays (used by job specs and CLI help) must
    /// partition the registry exactly, in registry order.
    #[test]
    fn id_arrays_mirror_the_registry() {
        let papers: Vec<&str> =
            REGISTRY.iter().filter(|e| e.paper_artifact).map(|e| e.id).collect();
        let extras: Vec<&str> =
            REGISTRY.iter().filter(|e| !e.paper_artifact).map(|e| e.id).collect();
        assert_eq!(papers, EXPERIMENT_IDS);
        assert_eq!(extras, EXTRA_EXPERIMENT_IDS);
    }

    #[test]
    fn every_listed_id_dispatches() {
        // Smoke-run the two cheapest to keep test time sane; the rest are
        // covered by integration tests.
        let opts = RunOptions::smoke();
        for id in ["table2", "table4"] {
            let r = run_experiment(id, &opts).unwrap();
            assert_eq!(r.id, id);
            assert!(!r.table.render(Format::Plain).is_empty());
        }
    }
}
