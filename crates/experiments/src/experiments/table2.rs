//! Paper Table 2: benchmark inventory and dynamic branch density.

use std::path::Path;

use specfetch_core::SpecfetchError;
use specfetch_synth::suite::Benchmark;
use specfetch_trace::{PathSource, PredictedTrace, TraceStats};

use crate::result_store::{self, PathEntry};
use crate::runner::{isolated_map, mean};
use crate::{par_map, ExperimentReport, RunOptions, Table};

/// Measured workload characteristics for one benchmark.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: &'static Benchmark,
    /// Dynamic path statistics over the simulated window.
    pub stats: TraceStats,
    /// Static code footprint, kilobytes.
    pub static_kb: u64,
}

/// Characterises one benchmark, reporting workload/trace failures as
/// typed errors instead of panicking. With a store root (`--result-dir`)
/// the row is read from, or on a miss written to, its path entries.
fn try_row(
    store: Option<&Path>,
    b: &'static Benchmark,
    instrs: u64,
) -> Result<Row, SpecfetchError> {
    let entry = match store.and_then(|dir| result_store::get_path_in(dir, b.name, instrs)) {
        Some(entry) => entry,
        None => {
            let mut src =
                PredictedTrace::source(&crate::trace_cache::try_predicted_trace(b, instrs)?);
            let footprint_bytes = src.program().footprint_bytes();
            let entry = PathEntry { stats: TraceStats::from_source(&mut src), footprint_bytes };
            if let Some(dir) = store {
                result_store::put_path_in(dir, b.name, instrs, &entry);
            }
            entry
        }
    };
    Ok(Row { benchmark: b, stats: entry.stats, static_kb: entry.footprint_bytes / 1024 })
}

/// Gathers the measured rows (no timing simulation needed — Table 2 is
/// pure path characterisation).
pub fn data(opts: &RunOptions) -> Vec<Row> {
    let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    let opts = *opts;
    par_map(benches, opts.parallel, |b| {
        try_row(result_store::dir(), b, opts.instrs_per_benchmark)
            .unwrap_or_else(|e| panic!("characterising {}: {e}", b.name))
    })
}

/// Renders the report. Rows run isolated: a benchmark whose workload
/// fails renders `FAILED(...)` in its measured columns while the static
/// columns (language, paper density) and every other row still appear.
pub fn run(opts: &RunOptions) -> ExperimentReport {
    let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    let rows = isolated_map(benches.clone(), opts, |b| {
        try_row(result_store::dir(), b, opts.instrs_per_benchmark)
    });
    let mut table =
        Table::new(["bench", "lang", "instrs", "%br", "%br paper", "taken%", "static KB"]);
    for (b, row) in benches.iter().zip(&rows) {
        let paper = format!("{:.1}", b.paper.branch_pct);
        match row {
            Ok(r) => table.row(vec![
                b.name.to_owned(),
                b.lang.to_string(),
                r.stats.instrs.to_string(),
                format!("{:.1}", r.stats.branch_pct()),
                paper,
                format!("{:.0}", 100.0 * r.stats.taken_ratio()),
                r.static_kb.to_string(),
            ]),
            Err(e) => table.row(vec![
                b.name.to_owned(),
                b.lang.to_string(),
                e.cell(),
                e.cell(),
                paper,
                e.cell(),
                e.cell(),
            ]),
        }
    }
    table.row(vec![
        "Average".into(),
        "-".into(),
        "-".into(),
        format!(
            "{:.1}",
            mean(rows.iter().filter_map(|r| r.as_ref().ok()).map(|r| r.stats.branch_pct()))
        ),
        format!("{:.1}", mean(benches.iter().map(|b| b.paper.branch_pct))),
        "-".into(),
        "-".into(),
    ]);
    ExperimentReport {
        id: "table2",
        title: "Benchmark inventory (dynamic branch density vs paper Table 2)".into(),
        table,
        notes: vec!["Instruction counts are the simulated window, not the paper's full runs \
             (6M-4.8B); branch density is the calibrated quantity."
            .into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_rows_and_plausible_density() {
        let rows = data(&RunOptions::smoke());
        assert_eq!(rows.len(), 13);
        for r in &rows {
            assert_eq!(r.stats.instrs, RunOptions::smoke().instrs_per_benchmark);
            assert!(r.static_kb > 0, "{}: zero footprint", r.benchmark.name);
            let measured = r.stats.branch_pct();
            let paper = r.benchmark.paper.branch_pct;
            assert!(
                (measured - paper).abs() < paper.max(3.0),
                "{}: measured {measured:.1}% vs paper {paper:.1}%",
                r.benchmark.name
            );
        }
    }

    /// The row by definition: a fresh interpretation of the workload,
    /// bypassing the shared traces.
    fn live_row(b: &'static Benchmark, instrs: u64) -> Row {
        let w = b.workload().unwrap();
        let stats = TraceStats::from_source(&mut w.executor(b.path_seed()).take_instrs(instrs));
        Row { benchmark: b, stats, static_kb: w.program().footprint_bytes() / 1024 }
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("specfetch-table2-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_cold_row_is_the_live_row_and_is_stored() {
        let b = Benchmark::by_name("tex").unwrap();
        let dir = scratch("cold");
        let row = try_row(Some(&dir), b, 1_999).unwrap();
        assert_eq!(row, live_row(b, 1_999));
        let stored = result_store::get_path_in(&dir, b.name, 1_999).expect("the row is stored");
        assert_eq!(stored.stats, row.stats);
        assert_eq!(stored.footprint_bytes / 1024, row.static_kb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_warm_row_records_nothing() {
        let b = Benchmark::by_name("gcc").unwrap();
        let dir = scratch("warm");
        let live = live_row(b, 1_777);
        let footprint_bytes = b.workload().unwrap().program().footprint_bytes();
        result_store::put_path_in(
            &dir,
            b.name,
            1_777,
            &PathEntry { stats: live.stats.clone(), footprint_bytes },
        );
        assert_eq!(try_row(Some(&dir), b, 1_777).unwrap(), live);
        assert!(
            !crate::trace_cache::has_trace(b, 1_777),
            "a warm row must not record the workload"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_has_average_row() {
        let rep = run(&RunOptions::smoke());
        assert_eq!(rep.table.len(), 14);
        assert_eq!(rep.table.cell(13, 0), Some("Average"));
    }
}
