//! Paper Table 5: effect of speculation depth (1, 2, 4 unresolved
//! branches) on every policy's ISPI.

use specfetch_core::{FetchPolicy, SimResult};
use specfetch_synth::suite::Benchmark;

use crate::experiments::{baseline, measured, vs, vs_cell};
use crate::paper::TABLE5;
use crate::runner::{mean_ok, Measured};
use crate::scenario::{run_scenario, ConfigPoint, Scenario};
use crate::{ExperimentReport, RunOptions, Table};

/// The depths the paper sweeps.
pub const DEPTHS: [usize; 3] = [1, 2, 4];

/// ISPI of all five policies for one benchmark at one depth.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// The benchmark.
    pub benchmark: &'static Benchmark,
    /// Speculation depth (1, 2, or 4).
    pub depth: usize,
    /// ISPI in policy order (Oracle, Optimistic, Resume, Pessimistic,
    /// Decode); each slot is the measurement or its point's failure.
    pub ispi: [Measured<f64>; 5],
}

/// The declarative grid: per benchmark, `depth × policy` in depth-major
/// order (15 points), matching the paper's row layout.
pub(crate) fn scenario() -> Scenario {
    let mut points = Vec::new();
    for depth in DEPTHS {
        for policy in FetchPolicy::ALL {
            let mut cfg = baseline(policy);
            cfg.max_unresolved = depth;
            points.push(ConfigPoint::new(format!("d{depth}/{}", policy.short_name()), cfg));
        }
    }
    Scenario::suite("table5", "Effect of speculation depth on ISPI (paper Table 5)", points)
}

/// Gathers the full sweep: 13 benchmarks × 3 depths × 5 policies.
pub fn data(opts: &RunOptions) -> Vec<Row> {
    let grid = run_scenario(scenario(), opts);
    let mut rows = Vec::new();
    for (bi, &benchmark) in grid.scenario.benches.iter().enumerate() {
        for (di, runs) in grid.bench_cells(bi).chunks_exact(5).enumerate() {
            let ispi = std::array::from_fn(|i| measured(&runs[i], SimResult::ispi));
            rows.push(Row { benchmark, depth: DEPTHS[di], ispi });
        }
    }
    rows
}

fn depth_idx(depth: usize) -> usize {
    match depth {
        1 => 0,
        2 => 1,
        4 => 2,
        d => unreachable!("unexpected depth {d}"),
    }
}

/// Renders the report.
pub fn run(opts: &RunOptions) -> ExperimentReport {
    let rows = data(opts);
    let mut table = Table::new([
        "bench",
        "depth",
        "Oracle (paper)",
        "Opt (paper)",
        "Res (paper)",
        "Pess (paper)",
        "Dec (paper)",
    ]);
    // Rows are benchmark-major with one row per depth, in suite order.
    for (i, r) in rows.iter().enumerate() {
        let paper = TABLE5[i / DEPTHS.len()][depth_idx(r.depth)];
        let mut cells = vec![r.benchmark.name.to_owned(), r.depth.to_string()];
        for (m, &published) in r.ispi.iter().zip(paper.iter()) {
            cells.push(vs_cell(m, published));
        }
        table.row(cells);
    }
    // Average row per depth.
    for depth in DEPTHS {
        let paper_rows: [[f64; 5]; 3] = [
            [1.80, 1.89, 1.81, 2.14, 2.12],
            [1.52, 1.63, 1.52, 1.86, 1.84],
            [1.41, 1.55, 1.41, 1.75, 1.75],
        ];
        let mut cells = vec!["Average".to_owned(), depth.to_string()];
        for (p, &published) in paper_rows[depth_idx(depth)].iter().enumerate() {
            let m = mean_ok(rows.iter().filter(|r| r.depth == depth).map(|r| &r.ispi[p]));
            cells.push(vs(m, published));
        }
        table.row(cells);
    }
    ExperimentReport {
        id: "table5",
        title: "Effect of speculation depth on ISPI (paper Table 5)".into(),
        table,
        notes: vec!["Expected shape: ISPI falls with depth for every policy (branch_full \
             stalls vanish); Resume ~ Oracle; Optimistic in between; Pessimistic ~ \
             Decode worst at this small penalty."
            .into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_speculation_helps_every_policy_on_average() {
        let rows = data(&RunOptions::smoke().with_instrs(60_000));
        for p in 0..5 {
            let at = |d: usize| mean_ok(rows.iter().filter(|r| r.depth == d).map(|r| &r.ispi[p]));
            assert!(
                at(4) < at(1),
                "policy {p}: depth-4 average {:.3} !< depth-1 average {:.3}",
                at(4),
                at(1)
            );
        }
    }

    #[test]
    fn sweep_covers_39_rows() {
        let rows = data(&RunOptions::smoke());
        assert_eq!(rows.len(), 39);
        let rep = run(&RunOptions::smoke());
        assert_eq!(rep.table.len(), 42); // 39 + 3 averages
    }
}
