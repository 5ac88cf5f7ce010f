//! What the benchmark runs and reports: the workloads, both metric
//! tables (mirrored in `BENCHMARK.json`; a test keeps the two equal),
//! and the one-line JSON result every run prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::quote;
use crate::stats::Better;

/// One workload.
#[derive(Copy, Clone, Debug)]
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-cold",
        why: "the paper's full grid from an empty store on one core: recording, overlays, 80 \
              lockstep batches of 4.4 lanes and 352 store writes; 26% of the 474 points dedup",
    },
    Workload {
        name: "sweep-wide",
        why: "a wide policy sweep on the same engine: 13 batches of 24 lanes, no dedup, sharded \
              to one worker process over the pipe protocol",
    },
    Workload {
        name: "store-warm",
        why: "control: the paper grid replayed from a filled store, so no lane runs; store reads, \
              codec, journal, start-up and Table 2's interpretation only",
    },
    Workload {
        name: "serve-jobs",
        why: "seeded 4-point sweep jobs via --serve at random phases of its 25 ms accept poll; \
              latency is mostly poll waits, and service work moves it only when it crosses a poll",
    },
];

/// One end-to-end metric: what a user of the program sees.
#[derive(Copy, Clone, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every untraced run reports, for every
/// workload. An *operation* is one `specfetch-repro` invocation, or one
/// job from submission to the last byte of its result. CLI times are
/// scaled to nominal host speed ([`crate::calib`]). Every loop runs one
/// operation at a time, so its throughput is the inverse of its mean
/// operation time and is not reported separately.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "op_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.20 },
];

/// One per-layer metric (no bound: these explain the end-to-end ones).
#[derive(Copy, Clone, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer's module name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics every traced run reports, for every workload;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 45] = [
    layer("synth.generate_ms", "ms", Lower),
    layer("synth.interpret_mips", "Minstr/s", Higher),
    layer("trace.record_s", "s", Lower),
    layer("trace.overlay_build_s", "s", Lower),
    layer("trace.record_mb", "MiB", Lower),
    layer("trace.overlay_mb", "MiB", Lower),
    layer("trace.decode_window_s", "s", Lower),
    layer("core.lockstep_s", "s", Lower),
    layer("core.step_s", "s", Lower),
    layer("core.lane_mips", "Minstr/s", Higher),
    layer("core.lanes_per_batch", "count", Higher),
    layer("core.batches", "count", Lower),
    layer("core.batch_max_s", "s", Lower),
    layer("experiments.dedup_frac", "ratio", Higher),
    layer("experiments.preflight_ms", "ms", Lower),
    layer("experiments.render_s", "s", Lower),
    layer("experiments.warm_ms.table2", "ms", Lower),
    layer("experiments.warm_ms.table3", "ms", Lower),
    layer("experiments.warm_ms.table4", "ms", Lower),
    layer("experiments.warm_ms.figure1", "ms", Lower),
    layer("experiments.warm_ms.figure2", "ms", Lower),
    layer("experiments.warm_ms.table5", "ms", Lower),
    layer("experiments.warm_ms.table6", "ms", Lower),
    layer("experiments.warm_ms.figure3", "ms", Lower),
    layer("experiments.warm_ms.figure4", "ms", Lower),
    layer("experiments.warm_ms.table7", "ms", Lower),
    layer("store.put_ms", "ms", Lower),
    layer("store.get_ms", "ms", Lower),
    layer("store.hit_ratio", "ratio", Higher),
    layer("codec.encode_us", "us", Lower),
    layer("codec.decode_us", "us", Lower),
    layer("journal.wal_records", "count", Lower),
    layer("repro.startup_ms", "ms", Lower),
    layer("worker.spawn_ms", "ms", Lower),
    layer("worker.overhead_s", "s", Lower),
    layer("http.submit_ms", "ms", Lower),
    layer("http.result_ms", "ms", Lower),
    layer("service.first_row_ms", "ms", Lower),
    layer("service.close_lag_ms", "ms", Lower),
    layer("service.compute_ms", "ms", Lower),
    layer("service.overhead_ms", "ms", Lower),
    layer("service.job_tail_ms", "ms", Lower),
    layer("serve.ready_ms", "ms", Lower),
    layer("ledger.coverage", "ratio", Higher),
    layer("ledger.overhead_frac", "ratio", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether `name` is a valid metric or workload name: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter().all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(c))
}

/// One metric table's values, checked against its names and units.
#[derive(Clone, Debug)]
pub struct Values {
    table: Vec<(&'static str, &'static str)>,
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// The end-to-end table, empty.
    pub fn end_to_end() -> Self {
        let table = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        Values { table, values: BTreeMap::new() }
    }

    /// The per-layer table with every metric at 0: a layer the workload
    /// does not exercise reads 0.
    pub fn per_layer() -> Self {
        let table: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        let values = table.iter().map(|&(name, _)| (name, 0.0)).collect();
        Values { table, values }
    }

    /// `(name, unit)` of every metric, in table order.
    pub fn table(&self) -> &[(&'static str, &'static str)] {
        &self.table
    }

    /// Sets `name`, which must be in the table.
    ///
    /// # Errors
    ///
    /// Unknown names and non-finite values.
    pub fn set(&mut self, name: &str, v: f64) -> Result<(), String> {
        let &(key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("metric {name:?} is not in the table"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        self.values.insert(key, v);
        Ok(())
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`, metrics in table
    /// order. Wrong output reports no metrics at all.
    ///
    /// # Errors
    ///
    /// A metric without a value (only when the output is correct).
    pub fn result_line(&self, outcome: &Outcome) -> Result<String, String> {
        let mut metrics = Vec::new();
        if outcome.correct {
            for &(name, unit) in &self.table {
                let v =
                    self.get(name).ok_or_else(|| format!("metric {name} was never measured"))?;
                metrics.push(format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                ));
            }
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            metrics.join(", ")
        );
        Ok(line)
    }
}

/// What one run amounted to.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that failed (error exit, refused request).
    pub failed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
    }

    #[test]
    fn setup_has_the_largest_bound_and_the_rest_stay_within_ten_percent() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").map(|m| m.bound);
        let max = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup, Some(max));
        assert!(max <= 0.20);
        let rest = END_TO_END.iter().filter(|m| m.name != "setup_s");
        assert!(rest.map(|m| m.bound).all(|b| b > 0.0 && b <= 0.10));
    }

    #[test]
    fn result_line_reports_all_or_nothing() {
        let mut v = Values::end_to_end();
        let names: Vec<&str> = v.table().iter().map(|&(n, _)| n).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(v.set(name, 1.5 + i as f64).is_ok());
        }
        assert!(v.set("nope", 1.0).is_err());
        assert!(v.set("setup_s", f64::NAN).is_err());
        let ok = Outcome { correct: true, attempted: 3, failed: 0 };
        let line = v.result_line(&ok).unwrap_or_default();
        let parsed = crate::json::parse(&line).unwrap_or(crate::json::Value::Null);
        let metrics = parsed.get("metrics").and_then(crate::json::Value::as_obj);
        assert_eq!(metrics.map(BTreeMap::len), Some(END_TO_END.len()));
        assert_eq!(
            parsed.get("metrics").and_then(|m| m.get("op_p50_ms")?.get("value")?.as_f64()),
            Some(1.5)
        );
        let bad = Outcome { correct: false, ..ok };
        let line = Values::end_to_end().result_line(&bad).unwrap_or_default();
        assert!(line.ends_with("\"metrics\": {}}"), "{line}");
        assert!(Values::end_to_end().result_line(&ok).is_err(), "unmeasured metrics are an error");
        assert_eq!(Values::per_layer().get("core.batches"), Some(0.0), "layers start at 0");
    }
}
