//! `--sweep` spec parsing: a user-defined scenario from the command line.
//!
//! A spec is whitespace-separated `axis=value[,value...]` terms, e.g.
//!
//! ```text
//! policy=Res,Pess cache=8K,32K penalty=5,20 depth=1,2,4 metric=ispi
//! ```
//!
//! The configuration axes cross-multiply (in the order written, leftmost
//! outermost) into one [`ConfigPoint`] per combination; `bench` restricts
//! the row axis and `metric` picks the projection. Every axis name and
//! value is validated up front: a typo is rejected with a
//! "did you mean" hint before anything simulates, mirroring the
//! unknown-experiment-id treatment (`specfetch-repro` exits 2).
//!
//! A spec with no configuration axis (`bench=li`) is the single
//! baseline column `base`. [`parse_explain`] reads the same grammar
//! restricted to one point, for `specfetch-repro --explain`.

use std::path::PathBuf;

use specfetch_core::{FetchPolicy, SimConfig};
use specfetch_synth::suite::Benchmark;

use crate::scenario::{ConfigPoint, Metric, Scenario};

/// Why a sweep spec was rejected; `Display` carries the full
/// user-facing message including any "did you mean" hint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepError {
    /// The user-facing rejection message.
    pub message: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SweepError {}

/// The configuration axes a sweep can vary, with the value syntax each
/// accepts.
pub const AXES: [(&str, &str); 10] = [
    ("policy", "Oracle,Opt,Res,Pess,Dec,Dyn"),
    ("cache", "cache size, e.g. 8K,32K"),
    ("line", "line bytes, e.g. 16,32,64"),
    ("assoc", "associativity, e.g. 1,2,4"),
    ("penalty", "miss penalty cycles, e.g. 5,20"),
    ("depth", "speculation depth, e.g. 1,2,4"),
    ("width", "issue width, e.g. 2,4,8"),
    ("bus", "bus transaction slots, e.g. 1,2,4"),
    ("prefetch", "off,nl,target,both,stream"),
    ("bench", "benchmark names, e.g. gcc,li (row axis)"),
];

const PREFETCH_MODES: [&str; 5] = ["off", "nl", "target", "both", "stream"];

fn policy_names() -> Vec<String> {
    let mut names = Vec::new();
    for p in FetchPolicy::ALL.into_iter().chain([FetchPolicy::Dynamic]) {
        for n in [p.short_name().to_owned(), p.to_string()] {
            if !names.contains(&n) {
                names.push(n);
            }
        }
    }
    names
}

/// Levenshtein edit distance, for "did you mean" hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) =
        (a.to_lowercase().chars().collect(), b.to_lowercase().chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The closest candidate within an edit distance budget, as a
/// ` — did you mean "x"?` suffix (empty when nothing is close). Shared
/// with [`crate::driver`]'s experiment-id validation so HTTP 400s hint
/// the same way sweep errors do.
pub(crate) fn did_you_mean<'a>(
    given: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> String {
    candidates
        .into_iter()
        .map(|c| (edit_distance(given, c), c))
        .filter(|&(d, c)| d <= (c.len() / 2).max(1))
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| format!(" — did you mean {c:?}?"))
        .unwrap_or_default()
}

fn err(message: String) -> SweepError {
    SweepError { message }
}

fn parse_int<T: std::str::FromStr>(axis: &str, v: &str) -> Result<T, SweepError> {
    v.parse().map_err(|_| err(format!("sweep axis {axis}: {v:?} is not a number")))
}

/// Cache sizes accept `8K`/`32K` suffixes or raw byte counts.
fn parse_cache_size(v: &str) -> Result<u64, SweepError> {
    let (digits, mult) = match v.strip_suffix(['K', 'k']) {
        Some(d) => (d, 1024),
        None => (v, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| err(format!("sweep axis cache: {v:?} is not a size (try 8K or 32K)")))?;
    Ok(n * mult)
}

/// A single parsed axis value, pre-validated.
#[derive(Clone)]
enum AxisValue {
    Policy(FetchPolicy),
    Num(u64),
    Prefetch(&'static str),
}

fn apply(cfg: &mut SimConfig, name: &str, v: &AxisValue) {
    match (name, v) {
        ("policy", AxisValue::Policy(p)) => cfg.policy = *p,
        ("cache", AxisValue::Num(n)) => cfg.icache.size_bytes = *n,
        ("line", AxisValue::Num(n)) => cfg.icache.line_bytes = *n,
        ("assoc", AxisValue::Num(n)) => cfg.icache.assoc = *n as usize,
        ("penalty", AxisValue::Num(n)) => cfg.miss_penalty = *n,
        ("depth", AxisValue::Num(n)) => cfg.max_unresolved = *n as usize,
        ("width", AxisValue::Num(n)) => cfg.issue_width = *n as u32,
        ("bus", AxisValue::Num(n)) => cfg.bus_slots = *n as usize,
        ("prefetch", AxisValue::Prefetch(mode)) => {
            cfg.prefetch = matches!(*mode, "nl" | "both");
            cfg.target_prefetch = matches!(*mode, "target" | "both");
            cfg.stream_buffer = *mode == "stream";
        }
        _ => unreachable!("axis {name} paired with a foreign value"),
    }
}

/// Parses a sweep spec into a runnable [`Scenario`].
///
/// # Errors
///
/// Rejects unknown axis names, unknown or malformed values, duplicate
/// axes, invalid resulting configurations, and empty specs — each with a
/// message suitable for direct CLI output (including a "did you mean"
/// hint when a known name is close).
pub fn parse_sweep(spec: &str) -> Result<Scenario, SweepError> {
    let mut benches: Option<Vec<&'static Benchmark>> = None;
    let mut metric: Option<Metric> = None;
    // (axis name, parsed values with labels), in spec order.
    let mut axes: Vec<(&'static str, Vec<(String, AxisValue)>)> = Vec::new();

    for term in spec.split_whitespace() {
        let Some((axis, values)) = term.split_once('=') else {
            return Err(err(format!(
                "sweep term {term:?} is not axis=value[,value...] (axes: {})",
                AXES.map(|(n, _)| n).join(", ")
            )));
        };
        if values.is_empty() {
            return Err(err(format!("sweep axis {axis}: empty value list")));
        }
        match axis {
            "metric" => {
                if metric.is_some() {
                    return Err(err("sweep axis metric given twice".into()));
                }
                let m = Metric::parse(values).ok_or_else(|| {
                    let names = Metric::ALL.map(|(n, _)| n);
                    err(format!(
                        "sweep metric {values:?} is unknown (one of: {}){}",
                        names.join(", "),
                        did_you_mean(values, names)
                    ))
                })?;
                metric = Some(m);
            }
            "bench" => {
                if benches.is_some() {
                    return Err(err("sweep axis bench given twice".into()));
                }
                let mut set = Vec::new();
                for name in values.split(',') {
                    let b = Benchmark::by_name(name).ok_or_else(|| {
                        let names = Benchmark::all().iter().map(|b| b.name);
                        err(format!("sweep bench {name:?} is unknown{}", did_you_mean(name, names)))
                    })?;
                    set.push(b);
                }
                benches = Some(set);
            }
            name => {
                let Some(&(canon, _)) = AXES.iter().find(|(n, _)| *n == name) else {
                    let names = AXES.map(|(n, _)| n);
                    return Err(err(format!(
                        "unknown sweep axis {name:?} (axes: {}, metric){}",
                        names.join(", "),
                        did_you_mean(name, names.into_iter().chain(["metric"]))
                    )));
                };
                if axes.iter().any(|(n, _)| *n == canon) {
                    return Err(err(format!("sweep axis {canon} given twice")));
                }
                let mut parsed = Vec::new();
                for v in values.split(',') {
                    let value = match canon {
                        "policy" => {
                            let p = FetchPolicy::parse(v).ok_or_else(|| {
                                let names = policy_names();
                                err(format!(
                                    "sweep policy {v:?} is unknown (one of: {}){}",
                                    names.join(", "),
                                    did_you_mean(v, names.iter().map(String::as_str))
                                ))
                            })?;
                            (p.short_name().to_owned(), AxisValue::Policy(p))
                        }
                        "cache" => (v.to_owned(), AxisValue::Num(parse_cache_size(v)?)),
                        "prefetch" => {
                            let mode =
                                PREFETCH_MODES.iter().find(|m| **m == v).ok_or_else(|| {
                                    err(format!(
                                        "sweep prefetch {v:?} is unknown (one of: {}){}",
                                        PREFETCH_MODES.join(", "),
                                        did_you_mean(v, PREFETCH_MODES)
                                    ))
                                })?;
                            ((*mode).to_owned(), AxisValue::Prefetch(mode))
                        }
                        _ => (v.to_owned(), AxisValue::Num(parse_int(canon, v)?)),
                    };
                    parsed.push(value);
                }
                axes.push((canon, parsed));
            }
        }
    }

    if axes.is_empty() && benches.is_none() && metric.is_none() {
        return Err(err(format!(
            "empty sweep: give at least one axis ({}, metric)",
            AXES.map(|(n, _)| n).join(", ")
        )));
    }

    // Cross-multiply, leftmost axis outermost. With no configuration
    // axis the grid is the one baseline column.
    let base = if axes.is_empty() { "base" } else { "" };
    let mut points: Vec<ConfigPoint> =
        vec![ConfigPoint::new(base.to_owned(), SimConfig::paper_baseline())];
    for (name, values) in &axes {
        let mut next = Vec::with_capacity(points.len() * values.len());
        for p in &points {
            for (label, value) in values {
                let mut cfg = p.cfg;
                apply(&mut cfg, name, value);
                let full =
                    if p.label.is_empty() { label.clone() } else { format!("{}/{label}", p.label) };
                next.push(ConfigPoint::new(full, cfg));
            }
        }
        points = next;
    }
    for p in &points {
        p.cfg
            .validate()
            .map_err(|e| err(format!("sweep point {}: invalid configuration: {e}", p.label)))?;
    }

    let mut scenario = Scenario::suite("sweep", format!("Custom sweep: {}", spec.trim()), points)
        .with_metric(metric.unwrap_or_default())
        .with_note(
            "User-defined grid evaluated by the shared scenario pipeline (trace cache, \
             result memo, per-point fault isolation).",
        );
    if let Some(benches) = benches {
        scenario = scenario.with_benches(benches);
    }
    Ok(scenario)
}

/// Where an `--explain` point takes its correct path from.
#[derive(Clone, PartialEq, Debug)]
pub enum PathInput {
    /// A calibrated benchmark, replayed exactly like a sweep cell.
    Bench(&'static Benchmark),
    /// A `.sft` (text) or `.sftb` (binary) trace file.
    Trace(PathBuf),
}

/// A parsed `--explain` spec: one configuration of one path.
#[derive(Clone, PartialEq, Debug)]
pub struct ExplainSpec {
    /// The path to simulate.
    pub input: PathInput,
    /// The configuration, with miss classification switched on.
    pub cfg: SimConfig,
}

/// Parses an `--explain` spec: the sweep grammar restricted to one
/// point, plus `trace=<file>` as a path source.
///
/// The path comes from exactly one of `bench=<name>` or
/// `trace=<file.sft|.sftb>`; each configuration axis takes at most one
/// value; `metric=` is rejected because the explanation prints every
/// metric. Classification is always on (it leaves ISPI unchanged).
///
/// # Errors
///
/// Everything [`parse_sweep`] rejects, plus the restrictions above.
pub fn parse_explain(spec: &str) -> Result<ExplainSpec, SweepError> {
    let mut trace: Option<PathBuf> = None;
    let mut terms = Vec::new();
    for term in spec.split_whitespace() {
        match term.split_once('=') {
            Some(("trace", path)) => {
                if trace.is_some() {
                    return Err(err("explain term trace given twice".into()));
                }
                if path.is_empty() {
                    return Err(err("explain term trace: empty path".into()));
                }
                trace = Some(PathBuf::from(path));
            }
            Some(("metric", _)) => {
                return Err(err(
                    "explain prints every metric; metric= only applies to --sweep".into()
                ))
            }
            _ => terms.push(term),
        }
    }
    let (mut cfg, benches) = if terms.is_empty() {
        (SimConfig::paper_baseline(), Vec::new())
    } else {
        let scenario = parse_sweep(&terms.join(" "))?;
        (scenario.points[0].cfg, scenario.benches)
    };
    if let Some(term) = terms.iter().find(|t| t.contains(',')) {
        return Err(err(format!("explain runs one point, but {term:?} gives several values")));
    }
    let input = match (trace, terms.iter().any(|t| t.starts_with("bench="))) {
        (Some(path), false) => PathInput::Trace(path),
        (None, true) => PathInput::Bench(benches[0]),
        _ => {
            return Err(err(
                "explain needs exactly one of bench=<name> or trace=<file.sft|.sftb>".into()
            ))
        }
    };
    cfg.classify = true;
    Ok(ExplainSpec { input, cfg })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_issue_example_parses() {
        let s = parse_sweep("policy=Res,Pess cache=8K,32K penalty=5,20 depth=1,2,4 metric=ispi")
            .unwrap();
        assert_eq!(s.points.len(), 2 * 2 * 2 * 3);
        assert_eq!(s.benches.len(), 13);
        assert_eq!(s.metric, Metric::Ispi);
        assert_eq!(s.points[0].label, "Res/8K/5/1");
        let last = s.points.last().unwrap();
        assert_eq!(last.label, "Pess/32K/20/4");
        assert_eq!(last.cfg.policy, FetchPolicy::Pessimistic);
        assert_eq!(last.cfg.icache.size_bytes, 32 * 1024);
        assert_eq!(last.cfg.miss_penalty, 20);
        assert_eq!(last.cfg.max_unresolved, 4);
    }

    #[test]
    fn unknown_axis_gets_a_hint() {
        let e = parse_sweep("polcy=Res").unwrap_err();
        assert!(e.message.contains("unknown sweep axis"), "{e}");
        assert!(e.message.contains("did you mean \"policy\"?"), "{e}");
    }

    #[test]
    fn unknown_policy_value_gets_a_hint() {
        let e = parse_sweep("policy=Rez").unwrap_err();
        assert!(e.message.contains("did you mean \"Res\"?"), "{e}");
    }

    #[test]
    fn unknown_bench_and_metric_get_hints() {
        let e = parse_sweep("policy=Res bench=gcc,lli").unwrap_err();
        assert!(e.message.contains("did you mean \"li\"?"), "{e}");
        let e = parse_sweep("policy=Res metric=ipsi").unwrap_err();
        assert!(e.message.contains("did you mean \"ispi\"?"), "{e}");
    }

    #[test]
    fn malformed_terms_and_duplicates_are_rejected() {
        assert!(parse_sweep("policy").unwrap_err().message.contains("axis=value"));
        assert!(parse_sweep("").unwrap_err().message.contains("empty sweep"));
        assert!(parse_sweep("depth=1 depth=2").unwrap_err().message.contains("given twice"));
        assert!(parse_sweep("depth=").unwrap_err().message.contains("empty value list"));
        assert!(parse_sweep("depth=x").unwrap_err().message.contains("not a number"));
    }

    #[test]
    fn invalid_configurations_are_rejected_at_parse_time() {
        let e = parse_sweep("width=0").unwrap_err();
        assert!(e.message.contains("invalid configuration"), "{e}");
        // next-line prefetch and the stream buffer are mutually exclusive
        // owners of the prefetch bus purpose, but that needs two axes —
        // a single prefetch axis can't express it, so cache=weird sizes:
        let e = parse_sweep("cache=3K").unwrap_err();
        assert!(e.message.contains("invalid configuration"), "{e}");
    }

    #[test]
    fn dynamic_policy_and_prefetch_modes_parse() {
        let s = parse_sweep("policy=Dyn prefetch=off,nl,target,both,stream bench=li").unwrap();
        assert_eq!(s.points.len(), 5);
        assert_eq!(s.points[0].cfg.policy, FetchPolicy::Dynamic);
        assert!(s.points[1].cfg.prefetch && !s.points[1].cfg.target_prefetch);
        assert!(s.points[3].cfg.prefetch && s.points[3].cfg.target_prefetch);
        assert!(s.points[4].cfg.stream_buffer);
        assert_eq!(s.benches.len(), 1);
    }

    #[test]
    fn a_spec_without_configuration_axes_is_the_baseline_column() {
        for spec in ["bench=li", "metric=miss", "bench=li,gcc metric=ipc"] {
            let s = parse_sweep(spec).unwrap();
            assert_eq!(s.points.len(), 1, "{spec}");
            assert_eq!(s.points[0].label, "base", "{spec}");
            assert_eq!(s.points[0].cfg, SimConfig::paper_baseline(), "{spec}");
        }
        assert_eq!(parse_sweep("bench=li").unwrap().benches.len(), 1);
        assert!(parse_sweep("  ").unwrap_err().message.contains("empty sweep"));
    }

    #[test]
    fn explain_takes_one_point_from_one_source() {
        let e = parse_explain("bench=li policy=Pess cache=32K prefetch=nl").unwrap();
        assert_eq!(e.input, PathInput::Bench(Benchmark::by_name("li").unwrap()));
        assert_eq!(e.cfg.policy, FetchPolicy::Pessimistic);
        assert_eq!(e.cfg.icache.size_bytes, 32 * 1024);
        assert!(e.cfg.prefetch && e.cfg.classify);

        let e = parse_explain("trace=run.sftb depth=2").unwrap();
        assert_eq!(e.input, PathInput::Trace(PathBuf::from("run.sftb")));
        assert_eq!(e.cfg.max_unresolved, 2);
        let mut base = SimConfig::paper_baseline();
        base.classify = true;
        assert_eq!(parse_explain("bench=li").unwrap().cfg, base);
        assert_eq!(parse_explain("trace=t.sft").unwrap().cfg, base);
    }

    #[test]
    fn explain_rejects_grids_metrics_and_ambiguous_sources() {
        for (spec, needle) in [
            ("bench=li policy=Res,Pess", "several values"),
            ("bench=li,gcc", "several values"),
            ("bench=li metric=ispi", "metric="),
            ("policy=Res", "exactly one of"),
            ("", "exactly one of"),
            ("bench=li trace=t.sft", "exactly one of"),
            ("trace=a.sft trace=b.sft", "given twice"),
            ("trace=", "empty path"),
            ("bench=li polcy=Res", "did you mean"),
        ] {
            let e = parse_explain(spec).unwrap_err();
            assert!(e.message.contains(needle), "{spec:?}: {e}");
        }
    }

    #[test]
    fn cache_sizes_accept_suffix_and_raw_bytes() {
        assert_eq!(parse_cache_size("8K").unwrap(), 8 * 1024);
        assert_eq!(parse_cache_size("32k").unwrap(), 32 * 1024);
        assert_eq!(parse_cache_size("4096").unwrap(), 4096);
        assert!(parse_cache_size("8KB").is_err());
    }

    #[test]
    fn edit_distance_is_sane() {
        assert_eq!(edit_distance("policy", "policy"), 0);
        assert_eq!(edit_distance("polcy", "policy"), 1);
        assert_eq!(edit_distance("Rez", "Res"), 1);
        assert!(did_you_mean("zzzzzz", ["policy", "cache"]).is_empty());
    }
}
