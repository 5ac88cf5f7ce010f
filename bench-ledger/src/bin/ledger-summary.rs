//! `ledger-summary`: medians, quartiles and spreads of recorded
//! `bench-ledger` runs, and the check that two sets of runs agree.
//!
//! ```text
//! ledger-summary <set-a.jsonl> [<set-b.jsonl>] [--baseline <out.json>]
//! ```
//!
//! Each input holds the lines `bench-ledger --out` appends. Untraced runs
//! are grouped by workload. For every end-to-end metric the summary
//! prints each set's median, quartiles (as Python's
//! `statistics.quantiles(xs, n=4)` computes them) and spread (quartile
//! distance over the median). It checks every spread against the
//! metric's bound, marking a metric whose spread exceeds it as
//! unresolved on that workload, and, given two sets, that the second
//! median is no worse than the first by more than the bound; it exits 1
//! when a check fails. `--baseline` writes both sets' statistics with
//! the git revision, host cores and compiler version.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use specfetch_bench_ledger::catalog::{END_TO_END, WORKLOADS};
use specfetch_bench_ledger::json::{parse, quote, Value};
use specfetch_bench_ledger::stats::{median, quartiles, within_bound};

/// workload → metric → values, one per run.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<(Set, Vec<f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    let mut seconds = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{path}:{}: no workload", i + 1))?;
        let result = v.get("result").ok_or(format!("{path}:{}: no result", i + 1))?;
        if result.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{path}:{}: a run with wrong output", i + 1));
        }
        seconds.extend(v.get("seconds").and_then(Value::as_f64));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("{path}:{}: no metrics", i + 1))?;
        for (name, m) in metrics {
            let x = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("{path}:{}: {name} has no value", i + 1))?;
            set.entry(workload.to_owned()).or_default().entry(name.clone()).or_default().push(x);
        }
    }
    Ok((set, seconds))
}

struct Summary {
    n: usize,
    median: f64,
    q: [f64; 3],
    spread: f64,
}

fn summarize(xs: &[f64]) -> Option<Summary> {
    let median = median(xs)?;
    let q = quartiles(xs)?;
    Some(Summary { n: xs.len(), median, q, spread: (q[2] - q[0]) / median.abs() })
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn main() -> ExitCode {
    let mut files = Vec::new();
    let mut baseline = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => baseline = args.next(),
            _ if a.starts_with("--") => {
                eprintln!("ledger-summary: unknown argument {a:?}");
                return ExitCode::from(2);
            }
            _ => files.push(a),
        }
    }
    if files.is_empty() || files.len() > 2 {
        eprintln!("usage: ledger-summary <set-a.jsonl> [<set-b.jsonl>] [--baseline <out.json>]");
        return ExitCode::from(2);
    }
    let mut sets = Vec::new();
    let mut seconds = Vec::new();
    for f in &files {
        match load(f) {
            Ok((s, secs)) => {
                sets.push(s);
                seconds.extend(secs);
            }
            Err(e) => {
                eprintln!("ledger-summary: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut ok = true;
    println!(
        "{:<11} {:<13} {:>5} {:>12} {:>12} {:>12} {:>7}  set",
        "workload", "metric", "runs", "median", "q1", "q3", "spread"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        for m in &END_TO_END {
            let per_set: Vec<Option<Summary>> = sets
                .iter()
                .map(|s| s.get(w).and_then(|ms| ms.get(m.name)).and_then(|xs| summarize(xs)))
                .collect();
            for (i, s) in per_set.iter().enumerate() {
                let Some(s) = s else { continue };
                let spread_ok = s.spread <= m.bound;
                ok &= spread_ok;
                println!(
                    "{:<11} {:<13} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>7.4}  set {}{}",
                    w,
                    m.name,
                    s.n,
                    s.median,
                    s.q[0],
                    s.q[2],
                    s.spread,
                    (b'a' + i as u8) as char,
                    if spread_ok { "" } else { "  SPREAD OVER BOUND: unresolved" }
                );
            }
            if let [Some(a), Some(b)] = per_set.as_slice() {
                let agree = within_bound(m.better, a.median, b.median, m.bound);
                ok &= agree;
                println!(
                    "{:<11} {:<13} second median vs first: {:+.2}% (bound {:.0}%){}",
                    w,
                    m.name,
                    100.0 * (b.median / a.median - 1.0),
                    100.0 * m.bound,
                    if agree { "" } else { "  WORSE THAN BOUND" }
                );
            }
        }
    }
    if let Some(path) = baseline {
        let mut out = String::from("{\n");
        let sha = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
        let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_default();
        let secs = median(&seconds).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  \"git_sha\": {},",
            quote(&format!("{sha}{}", if dirty { "-dirty" } else { "" }))
        );
        let _ = writeln!(out, "  \"host_cores\": {cores},");
        let _ = writeln!(out, "  \"rustc\": {},", quote(&rustc));
        let _ = writeln!(out, "  \"run_seconds\": {secs},");
        out.push_str("  \"sets\": [\n");
        for (i, set) in sets.iter().enumerate() {
            out.push_str("    {\n");
            let workloads: Vec<String> = WORKLOADS
                .iter()
                .filter_map(|w| {
                    let ms = set.get(w.name)?;
                    let metrics: Vec<String> = END_TO_END
                        .iter()
                        .filter_map(|m| {
                            let s = summarize(ms.get(m.name)?)?;
                            Some(format!(
                                "        {}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}}}",
                                quote(m.name),
                                s.n,
                                s.median,
                                s.q[0],
                                s.q[2],
                                s.spread
                            ))
                        })
                        .collect();
                    Some(format!("      {}: {{\n{}\n      }}", quote(w.name), metrics.join(",\n")))
                })
                .collect();
            out.push_str(&workloads.join(",\n"));
            out.push_str(if i + 1 < sets.len() { "\n    },\n" } else { "\n    }\n" });
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("ledger-summary: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("ledger-summary: wrote {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
