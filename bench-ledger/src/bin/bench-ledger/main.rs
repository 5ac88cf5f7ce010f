//! `bench-ledger`: measure one workload of `specfetch-repro` and print
//! the result as one JSON line.
//!
//! ```text
//! bench-ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!              [--traced <trace.json>] [--out <runs.jsonl>]
//! ```
//!
//! `--trace 0` (the default) drives the release binary untraced and
//! reports the end-to-end metrics; `--trace 1` replays the same work
//! in-process with spans around every layer call and reports the
//! per-layer metrics. `--traced <file>` implies `--trace 1` and also
//! writes the spans as Chrome trace-event JSON. `--out` appends the
//! result, tagged with workload, seed, seconds and trace mode, to a
//! JSON-lines file. The last line of standard output is always the result object;
//! everything else goes to standard error.
//!
//! Exit codes: 0 every output check passed; 1 a check failed (no metric
//! is reported) or the run broke; 2 usage error, or `specfetch-repro` is
//! missing or older than its sources.

mod os;
mod process;
mod serve;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use specfetch_bench_ledger::catalog::{workload, WORKLOADS};
use specfetch_bench_ledger::json::quote;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut name: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut traced = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--traced" => {
                traced = Some(value()?);
                trace = true;
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let name =
        name.ok_or_else(|| format!("--workload is required (one of {})", names.join(", ")))?;
    let w = workload(&name)
        .ok_or_else(|| format!("unknown workload {name:?} (one of {})", names.join(", ")))?;
    Ok(Args { workload: w.name, seed, seconds, trace, traced, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    // In-process driver runs would otherwise print their timing lines.
    specfetch_experiments::diag::set_quiet(true);
    let env = match process::Env::locate(args.workload) {
        Ok(env) => env,
        Err(process::Unusable(e)) => {
            eprintln!("bench-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let (s, seed) = (args.seconds, args.seed);
    let measured = match (args.workload, args.trace) {
        ("paper-cold", false) => workloads::paper_cold(&env, s),
        ("sweep-wide", false) => workloads::sweep_wide(&env, s),
        ("store-warm", false) => workloads::store_warm(&env, s),
        ("serve-jobs", false) => workloads::serve_jobs(&env, seed, s),
        ("paper-cold", true) => workloads::paper_cold_traced(&env),
        ("sweep-wide", true) => workloads::sweep_wide_traced(&env),
        ("store-warm", true) => workloads::store_warm_traced(&env),
        (_, true) => workloads::serve_jobs_traced(&env, seed, s),
        (w, false) => Err(format!("no runner for {w}")),
    };
    drop(env);
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench-ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match m.values.result_line(&m.outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("bench-ledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    if m.outcome.correct {
        for (name, unit) in m.values.table() {
            eprintln!("{name:<32} {:>14.4} {unit}", m.values.get(name).unwrap_or(f64::NAN));
        }
    }
    if let (Some(path), Some(trace)) = (&args.traced, &m.trace) {
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("bench-ledger: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &args.out {
        let tagged = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {s}, \"trace\": {}, \"result\": {line}}}\n",
            quote(args.workload),
            u8::from(args.trace)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(tagged.as_bytes()));
        if let Err(e) = appended {
            eprintln!("bench-ledger: appending to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if m.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
