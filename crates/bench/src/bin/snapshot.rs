//! `bench-snapshot`: time the default replay path and write a
//! machine-readable snapshot to extend the perf trajectory.
//!
//! ```text
//! bench-snapshot [--out BENCH_4.json] [--instrs 500000] [--all-instrs 2000000]
//!                [--skip-all] [--quick] [--baseline BENCH_3.json] [--tolerance 2.0]
//!                [--warm-min-speedup 5]
//! ```
//!
//! Each measurement times the default path at its window —
//! config-lockstep over the pre-decoded overlay at or above
//! `RunOptions::OVERLAY_MIN_INSTRS`, per-point replay of the shared
//! recording below it, with the result memo on both sides — and records
//! it as `overlay_wall_s`. Snapshots up to `BENCH_4.json` also carry
//! `shared_wall_s` and `speedup` columns: a comparison against the
//! shared-recording replay without the memo, a mode that no longer
//! exists, and their `overlay_wall_s` at windows below the cutoff timed
//! the overlay rather than the default path.
//!
//! - `table4`: one experiment, 500k instructions — the standing
//!   wall-clock probe;
//! - `all`: the full `--experiment all` sweep at the reproduction
//!   budget (skippable with `--skip-all` when iterating).
//!
//! `--quick` shrinks the probes for CI smoke runs (table4 and `all`
//! at 60k instructions, the full-budget `all` skipped) — it checks the
//! harness, not the absolute speed. Full runs *also* record the quick
//! probes, so a committed snapshot always has a matching
//! `(experiment, instrs)` entry for the CI guard's quick-mode
//! measurements.
//!
//! `--baseline <snapshot.json>` compares the new `overlay_wall_s` times
//! against a previous snapshot and exits nonzero when any measurement
//! with a matching `(experiment, instrs)` entry regressed by more than
//! `--tolerance` percent (default 2) — the guard that keeps robustness
//! plumbing off the hot path. Only meaningful on the machine that
//! recorded the baseline.
//!
//! Each measurement pre-records its window's shared recordings (the §5c
//! layer) before timing, so the timed region covers overlay building,
//! replay and the memo, not the recording itself.
//!
//! Schema 3 adds the persistent result store (§5i): each measurement
//! also spawns the `specfetch-repro` binary twice against a scratch
//! `--result-dir` — a cold child that computes and persists every grid
//! point, then a warm child that replays the finished rows straight
//! from disk — and records the walls as `store_cold_wall_s` /
//! `warm_wall_s`. `--warm-min-speedup X` turns the pair into a CI
//! guard: exit 1 unless warm is at least `X`× faster than cold.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use specfetch_experiments::{run_experiment, RunOptions, EXPERIMENT_IDS};

struct Measurement {
    name: &'static str,
    instrs: u64,
    overlay_s: f64,
    /// Cross-process result-store probe: (cold wall, warm wall), when
    /// the sibling `specfetch-repro` binary was available to spawn.
    store: Option<(f64, f64)>,
}

impl Measurement {
    fn warm_speedup(&self) -> Option<f64> {
        self.store.map(|(cold, warm)| cold / warm)
    }
}

/// The `specfetch-repro` binary next to this one in the target dir, if
/// it has been built.
fn repro_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bin = exe.parent()?.join(format!("specfetch-repro{}", std::env::consts::EXE_SUFFIX));
    bin.exists().then_some(bin)
}

/// Times one `specfetch-repro` child against `dir` and returns its
/// wall clock plus captured stdout.
fn spawn_repro(bin: &Path, experiment: &str, instrs: u64, dir: &Path) -> (f64, Vec<u8>) {
    let t = Instant::now();
    let out = std::process::Command::new(bin)
        .args(["--experiment", experiment, "--instrs", &instrs.to_string()])
        .args(["--result-dir", dir.to_str().expect("utf-8 scratch path")])
        .output()
        .expect("spawning specfetch-repro");
    let wall = t.elapsed().as_secs_f64();
    assert!(out.status.success(), "specfetch-repro --experiment {experiment} failed: {out:?}");
    (wall, out.stdout)
}

/// Cold-vs-warm wall clock through the on-disk result store, measured
/// across processes: the cold child starts from an empty store and
/// persists every grid point; the warm child replays them from disk
/// without touching the simulation engine. `None` (with a warning)
/// when `specfetch-repro` is not built.
fn store_probe(experiment: &'static str, instrs: u64) -> Option<(f64, f64)> {
    let Some(bin) = repro_bin() else {
        eprintln!(
            "warning: specfetch-repro is not built next to bench-snapshot; \
             skipping the result-store probe (cargo build --release first)"
        );
        return None;
    };
    let dir = std::env::temp_dir()
        .join(format!("specfetch-store-probe-{}-{experiment}-{instrs}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clearing stale probe dir");
    }
    let (cold_s, cold_out) = spawn_repro(&bin, experiment, instrs, &dir);
    let (warm_s, warm_out) = spawn_repro(&bin, experiment, instrs, &dir);
    assert_eq!(cold_out, warm_out, "warm replay must render the cold run byte for byte");
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "[{experiment} store: cold {cold_s:.2}s, warm {warm_s:.2}s, {:.1}x]",
        cold_s / warm_s
    );
    Some((cold_s, warm_s))
}

fn run_ids(ids: &[&str], opts: &RunOptions) -> f64 {
    let t = Instant::now();
    for id in ids {
        let report = run_experiment(id, opts).expect("known experiment id");
        std::hint::black_box(report);
    }
    t.elapsed().as_secs_f64()
}

/// Times `ids` on the default path. Callers use distinct instruction
/// windows per measurement so each starts with cold overlay and result
/// caches; the recordings are warmed up front so the timing covers
/// replay, not the shared recording layer.
fn measure(name: &'static str, ids: &[&str], instrs: u64) -> Measurement {
    for b in specfetch_synth::suite::Benchmark::all() {
        std::hint::black_box(specfetch_experiments::trace_cache::shared_trace(b, instrs));
    }
    let overlay_s = run_ids(ids, &RunOptions::new().with_instrs(instrs));
    let store = store_probe(name, instrs);
    eprintln!("[{name}: {overlay_s:.2}s]");
    Measurement { name, instrs, overlay_s, store }
}

/// A prior snapshot's measurement, as read back from its JSON.
struct BaselineEntry {
    name: String,
    instrs: u64,
    overlay_s: f64,
}

/// Pulls `"key": value` off a single line of snapshot JSON. The parser
/// only has to read the one-measurement-per-line format `main` writes.
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = line[line.find(&pat)? + pat.len()..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                name: json_field(line, "experiment")?.to_owned(),
                instrs: json_field(line, "instrs")?.parse().ok()?,
                overlay_s: json_field(line, "overlay_wall_s")?.parse().ok()?,
            })
        })
        .collect()
}

/// Compares fast-path wall times against `baseline`, returning the
/// worst regression in percent over the matching measurements (negative
/// means we got faster). `None` when nothing matched.
fn guard_against(baseline: &[BaselineEntry], measurements: &[Measurement]) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for m in measurements {
        match baseline.iter().find(|b| b.name == m.name && b.instrs == m.instrs) {
            Some(b) => {
                let pct = (m.overlay_s / b.overlay_s - 1.0) * 100.0;
                eprintln!(
                    "[guard {}: overlay {:.3}s vs baseline {:.3}s ({pct:+.1}%)]",
                    m.name, m.overlay_s, b.overlay_s
                );
                worst = Some(worst.map_or(pct, |w: f64| w.max(pct)));
            }
            None => {
                eprintln!("[guard {}: no baseline entry at {} instrs, skipped]", m.name, m.instrs)
            }
        }
    }
    worst
}

fn git_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(sha) = git(&["rev-parse", "HEAD"]) else { return "unknown".to_owned() };
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    format!("{}{}", sha.trim(), if dirty { "-dirty" } else { "" })
}

/// The `--quick` probe size — what the CI guard measures.
const QUICK_INSTRS: u64 = 60_000;

fn main() {
    let mut out = "BENCH_4.json".to_owned();
    let mut table4_instrs = 500_000u64;
    let mut all_instrs = 2_000_000u64;
    let mut skip_all = false;
    let mut baseline: Option<String> = None;
    let mut tolerance = 2.0f64;
    let mut warm_min: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = it.next().expect("--out needs a value"),
            "--baseline" => baseline = Some(it.next().expect("--baseline needs a value")),
            "--tolerance" => {
                tolerance = it.next().and_then(|v| v.parse().ok()).expect("bad --tolerance")
            }
            "--warm-min-speedup" => {
                warm_min =
                    Some(it.next().and_then(|v| v.parse().ok()).expect("bad --warm-min-speedup"))
            }
            "--instrs" => {
                table4_instrs = it.next().and_then(|v| v.parse().ok()).expect("bad --instrs")
            }
            "--all-instrs" => {
                all_instrs = it.next().and_then(|v| v.parse().ok()).expect("bad --all-instrs")
            }
            "--skip-all" => skip_all = true,
            "--quick" => {
                table4_instrs = QUICK_INSTRS;
                skip_all = true;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let sha = git_sha();
    if sha.ends_with("-dirty") || sha == "unknown" {
        // A trajectory point must pin an exact revision: BENCH_2.json's
        // `-dirty` sha cannot be reproduced by any checkout.
        eprintln!(
            "warning: recording from a {} tree — commit first so the snapshot's \
             git_sha names a revision that can be checked out and re-measured",
            if sha == "unknown" { "non-git" } else { "dirty" }
        );
    }

    let mut measurements = Vec::new();
    // Full runs carry the quick probes too, so the CI guard's quick-mode
    // measurements always find a matching baseline entry.
    if table4_instrs != QUICK_INSTRS {
        measurements.push(measure("table4", &["table4"], QUICK_INSTRS));
    }
    measurements.push(measure("table4", &["table4"], table4_instrs));
    // The all-experiments sweep is probed at the quick window in every
    // mode — it is what the warm-store CI guard measures — and at the
    // full reproduction budget unless skipped.
    measurements.push(measure("all", &EXPERIMENT_IDS, QUICK_INSTRS));
    if !skip_all {
        measurements.push(measure("all", &EXPERIMENT_IDS, all_instrs));
    }

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The experiment runner saturates available parallelism when
    // `opts.parallel` is set (the default used above).
    let threads = host_cores;
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"specfetch-bench-snapshot/3\",");
    let _ = writeln!(json, "  \"git_sha\": \"{sha}\",");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"measurements\": [");
    for (i, m) in measurements.iter().enumerate() {
        let comma = if i + 1 < measurements.len() { "," } else { "" };
        let mut store_fields = String::new();
        if let Some((cold, warm)) = m.store {
            let _ = write!(
                store_fields,
                ", \"store_cold_wall_s\": {cold:.3}, \"warm_wall_s\": {warm:.3}, \
                 \"warm_speedup\": {:.2}",
                cold / warm
            );
        }
        let _ = writeln!(
            json,
            "    {{\"experiment\": \"{}\", \"instrs\": {}, \
             \"overlay_wall_s\": {:.3}{store_fields}}}{comma}",
            m.name, m.instrs, m.overlay_s
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("writable output path");
    println!("{json}");
    eprintln!("[wrote {out}]");

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path).expect("readable --baseline snapshot");
        match guard_against(&parse_baseline(&text), &measurements) {
            Some(worst) if worst > tolerance => {
                eprintln!(
                    "error: fast path regressed {worst:+.1}% vs {path} \
                     (tolerance {tolerance}%)"
                );
                std::process::exit(1);
            }
            Some(worst) => eprintln!("[guard ok: worst delta {worst:+.1}% <= {tolerance}%]"),
            None => eprintln!("[guard: nothing comparable in {path}]"),
        }
    }

    if let Some(min) = warm_min {
        // The guard reads the all-experiments rows only: single-table
        // probes are dominated by process startup, not replayed work.
        let probed: Vec<&Measurement> =
            measurements.iter().filter(|m| m.name == "all" && m.store.is_some()).collect();
        if probed.is_empty() {
            eprintln!("error: --warm-min-speedup set but no all-experiments store probe ran");
            std::process::exit(1);
        }
        for m in probed {
            let speedup = m.warm_speedup().expect("probed measurement");
            if speedup < min {
                eprintln!(
                    "error: warm store replay of {} at {} instrs is only {speedup:.2}x \
                     faster than cold (minimum {min}x)",
                    m.name, m.instrs
                );
                std::process::exit(1);
            }
            eprintln!("[warm guard ok: {} {speedup:.2}x >= {min}x]", m.name);
        }
    }
}
