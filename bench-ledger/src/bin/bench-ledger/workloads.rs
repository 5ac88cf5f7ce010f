//! The four workloads, each as an untraced end-to-end run and as a
//! traced run that replays the same work in-process.

use std::time::{Duration, Instant};

use specfetch_bench_ledger::catalog::{Outcome, Values};
use specfetch_bench_ledger::jobs::{job_mix, Job};
use specfetch_bench_ledger::parse::{first_diff, result_store_counts};
use specfetch_bench_ledger::replay::{
    drive_sweep, grid_layers, paper_scenarios, probe_decode, probe_store, probe_synth,
    render_experiments, render_layers, replay_grid, sweep_scenario, synth_layers, use_store,
    Overlays, Plan,
};
use specfetch_bench_ledger::stats::{median, tail};
use specfetch_bench_ledger::tracer::{coverage, Args, Kind, Tracer};
use specfetch_bench_ledger::{
    GOLDEN_PAPER, GOLDEN_STORE, GOLDEN_SWEEP, JOB_WINDOW, PAPER_WINDOW, STORE_WINDOW, SWEEP_SPEC,
    SWEEP_WINDOW,
};
use specfetch_experiments::{result_store, trace_cache, EXPERIMENT_IDS};
use specfetch_synth::suite::Benchmark;

use crate::process::{run, startup_ms, wal_records, worker_spawn_ms, Env, Run};
use crate::serve::{closed_loop, warm_up, JobSample, Server};

/// What one run measured.
pub struct Measured {
    /// Output checks and operation counts.
    pub outcome: Outcome,
    /// The metric values (end-to-end or per-layer, by run kind).
    pub values: Values,
    /// The traced run's spans as Chrome trace-event JSON.
    pub trace: Option<String>,
}

/// The window the warm-up runs of the CLI workloads use: big enough to
/// touch every code path and page in the binary, small enough to repeat.
const WARMUP_WINDOW: u64 = 20_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// Jobs drawn for `serve-jobs`, more than any run can complete.
const JOB_MIX: usize = 600;

/// Output checks of one run: the first failure of each check is printed
/// with the first differing line, and any failure makes the run wrong.
struct Checks {
    correct: bool,
}

impl Checks {
    fn new() -> Self {
        Checks { correct: true }
    }

    fn same(&mut self, what: &str, expected: &str, actual: &str) {
        if let Some((line, want, got)) = first_diff(expected, actual) {
            eprintln!(
                "bench-ledger: {what}: output differs at line {line}\n  expected: {want}\n  actual:   {got}"
            );
            self.correct = false;
        }
    }

    fn require(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("bench-ledger: check failed: {what}");
            self.correct = false;
        }
    }

    /// A finished CLI run must exit 0 and print `golden`.
    fn cli(&mut self, what: &str, r: &Run, golden: &str) {
        if r.ok {
            self.same(what, golden, &r.stdout);
        } else {
            let tail: Vec<&str> = r.stderr.lines().rev().take(5).collect();
            self.require(&format!("{what} exited non-zero: {}", tail.join(" | ")), false);
        }
    }
}

fn paper_cmd(env: &Env, window: u64, dir: &std::path::Path) -> std::process::Command {
    let mut c = env.repro();
    c.args(["--experiment", "all", "--instrs", &window.to_string(), "--sequential"]);
    c.arg("--result-dir").arg(dir);
    c
}

fn sweep_cmd(env: &Env, window: u64) -> std::process::Command {
    let mut c = env.repro();
    c.args(["--sweep", SWEEP_SPEC, "--instrs", &window.to_string()]);
    c.args(["--workers", "1"]);
    c
}

/// Runs `op` until `seconds` have passed (at least once).
fn timed_loop<T>(
    seconds: f64,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        out.push(op(out.len())?);
    }
    Ok(out)
}

fn median_of(xs: &[f64]) -> Result<f64, String> {
    median(xs).ok_or_else(|| "no samples".to_owned())
}

/// Timings of an untraced run: per operation and per set-up, each as
/// wall time and scaled to nominal host speed.
#[derive(Default)]
struct Samples {
    ops: Vec<(f64, f64)>,
    setups: Vec<(f64, f64)>,
    peaks_mb: Vec<f64>,
}

impl Samples {
    /// The end-to-end metrics. Wall-time medians go to stderr for
    /// reference.
    fn values(&self) -> Result<Values, String> {
        let scaled: Vec<f64> = self.ops.iter().map(|o| o.1).collect();
        let setups: Vec<f64> = self.setups.iter().map(|o| o.1).collect();
        let walls: Vec<f64> = self.ops.iter().map(|o| o.0).collect();
        eprintln!(
            "bench-ledger: {} operations, wall-time median {:.4} ms (set-up {:.4} s)",
            walls.len(),
            1e3 * median_of(&walls)?,
            median_of(&self.setups.iter().map(|o| o.0).collect::<Vec<_>>())?
        );
        let mut v = Values::end_to_end();
        v.set("op_p50_ms", 1e3 * median_of(&scaled)?)?;
        v.set("peak_rss_mb", median_of(&self.peaks_mb)?)?;
        v.set("setup_s", median_of(&setups)?)?;
        Ok(v)
    }
}

/// Runs a CLI command as a set-up step.
fn setup_run(
    env: &Env,
    samples: &mut Samples,
    checks: &mut Checks,
    mut cmd: std::process::Command,
    tree: bool,
) -> Result<Run, String> {
    let r = run(env, &mut cmd, tree)?;
    checks.require("every set-up run exits 0", r.ok);
    samples.setups.push((r.wall_s, r.scaled_s));
    Ok(r)
}

/// A measured loop of CLI runs, each checked against `golden`.
fn cli_loop(
    env: &Env,
    samples: &mut Samples,
    checks: &mut Checks,
    seconds: f64,
    golden: &str,
    tree: bool,
    mut cmd: impl FnMut(usize) -> Result<std::process::Command, String>,
) -> Result<Vec<Run>, String> {
    timed_loop(seconds, |i| {
        let r = run(env, &mut cmd(i)?, tree)?;
        samples.ops.push((r.wall_s, r.scaled_s));
        samples.peaks_mb.push(r.peak_mb);
        checks.cli(&format!("operation {i}"), &r, golden);
        Ok(r)
    })
}

fn finish(checks: Checks, runs: &[Run], samples: &Samples) -> Result<Measured, String> {
    let failed = runs.iter().filter(|r| !r.ok).count() as u64;
    let values = samples.values()?;
    let outcome = Outcome { correct: checks.correct, attempted: runs.len() as u64, failed };
    Ok(Measured { outcome, values, trace: None })
}

/// `paper-cold`, untraced.
pub fn paper_cold(env: &Env, seconds: f64) -> Result<Measured, String> {
    let (mut checks, mut samples) = (Checks::new(), Samples::default());
    for i in 0..SETUPS {
        let cmd = paper_cmd(env, WARMUP_WINDOW, &env.dir(&format!("setup-{i}"))?);
        setup_run(env, &mut samples, &mut checks, cmd, false)?;
    }
    let runs = cli_loop(env, &mut samples, &mut checks, seconds, GOLDEN_PAPER, false, |i| {
        Ok(paper_cmd(env, PAPER_WINDOW, &env.dir(&format!("op-{i}"))?))
    })?;
    finish(checks, &runs, &samples)
}

/// `sweep-wide`, untraced.
pub fn sweep_wide(env: &Env, seconds: f64) -> Result<Measured, String> {
    let (mut checks, mut samples) = (Checks::new(), Samples::default());
    for _ in 0..SETUPS {
        setup_run(env, &mut samples, &mut checks, sweep_cmd(env, WARMUP_WINDOW), true)?;
    }
    let runs = cli_loop(env, &mut samples, &mut checks, seconds, GOLDEN_SWEEP, true, |_| {
        Ok(sweep_cmd(env, SWEEP_WINDOW))
    })?;
    finish(checks, &runs, &samples)
}

/// A warm replay must render from the store alone.
fn check_warm(checks: &mut Checks, r: &Run, distinct: u64) {
    checks.require(
        "warm replay serves every point from the store and stores none",
        result_store_counts(&r.stderr) == Some((distinct, 0)),
    );
}

/// `store-warm`, untraced. Set-up fills the store with a cold run.
pub fn store_warm(env: &Env, seconds: f64) -> Result<Measured, String> {
    let (mut checks, mut samples) = (Checks::new(), Samples::default());
    let plan = Plan::new(&paper_scenarios());
    let mut store = None;
    for i in 0..SETUPS {
        let dir = env.dir(&format!("store-{i}"))?;
        let r =
            setup_run(env, &mut samples, &mut checks, paper_cmd(env, STORE_WINDOW, &dir), false)?;
        checks.cli("cold fill of the store", &r, GOLDEN_STORE);
        store = Some(dir);
    }
    let store = store.ok_or("no store was filled")?;
    let runs = cli_loop(env, &mut samples, &mut checks, seconds, GOLDEN_STORE, false, |_| {
        Ok(paper_cmd(env, STORE_WINDOW, &store))
    })?;
    for r in &runs {
        check_warm(&mut checks, r, plan.distinct() as u64);
    }
    finish(checks, &runs, &samples)
}

/// Starts a server and runs the warm-up job, returning the server and
/// how long both took.
fn serve_setup(env: &Env) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::start(&env.repro)?;
    warm_up(server.addr)?;
    Ok((server, start.elapsed().as_secs_f64()))
}

/// Checks every served result against the in-process driver's bytes for
/// the same spec.
fn check_jobs(
    checks: &mut Checks,
    t: &Tracer,
    jobs: &[Job],
    samples: &[JobSample],
) -> Result<(), String> {
    for s in samples {
        let spec = &jobs.get(s.index).ok_or("job index outside the mix")?.spec;
        let expected = drive_sweep(t, "service.compute", spec, JOB_WINDOW)?;
        checks.same(&format!("job {} ({spec})", s.index), &expected, &s.body);
    }
    Ok(())
}

/// `serve-jobs`, untraced. Its timings are not scaled: most of a job's
/// latency is waiting for the server's 25 ms polls, which run on wall
/// time whatever the host's speed, so scaling would only add the
/// calibration's own noise.
pub fn serve_jobs(env: &Env, seed: u64, seconds: f64) -> Result<Measured, String> {
    let (mut checks, mut samples) = (Checks::new(), Samples::default());
    let specs = job_mix(seed, JOB_MIX)?;
    let mut server = None;
    for _ in 0..SETUPS {
        // The previous server is stopped before the next one starts.
        drop(server.take());
        let (s, secs) = serve_setup(env)?;
        samples.setups.push((secs, secs));
        server = Some(s);
    }
    let server = server.ok_or("no server was started")?;
    let done = closed_loop(server.addr, &specs, 0, seconds, None);
    samples.peaks_mb.push(server.peak_mb().ok_or("the server's peak memory was unreadable")?);
    drop(server);
    for f in &done.failures {
        eprintln!("bench-ledger: {f}");
    }
    check_jobs(&mut checks, &Tracer::new(), &specs, &done.samples)?;
    samples.ops = done.samples.iter().map(|s| (s.latency_s, s.latency_s)).collect();
    let values = samples.values()?;
    let attempted = (done.samples.len() + done.failures.len()) as u64;
    let failed = done.failures.len() as u64;
    checks.require("every job completes", failed == 0);
    Ok(Measured {
        outcome: Outcome { correct: checks.correct, attempted, failed },
        values,
        trace: None,
    })
}

/// Probes every traced run takes: process start-up and worker handshake.
fn process_layers(v: &mut Values, env: &Env) -> Result<(), String> {
    v.set("repro.startup_ms", startup_ms(env, 5)?)?;
    v.set("worker.spawn_ms", worker_spawn_ms(env, 3)?)
}

/// Hits over lookups from a reference run's `[result-store]` line (0
/// when the run had no store).
fn hit_ratio(r: &Run) -> f64 {
    match result_store_counts(&r.stderr) {
        Some((hits, stores)) if hits + stores > 0 => hits as f64 / (hits + stores) as f64,
        _ => 0.0,
    }
}

/// The share of busy time layer spans must cover for the per-layer
/// numbers to account for a traced run.
const MIN_COVERAGE: f64 = 0.95;

/// Finishes a traced run of `attempted` operations, `failed` of which
/// failed: the ledger's self-checks (a run whose layer spans cover less
/// than [`MIN_COVERAGE`] of its busy time is wrong) and the trace.
fn traced(
    mut checks: Checks,
    (attempted, failed): (u64, u64),
    mut v: Values,
    t: &Tracer,
    wall_us: f64,
    overhead_frac: f64,
    workload: &str,
) -> Result<Measured, String> {
    let spans = t.spans();
    let cov = coverage(&spans, t.main_tid(), wall_us);
    checks.require(
        &format!("layer spans cover {:.1}% of busy time, at least 95%", cov * 100.0),
        cov >= MIN_COVERAGE,
    );
    v.set("ledger.coverage", cov)?;
    v.set("ledger.overhead_frac", overhead_frac)?;
    let trace = specfetch_bench_ledger::tracer::chrome_trace(&spans, workload);
    let outcome = Outcome { correct: checks.correct, attempted, failed };
    Ok(Measured { outcome, values: v, trace: Some(trace) })
}

/// Renders through `render` and checks the render read every point of
/// `plan` from the store and simulated none.
fn render_from_store(
    checks: &mut Checks,
    plan: &Plan,
    render: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    let (hits, stores) = result_store::stats();
    let text = render()?;
    let (hits2, stores2) = result_store::stats();
    checks.require(
        "the traced render reads every point from the store and simulates none",
        hits2 - hits == plan.distinct() as u64 && stores2 == stores,
    );
    Ok(text)
}

/// A traced grid run's operations: the reference run and the replay.
fn grid_ops(reference: &Run) -> (u64, u64) {
    (2, u64::from(!reference.ok))
}

/// Replays a grid in-process under a fresh store, checks the render did
/// no simulation of its own, runs the probes, and returns the tracer,
/// the overlays the lanes replayed and the traced wall time (µs).
fn traced_grid(
    env: &Env,
    checks: &mut Checks,
    plan: &Plan,
    window: u64,
    render: impl FnOnce(&Tracer) -> Result<String, String>,
    golden: &str,
) -> Result<(Tracer, Overlays, f64), String> {
    let store = env.dir("traced")?;
    use_store(&store)?;
    let t = Tracer::new();
    let start = t.now_us();
    let overlays = replay_grid(&t, plan, window, &store)?;
    let text = render_from_store(checks, plan, || render(&t))?;
    let wall_us = t.now_us() - start;
    checks.same("traced render", golden, &text);
    probe_synth(&t, &plan.benches(), window)?;
    probe_decode(&t, &overlays);
    probe_store(&t, &store, &plan.points(), window)?;
    Ok((t, overlays, wall_us))
}

/// `paper-cold`, traced.
pub fn paper_cold_traced(env: &Env) -> Result<Measured, String> {
    let mut checks = Checks::new();
    let plan = Plan::new(&paper_scenarios());
    let dir = env.dir("ref")?;
    let reference = run(env, &mut paper_cmd(env, PAPER_WINDOW, &dir), false)?;
    checks.cli("reference run", &reference, GOLDEN_PAPER);
    let (t, overlays, wall_us) = traced_grid(
        env,
        &mut checks,
        &plan,
        PAPER_WINDOW,
        |t| render_experiments(t, &EXPERIMENT_IDS, PAPER_WINDOW),
        GOLDEN_PAPER,
    )?;
    let mut v = Values::per_layer();
    grid_layers(&mut v, &t, &plan, &overlays, PAPER_WINDOW)?;
    render_layers(&mut v, &t)?;
    v.set("store.hit_ratio", hit_ratio(&reference))?;
    v.set("journal.wal_records", wal_records(&dir) as f64)?;
    process_layers(&mut v, env)?;
    let overhead = wall_us / 1e6 / reference.wall_s - 1.0;
    traced(checks, grid_ops(&reference), v, &t, wall_us, overhead, "paper-cold")
}

/// `sweep-wide`, traced.
pub fn sweep_wide_traced(env: &Env) -> Result<Measured, String> {
    let mut checks = Checks::new();
    let plan = Plan::new(&sweep_scenario(SWEEP_SPEC)?);
    let reference = run(env, &mut sweep_cmd(env, SWEEP_WINDOW), true)?;
    checks.cli("reference run", &reference, GOLDEN_SWEEP);
    let (t, overlays, wall_us) = traced_grid(
        env,
        &mut checks,
        &plan,
        SWEEP_WINDOW,
        |t| drive_sweep(t, "experiments.render.sweep", SWEEP_SPEC, SWEEP_WINDOW),
        GOLDEN_SWEEP,
    )?;
    let mut v = Values::per_layer();
    grid_layers(&mut v, &t, &plan, &overlays, SWEEP_WINDOW)?;
    render_layers(&mut v, &t)?;
    v.set("worker.overhead_s", reference.wall_s - wall_us / 1e6)?;
    process_layers(&mut v, env)?;
    let overhead = wall_us / 1e6 / reference.wall_s - 1.0;
    traced(checks, grid_ops(&reference), v, &t, wall_us, overhead, "sweep-wide")
}

/// `store-warm`, traced.
pub fn store_warm_traced(env: &Env) -> Result<Measured, String> {
    let mut checks = Checks::new();
    let plan = Plan::new(&paper_scenarios());
    let store = env.dir("store")?;
    let fill = run(env, &mut paper_cmd(env, STORE_WINDOW, &store), false)?;
    checks.cli("cold fill of the store", &fill, GOLDEN_STORE);
    let reference = run(env, &mut paper_cmd(env, STORE_WINDOW, &store), false)?;
    checks.cli("reference run", &reference, GOLDEN_STORE);
    check_warm(&mut checks, &reference, plan.distinct() as u64);

    use_store(&store)?;
    let t = Tracer::new();
    let start = t.now_us();
    let text = render_from_store(&mut checks, &plan, || {
        render_experiments(&t, &EXPERIMENT_IDS, STORE_WINDOW)
    })?;
    let wall_us = t.now_us() - start;
    checks.same("traced render", GOLDEN_STORE, &text);
    let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    probe_synth(&t, &benches, STORE_WINDOW)?;
    probe_store(&t, &store, &plan.points(), STORE_WINDOW)?;

    let mut v = Values::per_layer();
    synth_layers(&mut v, &t)?;
    render_layers(&mut v, &t)?;
    v.set("experiments.dedup_frac", 1.0 - plan.distinct() as f64 / plan.grid_points as f64)?;
    v.set("store.hit_ratio", hit_ratio(&reference))?;
    v.set("journal.wal_records", wal_records(&store) as f64)?;
    process_layers(&mut v, env)?;
    let overhead = wall_us / 1e6 / reference.wall_s - 1.0;
    traced(checks, grid_ops(&reference), v, &t, wall_us, overhead, "store-warm")
}

/// `serve-jobs`, traced: an untraced half of the run as the reference,
/// a traced half, then the traced jobs recomputed in-process.
pub fn serve_jobs_traced(env: &Env, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut checks = Checks::new();
    let specs = job_mix(seed, JOB_MIX)?;
    let (server, _) = serve_setup(env)?;
    let ready_ms = server.ready_s * 1e3;
    let reference = closed_loop(server.addr, &specs, 0, seconds / 2.0, None);
    let first = reference.samples.len() + reference.failures.len();

    let t = Tracer::new();
    let start = t.now_us();
    let done = t.span(Kind::Phase, "serve.loop", Args::default(), || {
        closed_loop(server.addr, &specs, first, seconds / 2.0, Some(&t))
    });
    drop(server);
    for b in Benchmark::all() {
        let a = Args { bench: b.name, lanes: 0, instrs: JOB_WINDOW };
        t.span(Kind::Layer, "trace.record", a, || trace_cache::try_shared_trace(b, JOB_WINDOW))
            .map_err(|e| e.to_string())?;
    }
    check_jobs(&mut checks, &t, &specs, &done.samples)?;
    let wall_us = t.now_us() - start;
    check_jobs(&mut checks, &Tracer::new(), &specs, &reference.samples)?;
    for f in reference.failures.iter().chain(&done.failures) {
        eprintln!("bench-ledger: {f}");
    }
    checks
        .require("every job completes", reference.failures.is_empty() && done.failures.is_empty());

    let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    probe_synth(&t, &benches, JOB_WINDOW)?;
    let ms = |f: fn(&JobSample) -> f64| {
        median_of(&done.samples.iter().map(|s| 1e3 * f(s)).collect::<Vec<_>>())
    };
    let latency_ms = ms(|s| s.latency_s)?;
    let compute_ms = 1e3 * median_of(&t.durations_s("service.compute"))?;
    let lat_s: Vec<f64> = done.samples.iter().map(|s| s.latency_s).collect();
    let tail_ms = 1e3 * tail(&lat_s).unwrap_or_else(|| lat_s.iter().copied().fold(0.0, f64::max));
    let ref_ms =
        1e3 * median_of(&reference.samples.iter().map(|s| s.latency_s).collect::<Vec<_>>())?;
    let record_mb: f64 = Benchmark::all()
        .iter()
        .filter_map(|b| trace_cache::try_shared_trace(b, JOB_WINDOW).ok())
        .map(|r| r.heap_bytes() as f64 / (1024.0 * 1024.0))
        .sum();

    let mut v = Values::per_layer();
    synth_layers(&mut v, &t)?;
    let sets = [
        ("trace.record_s", t.total_s("trace.record")),
        ("trace.record_mb", record_mb),
        ("http.submit_ms", ms(|s| s.submit_s)?),
        ("http.result_ms", ms(|s| s.result_s)?),
        ("service.first_row_ms", ms(|s| s.first_row_s)?),
        ("service.close_lag_ms", ms(|s| s.close_lag_s)?),
        ("service.compute_ms", compute_ms),
        ("service.overhead_ms", latency_ms - compute_ms),
        ("service.job_tail_ms", tail_ms),
        ("serve.ready_ms", ready_ms),
    ];
    for (name, value) in sets {
        v.set(name, value)?;
    }
    process_layers(&mut v, env)?;
    let failed = (reference.failures.len() + done.failures.len()) as u64;
    let attempted = (reference.samples.len() + done.samples.len()) as u64 + failed;
    traced(checks, (attempted, failed), v, &t, wall_us, latency_ms / ref_ms - 1.0, "serve-jobs")
}
