//! Shared simulation driving: single runs and batched experiment grids.
//!
//! Two layers of the same machinery:
//!
//! - the `try_*` functions are the fault-isolated substrate every
//!   rendered report runs on — a grid point that fails (a typed
//!   [`SpecfetchError`] or a panic) costs exactly one [`CellFailure`]
//!   cell while every other point completes;
//! - the infallible wrappers ([`simulate_benchmark`], [`run_grid`],
//!   [`suite_results`]) keep the original panic-on-failure contract for
//!   tests, benches, and examples, where a failure is a bug.

use std::panic::{self, AssertUnwindSafe};

use specfetch_core::{run_lockstep, FrontEnd, SimConfig, SimResult, Simulator, SpecfetchError};
use specfetch_synth::suite::Benchmark;

use crate::parallel::panic_message;
use crate::store::resolve_stored;
use crate::{fault, journal, par_map, supervise, try_par_map, RunOptions};

/// One benchmark's simulation outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchResult {
    /// Which benchmark.
    pub benchmark: &'static Benchmark,
    /// The measurements.
    pub result: SimResult,
}

/// One cell of an experiment grid: a benchmark under a configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct GridPoint {
    /// Which benchmark's path to replay.
    pub benchmark: &'static Benchmark,
    /// The front-end configuration to replay it under.
    pub cfg: SimConfig,
}

impl GridPoint {
    /// A grid cell.
    pub fn new(benchmark: &'static Benchmark, cfg: SimConfig) -> Self {
        GridPoint { benchmark, cfg }
    }
}

/// How a failed grid point should be treated by the supervision layer
/// (DESIGN §5j).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FailKind {
    /// Deterministic: rerunning would fail identically (panics, analysis
    /// and workload errors). Rendered immediately and negatively cached.
    Terminal,
    /// Environmental: worker death, deadline/heartbeat timeouts, injected
    /// `err`. Retried up to `--retries` before becoming terminal.
    Transient,
    /// Drained by a shutdown request: neither failed nor retried; a
    /// `--resume` rerun recomputes it.
    Interrupted,
}

/// Why one grid point produced no measurement: the compact reason
/// rendered as `FAILED(<reason>)` in the report cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CellFailure {
    /// Human-readable cause (a panic message or an error summary).
    pub reason: String,
    /// Whether the supervisor may retry this point.
    pub kind: FailKind,
    /// Whether this failure was replayed from the negative cache or the
    /// journal rather than produced by this run — replayed failures are
    /// never re-persisted (the entry already exists).
    pub(crate) replayed: bool,
}

impl CellFailure {
    /// A failure from a typed error. The retry classification follows
    /// the error: timeouts and injected `err` are transient, a shutdown
    /// drain is `Interrupted`, everything else rails to `Terminal`.
    pub fn from_error(e: &SpecfetchError) -> Self {
        let kind = match e {
            SpecfetchError::Timeout { .. } => FailKind::Transient,
            SpecfetchError::Injected { action } if *action == "err" => FailKind::Transient,
            SpecfetchError::Interrupted => FailKind::Interrupted,
            _ => FailKind::Terminal,
        };
        // A `StoredFailure` surfaces a negative-cache entry through the
        // error channel — it carries the replay provenance with it.
        let replayed = matches!(e, SpecfetchError::StoredFailure { .. });
        CellFailure { reason: e.cell_reason(), kind, replayed }
    }

    /// A failure from a captured panic payload (deterministic, terminal).
    fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        CellFailure { reason: panic_message(payload), kind: FailKind::Terminal, replayed: false }
    }

    /// A terminal failure with an explicit reason.
    pub(crate) fn permanent(reason: impl Into<String>) -> Self {
        CellFailure { reason: reason.into(), kind: FailKind::Terminal, replayed: false }
    }

    /// A terminal failure replayed verbatim from the negative cache or
    /// the journal.
    pub(crate) fn from_replay(reason: impl Into<String>) -> Self {
        CellFailure { reason: reason.into(), kind: FailKind::Terminal, replayed: true }
    }

    /// A transient (retryable) failure with an explicit reason.
    pub(crate) fn transient(reason: impl Into<String>) -> Self {
        CellFailure { reason: reason.into(), kind: FailKind::Transient, replayed: false }
    }

    /// A point drained by a shutdown request.
    pub(crate) fn interrupted() -> Self {
        CellFailure {
            reason: "interrupted".to_owned(),
            kind: FailKind::Interrupted,
            replayed: false,
        }
    }

    /// The `FAILED(<reason>)` table cell.
    pub fn cell(&self) -> String {
        format!("FAILED({})", self.reason)
    }
}

/// A per-cell measured value: the measurement, or why it is missing.
pub type Measured<T> = Result<T, CellFailure>;

/// One grid point's simulation outcome under isolation.
pub type GridCell = Measured<SimResult>;

/// Simulates one benchmark under `cfg` for `opts.instrs_per_benchmark`
/// dynamic instructions, reporting trace/workload problems as errors.
///
/// The correct path is fixed per benchmark (same generator seed, same
/// path seed), so different configurations replay the *same* execution —
/// the property every policy comparison in the paper relies on. The
/// finished result is resolved from the memo and the result store
/// first; otherwise the engine replays the process-wide
/// [`crate::trace_cache`] recording — through its pre-decoded
/// [`specfetch_trace::PredictedTrace`] overlay at or above
/// [`RunOptions::OVERLAY_MIN_INSTRS`], directly below it — and the result
/// is memoised per `(benchmark, window, config)`.
///
/// # Errors
///
/// Returns [`SpecfetchError::Workload`] if the spec fails to generate
/// (replay sources are acquired *before* the memo fill, so acquisition
/// failures surface here instead of panicking inside a cache cell), and
/// [`SpecfetchError::Analysis`] if the generated image fails the static
/// CFG preflight ([`crate::analysis::preflight`]) — rendered as a
/// `FAILED(analysis: …)` cell by the isolated grid.
pub fn try_simulate_benchmark(
    bench: &Benchmark,
    cfg: SimConfig,
    opts: RunOptions,
) -> Result<SimResult, SpecfetchError> {
    // Static preflight: a structurally broken image must never reach the
    // engine (its wrong-path walks would silently skew the very cache
    // statistics being measured). Memoized per process, so this is one
    // verifier walk per benchmark — not per grid point.
    crate::analysis::preflight(bench)?;
    let instrs = opts.instrs_per_benchmark;
    // Memo / result-store check BEFORE any trace work: a warm run (every
    // point already stored) never records, decodes, or loads a trace at
    // all — it is render-only.
    match resolve_stored(bench, instrs, cfg, &opts) {
        Some(Ok(r)) => return Ok(r),
        Some(Err(f)) => return Err(SpecfetchError::StoredFailure { reason: f.reason }),
        None => {}
    }
    let r = if opts.use_overlay() {
        let source = crate::trace_cache::try_predicted_source(bench, instrs)?;
        crate::trace_cache::memoized_result(bench, instrs, cfg, || Simulator::new(cfg).run(source))
    } else {
        let source = crate::trace_cache::try_recorded_source(bench, instrs)?;
        crate::trace_cache::memoized_result(bench, instrs, cfg, || Simulator::new(cfg).run(source))
    };
    crate::result_store::put(bench.name, instrs, &cfg, &r);
    Ok(r)
}

/// Runs `f` under `catch_unwind`, turning a typed error or a panic into
/// that cell's [`CellFailure`].
fn isolate<T>(f: impl FnOnce() -> Result<T, SpecfetchError>) -> Measured<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(CellFailure::from_error(&e)),
        Err(payload) => Err(CellFailure::from_panic(payload.as_ref())),
    }
}

/// Streams one finished batch of cells (`--stream`): one `[row] ...`
/// line per grid point, in completion order, delivered through the
/// per-job row sink ([`crate::diag::row`]) — stderr for the CLI, the
/// controller's buffer for service jobs. Stdout — and therefore the
/// golden byte-identity — is untouched.
pub(crate) fn stream_cells(points: &[GridPoint], cells: &[(usize, GridCell)], opts: &RunOptions) {
    if !opts.stream {
        return;
    }
    for (i, cell) in cells {
        let p = &points[*i];
        let row = match cell {
            Ok(r) => format!(
                "[row] {} cfg={:016x} ispi={:.4}",
                p.benchmark.name,
                p.cfg.canonical_hash(),
                r.ispi()
            ),
            Err(f) => format!(
                "[row] {} cfg={:016x} {}",
                p.benchmark.name,
                p.cfg.canonical_hash(),
                f.cell()
            ),
        };
        crate::diag::row(opts.job, &row);
    }
}

/// Infallible convenience over [`try_simulate_benchmark`].
///
/// # Panics
///
/// Panics on trace/workload failure (never expected for the calibrated
/// suite; the isolated grid captures such a panic per point).
pub fn simulate_benchmark(bench: &Benchmark, cfg: SimConfig, opts: RunOptions) -> SimResult {
    try_simulate_benchmark(bench, cfg, opts)
        .unwrap_or_else(|e| panic!("simulating {}: {e}", bench.name))
}

/// Simulates every grid point under per-point isolation, returning one
/// [`GridCell`] per point in input order.
///
/// This is the batched multi-config replay the experiments are built on:
/// points are scheduled **grouped by benchmark**, so all configurations
/// that replay the same trace run back-to-back on one worker — the
/// recording and its overlay are materialised once and stay hot across
/// the whole batch, and the result memo collapses grid points that
/// recur across experiments (every table re-runs the shared baselines).
/// Groups, not points, are the parallel unit; point order within the
/// result is the input order regardless of grouping.
///
/// At or above [`RunOptions::OVERLAY_MIN_INSTRS`] each group runs as
/// **one config-lockstep batch**: a single pass over the shared overlay
/// advances a lane per distinct configuration, decoding each fetch
/// window once and fanning it out to every lane (see [`run_lockstep`]
/// and DESIGN §5h). Below it each point replays the shared recording on
/// its own. The cells are byte-identical either way.
///
/// Isolation: each point runs under `catch_unwind`, with the
/// fault-injection [`fault::guard`] fired first (points are numbered in
/// input order via [`fault::reserve`], so `--inject point=<exp>:<n>,...`
/// is deterministic at any parallelism). A panic or typed error in one
/// point yields that point's `Err(CellFailure)`; every other point still
/// simulates — in lockstep form, a panicking lane costs the points of
/// that configuration while sibling lanes complete.
pub fn try_run_grid(points: &[GridPoint], opts: &RunOptions) -> Vec<GridCell> {
    let base = fault::reserve(points.len());
    let jbase = journal::reserve(opts.job, points.len());
    if let Some(jb) = jbase {
        for (i, p) in points.iter().enumerate() {
            journal::record_scheduled(
                opts.job,
                jb + i as u64,
                p.benchmark.name,
                opts.instrs_per_benchmark,
                p.cfg.canonical_hash(),
            );
        }
    }
    let mut out: Vec<Option<GridCell>> = (0..points.len()).map(|_| None).collect();
    let mut attempts: Vec<u32> = vec![0; points.len()];

    // A `--resume` replay: terminal FAILED cells come back from the
    // journal verbatim (attempt counts included) without running;
    // completed points resolve through the memo/store as usual.
    if let Some(jb) = jbase {
        for (i, slot) in out.iter_mut().enumerate() {
            if let Some(journal::Replayed::Failed { attempts: a, reason }) =
                journal::replayed(opts.job, jb + i as u64)
            {
                if !opts.retry_failed {
                    *slot = Some(Err(CellFailure::from_replay(reason)));
                    attempts[i] = a;
                }
            }
        }
    }

    let todo: Vec<usize> = (0..points.len()).filter(|&i| out[i].is_none()).collect();
    run_pass(points, &todo, base, jbase, 0, opts, &mut out, &mut attempts);

    // Bounded retry of transient failures (worker death, timeouts,
    // injected `err`) with seeded exponential backoff. Terminal and
    // interrupted cells are left alone.
    for attempt in 1..=opts.retries {
        if supervise::job_shutdown_requested(opts.job) {
            break;
        }
        let retry: Vec<usize> = (0..points.len())
            .filter(|&i| matches!(&out[i], Some(Err(f)) if f.kind == FailKind::Transient))
            .collect();
        if retry.is_empty() {
            break;
        }
        std::thread::sleep(supervise::backoff_delay(attempt, opts.backoff_ms, points.len() as u64));
        run_pass(points, &retry, base, jbase, attempt, opts, &mut out, &mut attempts);
    }

    // A shutdown drain leaves merely-interrupted points looking like
    // transient failures: a terminal SIGINT reaches the handler-less
    // worker children in the foreground process group, so their
    // in-flight points come back as `worker exited: ...`, and the retry
    // loop above breaks instead of re-dispatching them. Reclassify them
    // before bookkeeping — journaling them as terminal (and negatively
    // caching them) would make `--resume` replay the interruption
    // verbatim instead of recomputing.
    if supervise::job_shutdown_requested(opts.job) {
        for slot in &mut out {
            if let Some(Err(f)) = slot {
                if f.kind == FailKind::Transient {
                    *f = CellFailure::interrupted();
                }
            }
        }
    }

    // Terminal bookkeeping: journal every outcome, negatively cache
    // terminal failures (never interrupted points), and tally the
    // partial-summary counters.
    let (mut completed, mut failed, mut interrupted) = (0u64, 0u64, 0u64);
    for (i, slot) in out.iter().enumerate() {
        match slot {
            Some(Ok(_)) => {
                completed += 1;
                if let Some(jb) = jbase {
                    journal::record_completed(opts.job, jb + i as u64);
                }
            }
            Some(Err(f)) if f.kind == FailKind::Interrupted => {
                interrupted += 1;
                if let Some(jb) = jbase {
                    journal::record_interrupted(opts.job, jb + i as u64);
                }
            }
            Some(Err(f)) => {
                failed += 1;
                // A replayed failure (negative cache or journal) is
                // already persisted — re-recording it would pollute the
                // store counters and grow the WAL on every resume.
                if !f.replayed {
                    if let Some(jb) = jbase {
                        journal::record_failed(
                            opts.job,
                            jb + i as u64,
                            attempts[i].max(1),
                            &f.reason,
                        );
                    }
                    let p = &points[i];
                    crate::result_store::put_failed(
                        p.benchmark.name,
                        opts.instrs_per_benchmark,
                        &p.cfg,
                        &f.reason,
                    );
                }
            }
            None => {}
        }
    }
    supervise::note_outcomes(completed, failed, interrupted);

    // Every index is filled by construction; degrade an impossible gap
    // to a failed cell instead of unwinding past the isolation layer.
    out.into_iter()
        .map(|r| r.unwrap_or_else(|| Err(CellFailure::permanent("grid point was never simulated"))))
        .collect()
}

/// Runs one attempt over the `idxs` subset of `points`, filling `out`.
/// Attempt 0 is the full grid; retry passes re-run only their transient
/// failures. Sharded execution (`--workers`) dispatches through the
/// worker pool; otherwise (or when the pool cannot start) the pass runs
/// in-process, grouped by benchmark.
#[allow(clippy::too_many_arguments)]
fn run_pass(
    points: &[GridPoint],
    idxs: &[usize],
    base: u64,
    jbase: Option<u64>,
    attempt: u32,
    opts: &RunOptions,
    out: &mut [Option<GridCell>],
    attempts: &mut [u32],
) {
    if idxs.is_empty() {
        return;
    }
    if supervise::job_shutdown_requested(opts.job) {
        for &i in idxs {
            out[i] = Some(Err(CellFailure::interrupted()));
        }
        return;
    }
    if let Some(jb) = jbase {
        for &i in idxs {
            journal::record_attempt(opts.job, jb + i as u64, attempt);
        }
    }
    for &i in idxs {
        attempts[i] = attempt + 1;
    }
    let cells = if opts.workers > 0 {
        match crate::worker::try_run_grid_sharded(points, idxs, base, attempt, opts) {
            Some(cells) => cells,
            // The worker pool could not start (e.g. the executable cannot
            // re-spawn itself); a warning has been printed and the pass
            // runs in-process instead.
            None => run_pass_inprocess(points, idxs, base, attempt, opts),
        }
    } else {
        run_pass_inprocess(points, idxs, base, attempt, opts)
    };
    for (i, c) in cells {
        out[i] = Some(c);
    }
}

/// The in-process arm of [`run_pass`]: benchmark-grouped, parallel over
/// groups, lockstep within a group at or above the overlay cutoff. A
/// shutdown request drains at group boundaries — groups not yet started
/// are recorded as interrupted without simulating.
fn run_pass_inprocess(
    points: &[GridPoint],
    idxs: &[usize],
    base: u64,
    attempt: u32,
    opts: &RunOptions,
) -> Vec<(usize, GridCell)> {
    let mut groups: Vec<(&'static Benchmark, Vec<usize>)> = Vec::new();
    for &i in idxs {
        let p = &points[i];
        match groups.iter_mut().find(|(b, _)| std::ptr::eq(*b, p.benchmark)) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((p.benchmark, vec![i])),
        }
    }
    let opts_by_val = *opts;
    let done = par_map(groups, opts.parallel, |(b, idxs)| {
        if supervise::job_shutdown_requested(opts_by_val.job) {
            return idxs.into_iter().map(|i| (i, Err(CellFailure::interrupted()))).collect();
        }
        let run_group: GroupRunner =
            if opts_by_val.use_overlay() { run_group_lockstep } else { run_group_pointwise };
        let cells = run_group(b, idxs, points, base, attempt, opts_by_val);
        stream_cells(points, &cells, &opts_by_val);
        cells
    });
    done.into_iter().flatten().collect()
}

/// One benchmark group's runner: the group's point indices in, one cell
/// per point out.
type GroupRunner = fn(
    &'static Benchmark,
    Vec<usize>,
    &[GridPoint],
    u64,
    u32,
    RunOptions,
) -> Vec<(usize, GridCell)>;

/// Runs one benchmark group's grid points one after another, each
/// through [`try_simulate_benchmark`] under its own fault guard.
fn run_group_pointwise(
    b: &'static Benchmark,
    idxs: Vec<usize>,
    points: &[GridPoint],
    base: u64,
    attempt: u32,
    opts: RunOptions,
) -> Vec<(usize, GridCell)> {
    idxs.into_iter()
        .map(|i| {
            let cell = isolate(|| {
                fault::guard(base + i as u64, attempt, opts.point_timeout_secs)?;
                try_simulate_benchmark(b, points[i].cfg, opts)
            });
            (i, cell)
        })
        .collect()
}

/// Runs one benchmark group's grid points as a config-lockstep batch:
/// one pass over the shared overlay advances a lane per distinct
/// configuration (see [`run_lockstep`]).
///
/// Per-point semantics match [`run_group_pointwise`] exactly:
///
/// - the fault-injection guard and the static preflight fire per point,
///   in input order, so `--inject` numbering is unchanged;
/// - memo-hit configurations are served from the result cache without
///   occupying a lane, and finished lanes fill the memo;
/// - a panicking lane yields `FAILED(...)` for that configuration's
///   points while sibling lanes complete (point by point, each such
///   point would deterministically re-panic on its own);
/// - a configuration the front end rejects falls back to
///   [`try_simulate_benchmark`], so its cell is exactly the pointwise
///   runner's (the [`Simulator`]'s own verdict on the configuration).
fn run_group_lockstep(
    b: &'static Benchmark,
    idxs: Vec<usize>,
    points: &[GridPoint],
    base: u64,
    attempt: u32,
    opts: RunOptions,
) -> Vec<(usize, GridCell)> {
    let instrs = opts.instrs_per_benchmark;
    // Per-point guard + preflight; a failure here costs only that cell.
    let cells: Vec<(usize, Option<GridCell>)> = idxs
        .into_iter()
        .map(|i| {
            let pre = isolate(|| {
                fault::guard(base + i as u64, attempt, opts.point_timeout_secs)?;
                crate::analysis::preflight(b)
            });
            (i, pre.err().map(Err))
        })
        .collect();

    // Deduplicate configurations and resolve memo / result-store hits
    // BEFORE touching the trace layer: a fully warm batch returns here
    // without recording or decoding anything.
    let mut resolved: Vec<(SimConfig, GridCell)> = Vec::new();
    let mut pending: Vec<SimConfig> = Vec::new();
    for &(i, ref early) in &cells {
        let cfg = points[i].cfg;
        if early.is_some() || resolved.iter().any(|(c, _)| *c == cfg) || pending.contains(&cfg) {
            continue;
        }
        match resolve_stored(b, instrs, cfg, &opts) {
            Some(cell) => resolved.push((cfg, cell)),
            None => pending.push(cfg),
        }
    }

    if !pending.is_empty() {
        // One shared overlay for the whole batch; failing to build it
        // fails every unresolved point (the pointwise runner would hit
        // the same error per point), while stored points still render.
        match crate::trace_cache::try_predicted_trace(b, instrs) {
            Err(e) => {
                let fail: GridCell = Err(CellFailure::from_error(&e));
                resolved.extend(pending.into_iter().map(|cfg| (cfg, fail.clone())));
            }
            Ok(overlay) => {
                let mut fronts: Vec<FrontEnd> = Vec::new();
                for cfg in pending {
                    match FrontEnd::build(cfg) {
                        Ok(fe) => fronts.push(fe),
                        Err(_) => {
                            resolved.push((cfg, isolate(|| try_simulate_benchmark(b, cfg, opts))))
                        }
                    }
                }
                let lane_cfgs: Vec<SimConfig> = fronts.iter().map(|f| *f.config()).collect();
                for (cfg, outcome) in lane_cfgs.into_iter().zip(run_lockstep(&overlay, fronts)) {
                    let cell = match outcome {
                        Ok(r) => {
                            crate::trace_cache::store_result(b, instrs, cfg, r.clone());
                            crate::result_store::put(b.name, instrs, &cfg, &r);
                            Ok(r)
                        }
                        Err(payload) => Err(CellFailure::from_panic(payload.as_ref())),
                    };
                    resolved.push((cfg, cell));
                }
            }
        }
    }

    cells
        .into_iter()
        .map(|(i, early)| {
            let cell = early.unwrap_or_else(|| {
                resolved
                    .iter()
                    .find(|(c, _)| *c == points[i].cfg)
                    .map(|(_, r)| r.clone())
                    .unwrap_or_else(|| {
                        Err(CellFailure::permanent("grid point was never simulated"))
                    })
            });
            (i, cell)
        })
        .collect()
}

/// Infallible convenience over [`try_run_grid`].
///
/// # Panics
///
/// Panics if any grid point fails (tests and examples treat a failed
/// point as a bug; rendered reports use [`try_run_grid`] and flag the
/// cell instead).
pub fn run_grid(points: &[GridPoint], opts: &RunOptions) -> Vec<SimResult> {
    try_run_grid(points, opts)
        .into_iter()
        .map(|cell| cell.unwrap_or_else(|f| panic!("grid point failed: {}", f.reason)))
        .collect()
}

/// Maps `f` over `items` with full per-item isolation and deterministic
/// fault-point numbering — the row-granular counterpart of
/// [`try_run_grid`] for experiments whose unit of work is not a single
/// grid point (Table 2's characterisation rows, the ablation sweeps).
pub(crate) fn isolated_map<T, R, F>(items: Vec<T>, opts: &RunOptions, f: F) -> Vec<Measured<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<R, SpecfetchError> + Sync,
{
    let base = fault::reserve(items.len());
    let indexed: Vec<(u64, T)> =
        items.into_iter().enumerate().map(|(i, t)| (base + i as u64, t)).collect();
    try_par_map(indexed, opts.parallel, |(idx, item)| {
        fault::guard(idx, 0, opts.point_timeout_secs)?;
        f(item)
    })
    .into_iter()
    .map(|r| match r {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(CellFailure::from_error(&e)),
        // A captured panic arrives as `PointPanic`; its cell reason is
        // the raw panic message, matching the pre-typed rendering.
        Err(e) => Err(CellFailure::from_error(&e)),
    })
    .collect()
}

/// Runs the full 13-benchmark suite under the configuration produced by
/// `cfg_for` (called once per benchmark), in suite order.
pub fn suite_results(
    opts: &RunOptions,
    cfg_for: impl Fn(&Benchmark) -> SimConfig + Sync,
) -> Vec<BenchResult> {
    let benches: Vec<&'static Benchmark> = Benchmark::all().iter().collect();
    let opts = *opts;
    par_map(benches, opts.parallel, |b| BenchResult {
        benchmark: b,
        result: simulate_benchmark(b, cfg_for(b), opts),
    })
}

/// The arithmetic mean of `xs`.
pub(crate) fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The arithmetic mean of the `Ok` values of `xs` — failed cells are
/// excluded from report averages rather than zeroing them.
pub(crate) fn mean_ok<'a>(xs: impl IntoIterator<Item = &'a Measured<f64>>) -> f64 {
    mean(xs.into_iter().filter_map(|m| m.as_ref().ok().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_core::FetchPolicy;
    use specfetch_trace::PathSource;

    #[test]
    fn simulate_benchmark_is_deterministic() {
        let b = Benchmark::by_name("li").unwrap();
        let cfg = SimConfig::paper_baseline();
        let opts = RunOptions::smoke().with_instrs(20_000);
        let a = simulate_benchmark(b, cfg, opts);
        let c = simulate_benchmark(b, cfg, opts);
        assert_eq!(a, c);
    }

    /// The interpret-per-run reference: a fresh behavioural
    /// interpretation of `b`'s correct path, with no recording, overlay,
    /// memo or store involved.
    fn reference(b: &Benchmark, cfg: SimConfig, instrs: u64) -> SimResult {
        let workload = b.workload().unwrap();
        Simulator::new(cfg).run(workload.executor(b.path_seed()).take_instrs(instrs))
    }

    #[test]
    fn shared_and_legacy_paths_agree() {
        let b = Benchmark::by_name("gcc").unwrap();
        let cfg = SimConfig::paper_baseline();
        // One window on each side of the cutoff: the recorded and the
        // overlay arm of `try_simulate_benchmark`.
        for instrs in [10_000, RunOptions::OVERLAY_MIN_INSTRS] {
            let opts = RunOptions::smoke().with_instrs(instrs);
            assert_eq!(simulate_benchmark(b, cfg, opts), reference(b, cfg, instrs), "{instrs}");
        }
    }

    #[test]
    fn overlay_and_plain_shared_paths_agree() {
        let b = Benchmark::by_name("doduc").unwrap();
        let opts = RunOptions::smoke().with_instrs(10_000);
        for policy in FetchPolicy::ALL {
            let mut cfg = SimConfig::paper_baseline();
            cfg.policy = policy;
            let shared = simulate_benchmark(b, cfg, opts);
            assert_eq!(shared, reference(b, cfg, 10_000), "{policy}: shared replay diverged");
            let overlay = Simulator::new(cfg).run(crate::trace_cache::predicted_source(b, 10_000));
            assert_eq!(overlay, shared, "{policy}: overlay replay diverged");
        }
    }

    /// Runs every point (all of one benchmark) through one group runner
    /// as a single first attempt, sorted back into input order.
    fn group_cells(run: GroupRunner, points: &[GridPoint], opts: RunOptions) -> Vec<GridCell> {
        let mut cells = run(points[0].benchmark, (0..points.len()).collect(), points, 0, 0, opts);
        cells.sort_by_key(|(i, _)| *i);
        assert!(cells.iter().enumerate().all(|(k, (i, _))| k == *i), "one cell per point");
        cells.into_iter().map(|(_, c)| c).collect()
    }

    #[test]
    fn lockstep_group_runner_matches_the_pointwise_runner() {
        // Below the cutoff grids never reach lockstep, so drive both group
        // runners directly. The window is this test's own: lockstep runs
        // first on a cold memo, so its lanes really simulate.
        const W: u64 = 7_013;
        let b = Benchmark::by_name("li").unwrap();
        let opts = RunOptions::smoke().with_instrs(W);
        let with = |f: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::paper_baseline();
            f(&mut cfg);
            cfg
        };
        let pess = with(|c| c.policy = FetchPolicy::Pessimistic);
        // A memo hit is served without a lane: seed the memo with a
        // sentinel no simulation produces, and both runners must return it.
        let memo_hit = with(|c| c.policy = FetchPolicy::Oracle);
        let sentinel = SimResult { cycles: 1, ..reference(b, memo_hit, W) };
        crate::trace_cache::store_result(b, W, memo_hit, sentinel.clone());
        // A lane that panics: the fill completion time overflows, which
        // panics under overflow checks and trips the engine's stall
        // watchdog without them.
        let panics = with(|c| c.miss_penalty = u64::MAX);
        // `FrontEnd::build` rejects two sequential prefetchers at once;
        // the lockstep runner falls back to the pointwise path, whose
        // `Simulator` refuses the configuration with a panic.
        let rejected = with(|c| {
            c.prefetch = true;
            c.stream_buffer = true;
        });
        assert!(FrontEnd::build(rejected).is_err());

        let cfgs = [pess, memo_hit, SimConfig::paper_baseline(), panics, rejected, pess];
        let points: Vec<GridPoint> = cfgs.iter().map(|&cfg| GridPoint::new(b, cfg)).collect();
        let lockstep = group_cells(run_group_lockstep, &points, opts);
        let pointwise = group_cells(run_group_pointwise, &points, opts);
        assert_eq!(lockstep, pointwise);

        assert_eq!(lockstep[1], Ok(sentinel), "memo hits never occupy a lane");
        assert!(lockstep[3].is_err(), "{:?}", lockstep[3]);
        let reason = &lockstep[4].as_ref().unwrap_err().reason;
        assert!(reason.starts_with("invalid simulator configuration"), "{reason}");
        for i in [0, 2, 5] {
            assert_eq!(lockstep[i], Ok(reference(b, cfgs[i], W)), "point {i}");
        }
    }

    #[test]
    fn run_grid_matches_pointwise_runs_in_order() {
        let opts = RunOptions::smoke().with_instrs(8_000);
        let mut points = Vec::new();
        // Deliberately interleave benchmarks so grouping must scatter
        // results back to input order.
        for policy in [FetchPolicy::Oracle, FetchPolicy::Pessimistic] {
            for name in ["li", "gcc", "li", "cfront"] {
                let mut cfg = SimConfig::paper_baseline();
                cfg.policy = policy;
                points.push(GridPoint::new(Benchmark::by_name(name).unwrap(), cfg));
            }
        }
        let grid = run_grid(&points, &opts);
        assert_eq!(grid.len(), points.len());
        for (p, r) in points.iter().zip(&grid) {
            assert_eq!(*r, simulate_benchmark(p.benchmark, p.cfg, opts));
            assert_eq!(r.policy, p.cfg.policy);
        }
    }

    #[test]
    fn run_grid_agrees_without_any_caches() {
        let opts = RunOptions::smoke().with_instrs(6_000);
        let b = Benchmark::by_name("su2cor").unwrap();
        let points: Vec<GridPoint> = FetchPolicy::ALL
            .into_iter()
            .map(|policy| GridPoint::new(b, SimConfig { policy, ..SimConfig::paper_baseline() }))
            .collect();
        for (p, r) in points.iter().zip(run_grid(&points, &opts)) {
            assert_eq!(r, reference(b, p.cfg, 6_000), "{}", p.cfg.policy);
        }
    }

    #[test]
    fn try_run_grid_cells_match_the_infallible_grid() {
        let opts = RunOptions::smoke().with_instrs(6_000);
        let points: Vec<GridPoint> = ["li", "gcc"]
            .into_iter()
            .map(|n| GridPoint::new(Benchmark::by_name(n).unwrap(), SimConfig::paper_baseline()))
            .collect();
        let cells = try_run_grid(&points, &opts);
        let plain = run_grid(&points, &opts);
        assert_eq!(cells.len(), plain.len());
        for (c, r) in cells.iter().zip(&plain) {
            assert_eq!(c.as_ref().unwrap(), r, "isolated cell diverged from the plain grid");
        }
    }

    #[test]
    fn isolated_map_captures_both_error_kinds() {
        let opts = RunOptions::smoke();
        let out = isolated_map(vec![0u32, 1, 2, 3], &opts, |x| match x {
            1 => Err(SpecfetchError::Injected { action: "err" }),
            2 => panic!("kaboom {x}"),
            other => Ok(other * 10),
        });
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1].as_ref().unwrap_err().reason, "injected err");
        assert_eq!(out[2].as_ref().unwrap_err().reason, "kaboom 2");
        assert_eq!(out[3], Ok(30));
    }

    #[test]
    fn cell_failure_renders() {
        let f = CellFailure::permanent("injected panic");
        assert_eq!(f.cell(), "FAILED(injected panic)");
        let e = SpecfetchError::Injected { action: "err" };
        assert_eq!(CellFailure::from_error(&e).cell(), "FAILED(injected err)");
    }

    #[test]
    fn failure_kinds_classify_retryability() {
        let kind = |e: &SpecfetchError| CellFailure::from_error(e).kind;
        assert_eq!(kind(&SpecfetchError::Timeout { seconds: 1 }), FailKind::Transient);
        assert_eq!(kind(&SpecfetchError::Injected { action: "err" }), FailKind::Transient);
        assert_eq!(kind(&SpecfetchError::Interrupted), FailKind::Interrupted);
        assert_eq!(kind(&SpecfetchError::PointPanic { reason: "b".into() }), FailKind::Terminal);
        assert_eq!(
            kind(&SpecfetchError::StoredFailure { reason: "x".into() }),
            FailKind::Terminal,
            "negative-cache replays must not re-enter the retry loop"
        );
        assert_eq!(CellFailure::interrupted().kind, FailKind::Interrupted);
        assert_eq!(CellFailure::transient("x").kind, FailKind::Transient);
    }

    #[test]
    fn suite_results_covers_all_benchmarks_in_order() {
        let opts = RunOptions::smoke().with_instrs(5_000);
        let rs = suite_results(&opts, |_| SimConfig::paper_baseline());
        assert_eq!(rs.len(), 13);
        assert_eq!(rs[0].benchmark.name, "doduc");
        assert_eq!(rs[12].benchmark.name, "porky");
        for r in &rs {
            assert_eq!(r.result.policy, FetchPolicy::Resume);
            assert_eq!(r.result.correct_instrs, 5_000);
        }
    }

    #[test]
    fn helpers() {
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean([]), 0.0);
        let cells: Vec<Measured<f64>> = vec![Ok(1.0), Err(CellFailure::permanent("x")), Ok(3.0)];
        assert!((mean_ok(cells.iter()) - 2.0).abs() < 1e-12, "failed cells are skipped");
    }
}
