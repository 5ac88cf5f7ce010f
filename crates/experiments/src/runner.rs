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
use std::sync::{mpsc, Arc};

use specfetch_core::{run_lockstep, FrontEnd, SimConfig, SimResult, SpecfetchError};
use specfetch_synth::suite::Benchmark;
use specfetch_trace::PredictedTrace;

use crate::fault::{self, FaultAction};
use crate::parallel::panic_message;
use crate::store::{self, resolve_stored};
use crate::{journal, par_map, supervise, try_par_map, RunOptions};

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
    /// Where the grid's terminal bookkeeping writes this failure.
    pub(crate) persist: Persist,
}

/// Where a terminal failure is written once its grid settles.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Persist {
    /// The journal and the result store's negative cache.
    Everywhere,
    /// The journal only: a preflight verdict. The store key cannot see
    /// what decided it (the `--corrupt-target` hook), and it is
    /// recomputed in milliseconds; the journal's run key does see the
    /// hook (`journal::run_key`).
    JournalOnly,
    /// Nowhere: replayed from the negative cache or the journal, which
    /// already hold it.
    Nowhere,
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
        CellFailure { reason: e.cell_reason(), kind, persist: Persist::Everywhere }
    }

    /// A failure from a captured panic payload (deterministic, terminal).
    fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        CellFailure {
            reason: panic_message(payload),
            kind: FailKind::Terminal,
            persist: Persist::Everywhere,
        }
    }

    /// A terminal failure with an explicit reason.
    pub(crate) fn permanent(reason: impl Into<String>) -> Self {
        CellFailure {
            reason: reason.into(),
            kind: FailKind::Terminal,
            persist: Persist::Everywhere,
        }
    }

    /// A terminal failure replayed verbatim from the negative cache or
    /// the journal.
    pub(crate) fn from_replay(reason: impl Into<String>) -> Self {
        CellFailure { reason: reason.into(), kind: FailKind::Terminal, persist: Persist::Nowhere }
    }

    /// This failure as a preflight verdict, which only the journal
    /// records.
    fn journal_only(self) -> Self {
        CellFailure { persist: Persist::JournalOnly, ..self }
    }

    /// A transient (retryable) failure with an explicit reason.
    pub(crate) fn transient(reason: impl Into<String>) -> Self {
        CellFailure {
            reason: reason.into(),
            kind: FailKind::Transient,
            persist: Persist::Everywhere,
        }
    }

    /// A point drained by a shutdown request.
    pub(crate) fn interrupted() -> Self {
        CellFailure {
            reason: "interrupted".to_owned(),
            kind: FailKind::Interrupted,
            persist: Persist::Everywhere,
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

/// Runs `f` under `catch_unwind`, turning a typed error or a panic into
/// that cell's [`CellFailure`].
fn isolate<T>(f: impl FnOnce() -> Result<T, SpecfetchError>) -> Measured<T> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(e)) => Err(CellFailure::from_error(&e)),
        Err(payload) => Err(CellFailure::from_panic(payload.as_ref())),
    }
}

/// The cell of a point nothing produced an outcome for: unreachable by
/// construction, but a failed cell rather than an unwind.
fn never_simulated() -> GridCell {
    Err(CellFailure::permanent("grid point was never simulated"))
}

/// Streams one finished batch of cells (`--stream`): one `[row] ...`
/// line per grid point, in completion order, delivered through the
/// per-job row sink ([`crate::diag::row`]) — stderr for the CLI, the
/// controller's buffer for service jobs. Stdout — and therefore the
/// golden byte-identity — is untouched.
fn stream_cells(points: &[GridPoint], cells: &[(usize, GridCell)], opts: &RunOptions) {
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

/// Simulates one benchmark under `cfg` for `opts.instrs_per_benchmark`
/// dynamic instructions: a one-point [`run_grid`].
///
/// The correct path is fixed per benchmark (same generator seed, same
/// path seed), so different configurations replay the *same* execution —
/// the property every policy comparison in the paper relies on.
///
/// # Panics
///
/// Panics if the point fails (never expected for the calibrated suite;
/// rendered reports use [`try_run_grid`] and flag the cell instead).
pub fn simulate_benchmark(
    bench: &'static Benchmark,
    cfg: SimConfig,
    opts: RunOptions,
) -> SimResult {
    let mut cells = run_grid(&[GridPoint::new(bench, cfg)], &opts);
    cells.remove(0)
}

/// Simulates every grid point under per-point isolation, returning one
/// [`GridCell`] per point in input order.
///
/// This is the batched multi-config replay the experiments are built on:
/// points are scheduled **grouped by benchmark**, so all configurations
/// that replay the same trace run back-to-back on one worker — the trace
/// is recorded once and stays hot across the whole batch, and the result
/// memo collapses grid points that recur across experiments (every table
/// re-runs the shared baselines).
/// Groups, not points, are the parallel unit; point order within the
/// result is the input order regardless of grouping.
///
/// Every batch goes through one pipeline (DESIGN §5h): `plan_group`
/// prefilters it, `simulate_configs` simulates what is left — in
/// process, or in a `--workers` child — and `settle` records the
/// outcome. The cells are byte-identical at any window, worker count or
/// parallelism.
///
/// Isolation: each point's fault-injection [`fault::guard`] fires first
/// (points are numbered in input order via [`fault::reserve`], so
/// `--inject point=<exp>:<n>,...` is deterministic at any parallelism).
/// A panic or typed error in one point yields that point's
/// `Err(CellFailure)`; every other point still simulates — a panicking
/// lockstep lane costs the points of that configuration while sibling
/// lanes complete.
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
                if f.persist == Persist::Nowhere {
                    continue;
                }
                if let Some(jb) = jbase {
                    journal::record_failed(opts.job, jb + i as u64, attempts[i].max(1), &f.reason);
                }
                if f.persist == Persist::Everywhere {
                    let p = &points[i];
                    store::record_failed(p.benchmark, opts.instrs_per_benchmark, p.cfg, &f.reason);
                }
            }
            None => {}
        }
    }
    supervise::note_outcomes(completed, failed, interrupted);

    out.into_iter().map(|r| r.unwrap_or_else(never_simulated)).collect()
}

/// One benchmark's points of a pass, by grid index.
type Group = (&'static Benchmark, Vec<usize>);

/// Runs one attempt over the `idxs` subset of `points`, filling `out`.
/// Attempt 0 is the full grid; retry passes re-run only their transient
/// failures. Sharded execution (`--workers`) dispatches through the
/// worker pool; otherwise (or when the pool cannot start) the pass runs
/// in-process.
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
    let mut groups: Vec<Group> = Vec::new();
    for &i in idxs {
        let p = &points[i];
        attempts[i] = attempt + 1;
        match groups.iter_mut().find(|(b, _)| std::ptr::eq(*b, p.benchmark)) {
            Some((_, idxs)) => idxs.push(i),
            None => groups.push((p.benchmark, vec![i])),
        }
    }
    // A pool that cannot start (e.g. the executable cannot re-spawn
    // itself) has printed a warning; the pass runs in-process instead.
    let cells = match (opts.workers > 0).then(|| crate::worker::pool(opts)).flatten() {
        Some(pool) => run_pass_sharded(pool, points, groups, base, attempt, opts),
        None => run_pass_inprocess(points, groups, base, attempt, opts),
    };
    for (i, c) in cells {
        out[i] = Some(c);
    }
}

/// Every point of a group that a shutdown request drained before it
/// started.
fn interrupted(idxs: Vec<usize>) -> Vec<(usize, GridCell)> {
    idxs.into_iter().map(|i| (i, Err(CellFailure::interrupted()))).collect()
}

/// The in-process arm of [`run_pass`]: parallel over benchmark groups,
/// each planned, simulated and settled on one thread as lockstep batches
/// (see [`batches`]). A shutdown request drains at group boundaries:
/// groups not yet started are interrupted without simulating.
fn run_pass_inprocess(
    points: &[GridPoint],
    groups: Vec<Group>,
    base: u64,
    attempt: u32,
    opts: &RunOptions,
) -> Vec<(usize, GridCell)> {
    let done = par_map(groups, opts.parallel, |(b, idxs)| {
        if supervise::job_shutdown_requested(opts.job) {
            return interrupted(idxs);
        }
        let mut cells = Vec::new();
        for batch in batches(idxs, base, attempt) {
            let plan = plan_group(b, batch, points, base, attempt, false, opts);
            let cfgs: Vec<SimConfig> = plan.todo.iter().map(|&(cfg, _)| cfg).collect();
            let simulated = simulate_configs(b, opts.instrs_per_benchmark, &cfgs);
            cells.extend(settle(points, plan, simulated, opts));
        }
        cells
    });
    done.into_iter().flatten().collect()
}

/// Splits a group's points into lockstep batches: one batch, except that
/// a batch ends before any point whose planned fault stops the process
/// (`abort`, `hang`, `exitcode` — the faults the sharded arm routes to a
/// child). The points before it are settled, and so persisted, before
/// its guard fires, so a fault that kills the process mid-group loses
/// none of the group's earlier points.
fn batches(idxs: Vec<usize>, base: u64, attempt: u32) -> Vec<Vec<usize>> {
    let mut batches: Vec<Vec<usize>> = Vec::new();
    for i in idxs {
        let stops = fault::peek(base + i as u64, attempt).is_some_and(|a| a.is_process_fault());
        match batches.last_mut() {
            Some(batch) if !stops => batch.push(i),
            _ => batches.push(vec![i]),
        }
    }
    batches
}

/// The sharded arm of [`run_pass`] (`--workers`): each group is planned
/// here in the parent, the configurations left to simulate go to a
/// worker child, and each reply settles here — the parent is the only
/// process that touches the memo and the result store. A shutdown
/// request drains at dispatch: groups not yet dispatched are
/// interrupted, in-flight groups finish normally.
fn run_pass_sharded(
    pool: &crate::worker::WorkerPool,
    points: &[GridPoint],
    groups: Vec<Group>,
    base: u64,
    attempt: u32,
    opts: &RunOptions,
) -> Vec<(usize, GridCell)> {
    let (reply, replies) = mpsc::channel();
    let mut cells = Vec::new();
    let mut in_flight: Vec<Option<GroupPlan>> = Vec::new();
    for (b, idxs) in groups {
        if supervise::job_shutdown_requested(opts.job) {
            cells.extend(interrupted(idxs));
            continue;
        }
        let plan = plan_group(b, idxs, points, base, attempt, true, opts);
        if plan.todo.is_empty() {
            cells.extend(settle(points, plan, Vec::new(), opts));
        } else {
            pool.dispatch(b, plan.todo.clone(), in_flight.len(), opts, reply.clone());
            in_flight.push(Some(plan));
        }
    }
    drop(reply);
    for (group, simulated) in replies {
        if let Some(plan) = in_flight.get_mut(group).and_then(Option::take) {
            cells.extend(settle(points, plan, simulated, opts));
        }
    }
    // A group whose reply never arrived (the pool died) fails its points.
    for plan in in_flight.into_iter().flatten() {
        let lost = Err(CellFailure::permanent("worker pool shut down mid-grid"));
        let simulated = vec![lost; plan.todo.len()];
        cells.extend(settle(points, plan, simulated, opts));
    }
    cells
}

/// One batch of a benchmark group after [`plan_group`].
struct GroupPlan {
    bench: &'static Benchmark,
    /// Cells decided without simulating: a guard or preflight failure,
    /// or a memo / result-store hit.
    decided: Vec<(usize, GridCell)>,
    /// Points whose cell is their configuration's outcome in `todo`.
    waiting: Vec<usize>,
    /// The distinct configurations left to simulate, each with the
    /// process fault routed to the worker child that will run it.
    todo: Vec<(SimConfig, Option<FaultAction>)>,
}

/// The one prefilter every batch passes before it simulates, in order:
///
/// 1. each point's fault guard fires, in input order, so `--inject
///    point=` numbering holds at any parallelism. A sharded pass
///    (`route`) does not fire process faults (`abort`, `hang`,
///    `exitcode`) in the parent; it routes them to the child that will
///    run the point;
/// 2. configurations are deduplicated;
/// 3. memo / result-store hits are resolved BEFORE any image or trace
///    work, so a fully warm batch never generates, verifies, records,
///    decodes or loads anything;
/// 4. the static preflight gates what is left to simulate — a
///    structurally broken image must never reach the engine, and a
///    failure here costs only that cell. A point that joins an
///    already-queued configuration is preflighted too, from the
///    memoized verdict. Preflight gates simulation, not lookup: a hit
///    comes from an image that reached the engine, and is served.
#[allow(clippy::too_many_arguments)]
fn plan_group(
    bench: &'static Benchmark,
    idxs: Vec<usize>,
    points: &[GridPoint],
    base: u64,
    attempt: u32,
    route: bool,
    opts: &RunOptions,
) -> GroupPlan {
    let mut plan = GroupPlan { bench, decided: Vec::new(), waiting: Vec::new(), todo: Vec::new() };
    for i in idxs {
        let fidx = base + i as u64;
        let routed = fault::peek(fidx, attempt).filter(|a| route && a.is_process_fault());
        let cfg = points[i].cfg;
        let queued = plan.todo.iter().position(|(c, _)| *c == cfg);
        // A routed point must reach its child, hit or not.
        if routed.is_none() {
            if let Err(f) = isolate(|| fault::guard(fidx, attempt, opts.point_timeout_secs)) {
                plan.decided.push((i, Err(f)));
                continue;
            }
            let stored = queued
                .is_none()
                .then(|| resolve_stored(bench, opts.instrs_per_benchmark, cfg, opts))
                .flatten();
            if let Some(cell) = stored {
                plan.decided.push((i, cell));
                continue;
            }
            if let Err(f) = isolate(|| crate::analysis::preflight(bench)) {
                plan.decided.push((i, Err(f.journal_only())));
                continue;
            }
        }
        match queued {
            Some(k) => plan.todo[k].1 = plan.todo[k].1.or(routed),
            None => plan.todo.push((cfg, routed)),
        }
        plan.waiting.push(i);
    }
    plan
}

/// The one place a batch's outcome lands. `simulated` holds one cell
/// per configuration of `plan.todo`; each finished result is recorded
/// ([`store::record`]: the memo and the result store). Every point then
/// gets its cell — the plan's decision, or its configuration's outcome —
/// which is streamed (`--stream`) and returned keyed by grid index.
fn settle(
    points: &[GridPoint],
    plan: GroupPlan,
    simulated: Vec<GridCell>,
    opts: &RunOptions,
) -> Vec<(usize, GridCell)> {
    let (bench, instrs) = (plan.bench, opts.instrs_per_benchmark);
    for ((cfg, _), cell) in plan.todo.iter().zip(&simulated) {
        if let Ok(r) = cell {
            store::record(bench, instrs, *cfg, r);
        }
    }
    let mut cells = plan.decided;
    for i in plan.waiting {
        let k = plan.todo.iter().position(|(c, _)| *c == points[i].cfg);
        cells.push((i, k.and_then(|k| simulated.get(k).cloned()).unwrap_or_else(never_simulated)));
    }
    stream_cells(points, &cells, opts);
    cells
}

/// The one executor every grid runs on, in process or in a `--workers`
/// child: fetches `bench`'s shared trace of its first `instrs`
/// instructions and hands it to [`simulate_trace`]. It only computes:
/// [`plan_group`] has already resolved what the memo or the result
/// store holds, and [`settle`] records what this returns. Failing to
/// record the trace fails every configuration.
///
/// An empty batch (the planner resolved every point) records no trace.
pub(crate) fn simulate_configs(
    bench: &Benchmark,
    instrs: u64,
    cfgs: &[SimConfig],
) -> Vec<GridCell> {
    if cfgs.is_empty() {
        return Vec::new();
    }
    match crate::trace_cache::try_predicted_trace(bench, instrs) {
        Ok(trace) => simulate_trace(&trace, cfgs),
        Err(e) => vec![Err(CellFailure::from_error(&e)); cfgs.len()],
    }
}

/// Simulates `trace` under each of `cfgs` as **one config-lockstep
/// batch** (see [`run_lockstep`] and DESIGN §5h), returning one cell per
/// configuration in order. A benchmark's grid group and a trace file's
/// `--explain` point both run here.
///
/// - a panicking lane yields `FAILED(...)` for its configuration while
///   sibling lanes complete;
/// - a configuration the front end rejects fails its cell with the
///   reason [`specfetch_core::Simulator`] panics with.
pub fn simulate_trace(trace: &Arc<PredictedTrace>, cfgs: &[SimConfig]) -> Vec<GridCell> {
    let mut cells: Vec<GridCell> = Vec::with_capacity(cfgs.len());
    let (mut lanes, mut fronts) = (Vec::new(), Vec::new());
    for (k, &cfg) in cfgs.iter().enumerate() {
        match FrontEnd::build(cfg) {
            Ok(fe) => {
                lanes.push(k);
                fronts.push(fe);
                cells.push(never_simulated());
            }
            Err(e) => {
                let reason = format!("invalid simulator configuration: {e}");
                cells.push(Err(CellFailure::permanent(reason)));
            }
        }
    }
    for (k, outcome) in lanes.into_iter().zip(run_lockstep(trace, fronts)) {
        cells[k] = outcome.map_err(|p| CellFailure::from_panic(p.as_ref()));
    }
    cells
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
///
/// # Panics
///
/// Panics like [`run_grid`] if any benchmark fails.
pub fn suite_results(
    opts: &RunOptions,
    cfg_for: impl Fn(&Benchmark) -> SimConfig,
) -> Vec<BenchResult> {
    let points: Vec<GridPoint> =
        Benchmark::all().iter().map(|b| GridPoint::new(b, cfg_for(b))).collect();
    let results = run_grid(&points, opts);
    points
        .iter()
        .zip(results)
        .map(|(p, result)| BenchResult { benchmark: p.benchmark, result })
        .collect()
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
    use specfetch_core::{FetchPolicy, Simulator};
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

    /// The lone-lane reference: `b`'s correct path recorded afresh from
    /// its interpreter and run as a one-lane batch, with no trace cache,
    /// memo or store involved.
    fn reference(b: &Benchmark, cfg: SimConfig, instrs: u64) -> SimResult {
        let workload = b.workload().unwrap();
        Simulator::new(cfg).run(workload.executor(b.path_seed()).take_instrs(instrs))
    }

    #[test]
    fn every_policy_matches_a_lone_lane() {
        let b = Benchmark::by_name("doduc").unwrap();
        let opts = RunOptions::smoke().with_instrs(10_000);
        for policy in FetchPolicy::ALL {
            let cfg = SimConfig { policy, ..SimConfig::paper_baseline() };
            assert_eq!(simulate_benchmark(b, cfg, opts), reference(b, cfg, 10_000), "{policy}");
        }
    }

    #[test]
    fn simulate_configs_matches_lone_lanes() {
        // The window is this test's own.
        const W: u64 = 7_013;
        let b = Benchmark::by_name("li").unwrap();
        let with = |f: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::paper_baseline();
            f(&mut cfg);
            cfg
        };
        let pess = with(|c| c.policy = FetchPolicy::Pessimistic);
        // The executor never reads the memo: seed it with a sentinel no
        // simulation produces, and the point must still simulate.
        let memo_hit = with(|c| c.policy = FetchPolicy::Oracle);
        let sentinel = SimResult { cycles: 1, ..reference(b, memo_hit, W) };
        store::record(b, W, memo_hit, &sentinel);
        // A lane that panics: the fill completion time overflows, which
        // panics under overflow checks and trips the engine's stall
        // watchdog without them.
        let panics = with(|c| c.miss_penalty = u64::MAX);
        // `FrontEnd::build` rejects two sequential prefetchers at once;
        // the cell fails with the reason `Simulator` panics with.
        let rejected = with(|c| {
            c.prefetch = true;
            c.stream_buffer = true;
        });
        let build_error = FrontEnd::build(rejected).err().expect("the front end rejects it");

        // `pess` twice: a duplicate configuration gets a lane of its own.
        let cfgs = [pess, memo_hit, SimConfig::paper_baseline(), panics, rejected, pess];
        let cells = simulate_configs(b, W, &cfgs);
        assert_eq!(cells.len(), cfgs.len());
        for i in [0, 1, 2, 5] {
            assert_eq!(cells[i], Ok(reference(b, cfgs[i], W)), "point {i}");
        }
        // Both failures are the cells the lone lane's panic gives.
        for i in [3, 4] {
            let want = panic::catch_unwind(AssertUnwindSafe(|| reference(b, cfgs[i], W)))
                .map_err(|p| CellFailure::from_panic(p.as_ref()));
            assert_eq!(cells[i], want, "point {i}");
        }
        let failure = cells[4].as_ref().unwrap_err();
        assert_eq!(failure.reason, format!("invalid simulator configuration: {build_error}"));
        assert_eq!(failure.kind, FailKind::Terminal);
    }

    #[test]
    fn the_executor_leaves_the_memo_alone() {
        // Only `settle` records: simulating a cold configuration memoizes
        // nothing. The window is this test's own.
        const W: u64 = 3_011;
        let b = Benchmark::by_name("gcc").unwrap();
        let cfg = SimConfig::paper_baseline();
        assert_eq!(simulate_configs(b, W, &[cfg]), [Ok(reference(b, cfg, W))]);
        assert_eq!(store::memoized(b, W, cfg), None);
        assert!(simulate_configs(b, W, &[]).is_empty());
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
