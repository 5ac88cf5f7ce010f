//! `specfetch-repro`: regenerate the paper's tables and figures, run a
//! user-defined sweep through the same pipeline, explain one
//! configuration in full, or serve experiments and sweeps as jobs over
//! HTTP.
//!
//! ```text
//! specfetch-repro [--experiment <id>|all] [--sweep <spec>] [--explain <spec>]
//!                 [--instrs N]
//!                 [--format plain|markdown|csv] [--sequential]
//!                 [--result-dir <dir>] [--workers N]
//!                 [--retries N] [--point-timeout SECS] [--backoff-ms N]
//!                 [--heartbeat-ms N] [--resume] [--retry-failed]
//!                 [--stream] [--inject <spec>] [--quiet]
//!                 [--list [--json]] [--serve <addr> [--jobs N]]
//! ```
//!
//! Each benchmark's correct path is recorded once into a shared trace,
//! and all of its configurations replay that trace together in
//! config-lockstep batches, at every window size. Finished results are
//! memoised in-process and, with `--result-dir`, persisted across runs.
//!
//! A sweep spec is whitespace-separated `axis=value[,value...]` terms,
//! e.g. `--sweep 'policy=Res,Pess cache=8K,32K penalty=5,20 metric=ispi'`.
//!
//! `--explain` takes the same grammar restricted to one point, with the
//! path from `bench=<name>` or `trace=<file.sft|.sftb>`, and prints that
//! point's full measurement bundle (ISPI components, traffic, the
//! Table 4 miss classification), e.g.
//! `--explain 'bench=li policy=Pess cache=32K prefetch=nl'`.
//!
//! `--serve <addr>` turns the process into a long-running job service
//! (see `specfetch_service::http`): jobs submitted over HTTP run
//! through the exact driver the flags above use, so a job's result body
//! is byte-identical to the CLI's stdout for the same selection.
//!
//! Exit codes: `0` success, `1` one or more grid points or experiments
//! failed (everything else still ran and rendered), `2` usage error
//! (rejected before any experiment runs), `130` interrupted — the first
//! SIGINT/SIGTERM drains in-flight points, flushes the result store and
//! sweep journal, and prints a partial summary; a second signal aborts
//! immediately. In `--serve` mode the first signal stops intake and
//! drains running jobs, then exits `0`. `141` (128+SIGPIPE) means the
//! reader of stdout went away (`| head`): the run flushes its journal
//! and stops without a panic.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::Arc;

use specfetch_core::SimResult;
use specfetch_experiments::fault::FaultPlan;
use specfetch_experiments::sweep::AXES;
use specfetch_experiments::{
    analysis, diag, fault, journal, parse_explain, registry, result_store, simulate_trace,
    supervise, try_run_grid, worker, Driver, ExplainSpec, Format, GridPoint, JobSpec, PathInput,
    RunOptions, EXPERIMENT_IDS, EXTRA_EXPERIMENT_IDS,
};
use specfetch_service::{http, Controller, ControllerConfig};
use specfetch_synth::suite::Benchmark;
use specfetch_trace::read_trace_file;

/// Usage problems abort before any experiment runs.
const EXIT_USAGE: u8 = 2;

/// The conventional 128+SIGINT exit code for an interrupted run.
const EXIT_INTERRUPTED: u8 = 130;

/// The conventional 128+SIGPIPE exit code for a run whose stdout reader
/// went away.
const EXIT_BROKEN_PIPE: u8 = 141;

/// Graceful-shutdown signal handling. This is the only place in the
/// workspace allowed to install process signal handlers (tidy rule 6
/// confines installation to `bin/` crate roots): the first
/// SIGINT/SIGTERM flips the library's cooperative shutdown flag — the
/// runner drains in-flight points, skips the rest, and the exit path
/// flushes store + journal — and the second aborts on the spot.
#[allow(unsafe_code)]
mod signals {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    unsafe extern "C" {
        /// `signal(2)` from the C runtime the binary already links.
        /// Hand-declared because the workspace carries no libc binding;
        /// the handler only touches an atomic and `abort` — both
        /// async-signal-safe.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        if specfetch_experiments::supervise::request_shutdown() >= 2 {
            std::process::abort();
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

struct Args {
    experiment: String,
    sweep: Option<String>,
    explain: Option<ExplainSpec>,
    format: Format,
    opts: RunOptions,
    list: bool,
    json: bool,
    analyze: bool,
    benchmark: Option<String>,
    worker: bool,
    resume: bool,
    serve: Option<String>,
    jobs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment: Option<String> = None;
    let mut sweep: Option<String> = None;
    let mut explain: Option<ExplainSpec> = None;
    let mut format = Format::Plain;
    let mut opts = RunOptions::new();
    let mut list = false;
    let mut json = false;
    let mut analyze = false;
    let mut benchmark: Option<String> = None;
    let mut worker = false;
    let mut resume = false;
    let mut serve: Option<String> = None;
    let mut jobs: Option<usize> = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--experiment" | "-e" => {
                experiment = Some(it.next().ok_or("--experiment needs a value")?);
            }
            "--sweep" | "-s" => {
                sweep = Some(it.next().ok_or("--sweep needs a spec")?);
            }
            // One point of the sweep grammar, printed as the full
            // measurement bundle.
            "--explain" => {
                let v = it.next().ok_or("--explain needs a spec")?;
                explain = Some(parse_explain(&v).map_err(|e| e.to_string())?);
            }
            "--instrs" | "-n" => {
                let v = it.next().ok_or("--instrs needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --instrs value {v:?}"))?;
                if n == 0 {
                    return Err("--instrs must be positive".into());
                }
                opts = opts.with_instrs(n);
            }
            "--format" | "-f" => {
                let v = it.next().ok_or("--format needs a value")?;
                format = Format::parse(&v).ok_or(format!("unknown format {v:?}"))?;
            }
            "--sequential" => opts.parallel = false,
            // Persist finished grid-point results across processes (see
            // DESIGN §5i): a second run over the same store renders from
            // disk, and an interrupted sweep resumes where it stopped.
            "--result-dir" => {
                let v = it.next().ok_or("--result-dir needs a value")?;
                result_store::set_dir(v.into()).map_err(|e| e.to_string())?;
            }
            // Shard grid execution across N child worker processes.
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --workers value {v:?}"))?;
                opts = opts.with_workers(n);
            }
            // Child-process protocol mode (spawned by --workers; not for
            // interactive use).
            "--worker" => worker = true,
            // Re-dispatch transiently failed points (worker death,
            // timeout, injected err) up to N more times, with seeded
            // exponential backoff between passes.
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --retries value {v:?}"))?;
                opts = opts.with_retries(n);
            }
            // Per-point deadline in seconds (0 = off). A worker group
            // gets deadline × group-size before its child is killed and
            // the points retried; in-process runs check it cooperatively.
            "--point-timeout" => {
                let v = it.next().ok_or("--point-timeout needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --point-timeout value {v:?}"))?;
                opts = opts.with_point_timeout(n);
            }
            // Base delay of the exponential retry backoff.
            "--backoff-ms" => {
                let v = it.next().ok_or("--backoff-ms needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --backoff-ms value {v:?}"))?;
                opts = opts.with_backoff_ms(n);
            }
            // Heartbeat silence tolerated before a worker child is
            // declared hung, killed, and replaced. Children beat every
            // ~100ms, so a window below that would declare every healthy
            // child hung and loop kill/respawn forever.
            "--heartbeat-ms" => {
                let v = it.next().ok_or("--heartbeat-ms needs a value")?;
                let n: u64 = v.parse().map_err(|_| format!("bad --heartbeat-ms value {v:?}"))?;
                let min = 2 * worker::HEARTBEAT_INTERVAL_MS;
                if n < min {
                    return Err(format!(
                        "--heartbeat-ms must be at least {min} (workers heartbeat every \
                         {}ms)",
                        worker::HEARTBEAT_INTERVAL_MS
                    ));
                }
                opts = opts.with_heartbeat_ms(n);
            }
            // Resume an interrupted run: replay the sweep journal (and
            // result store) instead of truncating it, so completed AND
            // failed points render without recomputation.
            "--resume" => resume = true,
            // Recompute negatively cached points instead of replaying
            // their stored FAILED(...) cells.
            "--retry-failed" => opts = opts.with_retry_failed(true),
            // Print one [row] line to stderr per grid point as it
            // finishes; stdout is unchanged.
            "--stream" => opts = opts.with_stream(true),
            // Deterministic fault injection, e.g.
            //   --inject point=table3:2,panic
            //   --inject 'point=table4:1,err;chaos=50@7,panic'
            "--inject" => {
                let v = it.next().ok_or("--inject needs a value")?;
                let plan = FaultPlan::parse(&v).map_err(|e| e.to_string())?;
                fault::install(plan).map_err(|e| e.to_string())?;
            }
            // Static CFG analysis of the generated programs, no
            // simulation: exit 0 when every image verifies clean, 1 with
            // typed diagnostics otherwise.
            "--analyze" => analyze = true,
            "--benchmark" | "-b" => {
                benchmark = Some(it.next().ok_or("--benchmark needs a name")?);
            }
            // Deliberately corrupt one branch target of the named
            // benchmark's image before analysis — exercises the failure
            // paths (typed diagnostics, FAILED(analysis: ...) cells) end
            // to end.
            "--corrupt-target" => {
                let v = it.next().ok_or("--corrupt-target needs a benchmark name")?;
                analysis::set_corrupt_target(&v).map_err(|e| e.to_string())?;
            }
            "--list" => list = true,
            // Machine-readable output where supported (--list).
            "--json" => json = true,
            // Suppress status chatter on stderr ([journal],
            // [result-store], timing lines). Reports, [row] streams and
            // errors still print.
            "--quiet" => diag::set_quiet(true),
            // Long-running job service: submit experiments and sweeps
            // over HTTP instead of flags (see DESIGN §5k).
            "--serve" => {
                serve = Some(it.next().ok_or("--serve needs an address (host:port)")?);
            }
            // How many submitted jobs may run concurrently (--serve).
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs value {v:?}"))?;
                if n == 0 {
                    return Err("--jobs must be positive".into());
                }
                jobs = Some(n);
            }
            "--help" | "-h" => {
                emit(
                    "usage: specfetch-repro [--experiment <id>|all] [--sweep <spec>] \
                     [--explain <spec>] [--analyze [--benchmark <name>]] [--instrs N] \
                     [--format plain|markdown|csv] [--sequential] [--result-dir <dir>] \
                     [--workers N] [--retries N] [--point-timeout SECS] \
                     [--backoff-ms N] [--heartbeat-ms N] [--resume] [--retry-failed] \
                     [--stream] [--quiet] \
                     [--inject <spec>] [--corrupt-target <name>] [--list [--json]] \
                     [--serve <addr> [--jobs N]]",
                );
                emit(&format!("experiments: all {}", EXPERIMENT_IDS.join(" ")));
                emit(&format!("extras:      extras {}", EXTRA_EXPERIMENT_IDS.join(" ")));
                emit(
                    "sweep spec:  whitespace-separated axis=value[,value...] terms; the \
                     configuration axes cross-multiply",
                );
                for (name, values) in AXES {
                    emit(&format!("  {name:<10} {values}"));
                }
                emit(&format!("  {:<10} projection: ispi, miss, traffic, cycles, ipc", "metric"));
                emit(
                    "explain:     one point of the sweep grammar (one value per axis, no \
                     metric) from bench=<name> or trace=<file.sft|.sftb>",
                );
                emit(
                    "inject spec: point=<experiment>:<n>,<action>[*<k>] or \
                     chaos=<permille>@<seed>,<action>[*<k>] or soak=<permille>@<seed>; \
                     ';'-separated; actions: panic err slow abort hang exitcode=<n>; \
                     *<k> limits the fault to the first k attempts",
                );
                emit(
                    "serve:       POST /jobs, GET /jobs/<id>[/result|/stream], \
                     DELETE /jobs/<id>, GET /experiments",
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if sweep.is_some() && experiment.is_some() {
        return Err("--sweep and --experiment are mutually exclusive".into());
    }
    if analyze && (sweep.is_some() || experiment.is_some()) {
        return Err("--analyze and --experiment/--sweep are mutually exclusive".into());
    }
    if let Some(name) = &benchmark {
        if !analyze {
            return Err("--benchmark only applies to --analyze".into());
        }
        if Benchmark::by_name(name).is_none() {
            let names: Vec<&str> = Benchmark::all().iter().map(|b| b.name).collect();
            return Err(format!("unknown benchmark {name:?} (valid names: {})", names.join(" ")));
        }
    }
    if worker && (sweep.is_some() || experiment.is_some() || analyze || list || serve.is_some()) {
        return Err("--worker is a child-process mode and takes no experiment selection".into());
    }
    if serve.is_some() && (sweep.is_some() || experiment.is_some() || analyze || list) {
        return Err("--serve runs jobs submitted over HTTP and takes no selection flags".into());
    }
    if serve.is_some() && resume {
        return Err("--resume applies to a single run; served jobs journal per job".into());
    }
    if explain.is_some()
        && (sweep.is_some()
            || experiment.is_some()
            || analyze
            || list
            || worker
            || serve.is_some()
            || resume)
    {
        return Err("--explain runs one point and takes no other selection, --serve or \
                    --resume"
            .into());
    }
    if json && !list {
        return Err("--json only applies to --list".into());
    }
    if jobs.is_some() && serve.is_none() {
        return Err("--jobs only applies to --serve".into());
    }
    if resume && result_store::dir().is_none() {
        return Err("--resume needs --result-dir (the journal lives in the store)".into());
    }
    Ok(Args {
        experiment: experiment.unwrap_or_else(|| "all".to_owned()),
        sweep,
        explain,
        format,
        opts,
        list,
        json,
        analyze,
        benchmark,
        worker,
        resume,
        serve,
        jobs,
    })
}

/// Prints the result-store hit/store counters once per process (via the
/// stderr diagnostics sink, so `--quiet` can silence them), letting
/// resume tests — and humans — see how much work the store saved. Grid
/// points and Table 2's path entries are counted on separate lines.
fn report_store_stats() {
    if result_store::dir().is_some() {
        let (hits, stores) = result_store::stats();
        diag::line(&format!("[result-store] hits={hits} stores={stores}"));
        let (hits, stores) = result_store::path_stats();
        diag::line(&format!("[path-store] hits={hits} stores={stores}"));
    }
}

/// Prints one report and a newline to stdout; every stdout write of
/// this binary goes through here. When the reader has gone away (`|
/// head`), the run flushes its journal, as an interrupted run does, and
/// exits 141 instead of panicking.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    match writeln!(out, "{text}").and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {
            journal::flush();
            std::process::exit(i32::from(EXIT_BROKEN_PIPE));
        }
        Err(e) => {
            eprintln!("error: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// When a graceful shutdown was requested mid-run: flush the journal,
/// print the partial-progress summary, and exit 130. `None` otherwise.
fn interrupted_exit() -> Option<ExitCode> {
    if !supervise::shutdown_requested() {
        return None;
    }
    journal::flush();
    let (completed, failed, interrupted) = supervise::outcome_counts();
    eprintln!(
        "specfetch-repro: interrupted — {completed} point(s) completed, {failed} failed, \
         {interrupted} interrupted; finished work is in the result store and journal \
         (re-run with --resume to pick up where this stopped)"
    );
    Some(ExitCode::from(EXIT_INTERRUPTED))
}

/// Activates the crash-exact sweep journal inside the result store for
/// this run, either fresh or in `--resume` replay mode. The key is the
/// job's own description plus the instruction budget — the key a served
/// job uses too. The CLI runs as the ambient job 0.
fn activate_journal(args: &Args, spec: &JobSpec) -> Result<(), ExitCode> {
    let Some(dir) = result_store::dir() else { return Ok(()) };
    let key = journal::run_key(&spec.describe(), args.opts.instrs_per_benchmark);
    match journal::activate(dir, key, args.resume) {
        Ok(path) => {
            diag::line(&format!("[journal] {}", path.display()));
            Ok(())
        }
        Err(e) => {
            eprintln!("error: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Worker protocol mode: serve grid groups over stdin/stdout until
    // the parent closes the pipe. Never prints reports.
    if args.worker {
        return worker::child_loop();
    }

    if args.list {
        if args.json {
            emit(&registry::render_listing_json());
        } else {
            for id in EXPERIMENT_IDS.iter().chain(EXTRA_EXPERIMENT_IDS.iter()) {
                emit(id);
            }
        }
        return ExitCode::SUCCESS;
    }

    // Static analysis mode: verify the generated images and print one
    // row per benchmark — no simulation runs at all.
    if args.analyze {
        let results = match args.benchmark.as_deref().and_then(Benchmark::by_name) {
            Some(b) => vec![(b, analysis::analyze_benchmark(b))],
            None => analysis::analyze_all(),
        };
        emit(&analysis::render_analysis(&results, args.format));
        let mut failed = 0usize;
        for (b, outcome) in &results {
            match outcome {
                Ok(r) if r.is_ok() => {}
                Ok(r) => {
                    failed += 1;
                    for issue in r.issues.iter().take(8) {
                        eprintln!("error: {}: {issue}", b.name);
                    }
                    if r.issues.len() > 8 {
                        eprintln!("error: {}: ... and {} more", b.name, r.issues.len() - 8);
                    }
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("error: {e}");
                }
            }
        }
        if failed > 0 {
            eprintln!("specfetch-repro: {failed} benchmark(s) failed static analysis");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Everything from here on simulates, possibly for a long time:
    // the first SIGINT/SIGTERM drains instead of killing.
    signals::install();

    // Service mode: a controller of bounded concurrent drivers behind a
    // std::net HTTP front end. Journals go per job under
    // <result-dir>/jobs/job-<id>/; the first signal stops intake,
    // drains running jobs, and exits 0.
    if let Some(addr) = &args.serve {
        let controller = Arc::new(Controller::start(ControllerConfig {
            opts: args.opts,
            format: args.format,
            journal_root: result_store::dir().map(|d| d.join("jobs")),
            max_concurrent: args.jobs.unwrap_or(1),
        }));
        return match http::serve(addr, &controller) {
            Ok(()) => {
                report_store_stats();
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if let Some(spec) = &args.explain {
        return explain(spec, &args.opts);
    }

    // A user-defined sweep runs through the same scenario pipeline as
    // the paper experiments: shared trace cache, result memo, per-point
    // fault isolation, and the same `--inject point=sweep:N` numbering.
    // The driver owns execution; this binary prints the report and maps
    // the outcome to an exit code.
    if let Some(raw) = &args.sweep {
        let spec = JobSpec::Sweep(raw.clone());
        if let Err(e) = spec.validate() {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
        // The spec parsed; only now touch (or replay) the journal.
        if let Err(code) = activate_journal(&args, &spec) {
            return code;
        }
        let outcome = Driver::new(args.opts, args.format).run(&spec, &mut |text: &str| emit(text));
        report_store_stats();
        if let Some(code) = interrupted_exit() {
            return code;
        }
        if outcome.failed_cells > 0 {
            eprintln!(
                "specfetch-repro: {} failed cell(s), 0 failed experiment(s)",
                outcome.failed_cells
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let spec = JobSpec::Experiment(args.experiment.clone());
    // Reject unknown ids up front — a typo should fail fast, not after
    // an hour of simulation.
    if spec.validate().is_err() {
        eprintln!("error: unknown experiment {:?}", args.experiment);
        eprintln!("valid ids: all extras {}", EXPERIMENT_IDS.join(" "));
        eprintln!("           {}", EXTRA_EXPERIMENT_IDS.join(" "));
        return ExitCode::from(EXIT_USAGE);
    }
    if let Err(code) = activate_journal(&args, &spec) {
        return code;
    }

    // Failures no longer stop the run: every experiment executes, failed
    // grid points render as FAILED(...) cells, and the exit code
    // summarises at the end.
    let outcome = Driver::new(args.opts, args.format).run(&spec, &mut |text: &str| emit(text));
    report_store_stats();
    if let Some(code) = interrupted_exit() {
        return code;
    }
    if outcome.failed() {
        eprintln!(
            "specfetch-repro: {} failed cell(s), {} failed experiment(s)",
            outcome.failed_cells, outcome.failed_experiments
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--explain`: simulates one point and prints its measurement bundle.
/// A benchmark point is a one-cell grid, so it shares the memo, the
/// result store and the worker pool with sweep cells and matches the
/// sweep cell of the same configuration. A trace file's point runs on
/// the same lockstep executor, over the file read straight into a
/// shared trace of at most `--instrs` instructions.
fn explain(spec: &ExplainSpec, opts: &RunOptions) -> ExitCode {
    let result = match &spec.input {
        PathInput::Bench(bench) => {
            fault::begin_experiment("explain");
            let cell = try_run_grid(&[GridPoint::new(bench, spec.cfg)], opts).remove(0);
            report_store_stats();
            if let Some(code) = interrupted_exit() {
                return code;
            }
            match cell {
                Ok(r) => r,
                Err(f) => {
                    eprintln!("error: {}: {}", bench.name, f.cell());
                    return ExitCode::FAILURE;
                }
            }
        }
        PathInput::Trace(path) => match read_trace_file(path, opts.instrs_per_benchmark) {
            Ok(trace) => match simulate_trace(&Arc::new(trace), &[spec.cfg]).remove(0) {
                Ok(r) => r,
                Err(f) => {
                    eprintln!("error: {}: {}", path.display(), f.cell());
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    emit(&bundle(&result));
    ExitCode::SUCCESS
}

/// The measurement bundle of one point, one `label: value` line per
/// measure.
fn bundle(r: &SimResult) -> String {
    let mut lines = vec![
        format!("policy:        {}", r.policy),
        format!("instructions:  {}", r.correct_instrs),
        format!("cycles:        {}", r.cycles),
        format!(
            "IPC:           {:.3} (of {} wide)",
            r.correct_instrs as f64 / r.cycles.max(1) as f64,
            r.issue_width
        ),
        format!("ISPI:          {:.4}", r.ispi()),
    ];
    for (label, slots) in r.lost.components() {
        lines.push(format!("  {label:<14} {:.4}", r.ispi_component(slots)));
    }
    lines.push(format!("miss rate:     {:.2}% correct-path", r.miss_rate_pct()));
    lines.push(format!(
        "branch events: {} misfetch, {} mispredict, {} target-mispredict",
        r.misfetches, r.mispredicts, r.target_mispredicts
    ));
    lines.push(format!("bpred:         {}", r.bpred));
    lines.push(format!(
        "traffic:       {} fills ({} correct, {} wrong, {} prefetch, {} target)",
        r.total_traffic(),
        r.traffic_demand_correct,
        r.traffic_demand_wrong,
        r.traffic_prefetch,
        r.traffic_target_prefetch
    ));
    if let Some(c) = &r.classification {
        lines.push(format!("classification: {c}"));
    }
    lines.join("\n")
}
