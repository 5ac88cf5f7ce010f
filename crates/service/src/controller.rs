//! The job controller: a submit queue feeding a bounded pool of driver
//! threads, with per-job journals, buffered row streams, and
//! cancellation that reuses the driver's graceful-drain machinery.
//!
//! The controller is deliberately small: everything about *executing* a
//! job (supervision, retries, the result store, journalling) already
//! lives in the experiments crate; this layer only decides *when* each
//! job runs, tracks its [`JobState`], and keeps what the HTTP layer
//! needs to answer for it afterwards.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use specfetch_experiments::{
    diag, journal, supervise, trace_cache, Driver, DriverOutcome, Format, JobSpec, Progress,
    RunOptions, RunStore,
};
use specfetch_verify::{job_step, JobEvent, JobPhase, Step};

use crate::job::{JobSnapshot, JobState};

/// Locks a mutex, tolerating poisoning: a panicking driver thread must
/// not wedge the whole service (the job it was running is already
/// accounted for by the driver's own panic isolation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How a [`Controller`] runs jobs.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Base run options every job inherits (its own `job` id and the
    /// row stream are layered on top at submit time).
    pub opts: RunOptions,
    /// Report rendering format for every job.
    pub format: Format,
    /// Where per-job journal directories (`job-<id>/`) are created;
    /// `None` runs jobs without journals, exactly like a CLI run with
    /// no `--result-dir`.
    pub journal_root: Option<PathBuf>,
    /// Driver threads — how many jobs may run concurrently.
    pub max_concurrent: usize,
}

/// One job's `[row]` lines, captured from its diagnostics row sink, and
/// whether the buffer is closed (the job is terminal: no more rows will
/// come). Stream readers wait on `changed` for the next row or the close
/// instead of polling.
#[derive(Default)]
struct Rows {
    buf: Mutex<(Vec<String>, bool)>,
    changed: Condvar,
}

impl Rows {
    /// Appends one streamed row and wakes the readers. Called from the
    /// row sink, so the lock is a leaf taken under the diag sink
    /// registry.
    fn push_row(&self, row: &str) {
        lock(&self.buf).0.push(row.to_owned());
        self.changed.notify_all();
    }

    /// Marks the buffer complete and wakes the readers. Idempotent.
    fn close(&self) {
        lock(&self.buf).1 = true;
        self.changed.notify_all();
    }

    fn len(&self) -> usize {
        lock(&self.buf).0.len()
    }

    /// Blocks until there are more than `from` rows or the buffer is
    /// closed, then returns the rows from index `from` on and whether
    /// the buffer is closed.
    fn after(&self, from: usize) -> (Vec<String>, bool) {
        let mut buf = lock(&self.buf);
        while buf.0.len() <= from && !buf.1 {
            buf = match self.changed.wait(buf) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        (buf.0[from.min(buf.0.len())..].to_vec(), buf.1)
    }
}

/// Everything the controller keeps about one job.
struct JobRecord {
    spec: JobSpec,
    opts: RunOptions,
    state: JobState,
    cancel_requested: bool,
    rows: Arc<Rows>,
    /// The rendered reports, newline-terminated exactly as the CLI
    /// prints them. Present once terminal (empty for jobs cancelled
    /// before running).
    result: Option<String>,
    outcome: Option<DriverOutcome>,
    /// Journal progress captured just before the journal detached.
    final_progress: Option<Progress>,
}

struct State {
    queue: VecDeque<u64>,
    /// Job `id` is `jobs[id - 1]`: ids are dense from 1 (job 0 is the
    /// CLI's ambient job) and records are never removed.
    jobs: Vec<JobRecord>,
    /// Jobs claimed by a driver and not yet finished.
    running: usize,
    accepting: bool,
}

impl State {
    fn job(&self, id: u64) -> Option<&JobRecord> {
        self.jobs.get(usize::try_from(id).ok()?.checked_sub(1)?)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut JobRecord> {
        self.jobs.get_mut(usize::try_from(id).ok()?.checked_sub(1)?)
    }
}

/// Applies one lifecycle event to `job` through the model's typed
/// transition function (`verify::job_step`) and returns the resulting
/// state. Every state change the controller makes goes through here —
/// the checked machine IS the shipped lifecycle logic. An event the
/// model leaves undefined is a controller bug: reported loudly, state
/// untouched. Landing in a terminal state closes the job's row buffer,
/// which ends its streams.
fn advance(job: &mut JobRecord, event: &JobEvent) -> JobState {
    let phase = JobPhase { state: job.state, cancel_requested: job.cancel_requested };
    match job_step(&phase, event) {
        Step::Next(next) => {
            job.state = next.state;
            job.cancel_requested = next.cancel_requested;
        }
        Step::Stay => {}
        Step::Unhandled => {
            diag::line(&format!("[controller] illegal transition {:?} -> {event:?}", job.state));
        }
    }
    if job.state.is_terminal() {
        job.rows.close();
    }
    job.state
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    cfg: ControllerConfig,
}

/// The job controller. Cheap to share (`Arc` it for the HTTP layer).
pub struct Controller {
    shared: Arc<Shared>,
    drivers: Mutex<Vec<JoinHandle<()>>>,
}

impl Controller {
    /// Starts a controller with `cfg.max_concurrent` (at least one)
    /// driver threads waiting for work.
    pub fn start(cfg: ControllerConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: Vec::new(),
                running: 0,
                accepting: true,
            }),
            work: Condvar::new(),
            cfg,
        });
        let n = shared.cfg.max_concurrent.max(1);
        let mut drivers = Vec::with_capacity(n);
        for _ in 0..n {
            let shared = Arc::clone(&shared);
            drivers.push(std::thread::spawn(move || driver_loop(&shared)));
        }
        Controller { shared, drivers: Mutex::new(drivers) }
    }

    /// Validates and enqueues a spec, returning the new job id.
    ///
    /// # Errors
    ///
    /// The human-readable rejection: an invalid spec (with a
    /// "did you mean" hint) or a draining controller.
    pub fn submit(&self, spec: JobSpec, instrs: Option<u64>) -> Result<u64, String> {
        spec.validate().map_err(|e| e.to_string())?;
        let mut st = lock(&self.shared.state);
        if !st.accepting {
            return Err("server is draining and accepts no new jobs".to_owned());
        }
        let id = st.jobs.len() as u64 + 1;
        let mut opts = self.shared.cfg.opts.with_job(id).with_stream(true);
        if let Some(n) = instrs {
            opts = opts.with_instrs(n);
        }
        st.jobs.push(JobRecord {
            spec,
            opts,
            state: JobState::Queued,
            cancel_requested: false,
            rows: Arc::default(),
            result: None,
            outcome: None,
            final_progress: None,
        });
        st.queue.push_back(id);
        self.shared.work.notify_one();
        Ok(id)
    }

    /// The job's current status, or `None` for an unknown id.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let st = lock(&self.shared.state);
        let job = st.job(id)?;
        let progress = if job.state.is_terminal() {
            job.final_progress
        } else {
            RunStore::for_job(id).progress()
        };
        Some(JobSnapshot {
            id,
            state: job.state,
            spec: job.spec.describe(),
            progress,
            outcome: job.outcome,
            rows: job.rows.len() as u64,
        })
    }

    /// The job's rendered result. Outer `None`: unknown id; inner
    /// `None`: not terminal yet.
    pub fn result(&self, id: u64) -> Option<Option<String>> {
        let st = lock(&self.shared.state);
        let job = st.job(id)?;
        Some(if job.state.is_terminal() { job.result.clone() } else { None })
    }

    /// Buffered stream rows from index `from` on, plus whether the job
    /// is terminal (no more rows will come). Blocks until there are more
    /// than `from` rows or the job is terminal. `None` for an unknown id.
    pub fn rows_after(&self, id: u64, from: usize) -> Option<(Vec<String>, bool)> {
        let rows = Arc::clone(&lock(&self.shared.state).job(id)?.rows);
        Some(rows.after(from))
    }

    /// Requests cancellation: a queued job goes straight to
    /// `Cancelled`; a running one starts `Draining` (its driver drains
    /// in-flight points and lands on `Cancelled` with the interrupted
    /// points journalled). Idempotent; `None` for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut st = lock(&self.shared.state);
        let job = st.job_mut(id)?;
        let before = job.state;
        let after = advance(job, &JobEvent::Cancel);
        // Side effects ride on the edge taken (Draining-or-terminal
        // cancels are absorbed by the machine: nothing more to do).
        match (before, after) {
            (JobState::Queued, JobState::Cancelled) => job.result = Some(String::new()),
            (JobState::Running, JobState::Draining) => supervise::cancel_job(id),
            _ => {}
        }
        Some(after)
    }

    /// Every known job, newest first (for listing endpoints and tests).
    pub fn snapshot_all(&self) -> Vec<JobSnapshot> {
        let n = lock(&self.shared.state).jobs.len() as u64;
        (1..=n).rev().filter_map(|id| self.status(id)).collect()
    }

    /// Stops intake and blocks until every driver thread has finished
    /// its current job and exited. Queued jobs still run (under a
    /// global shutdown they drain immediately and land on `Cancelled`).
    pub fn drain(&self) {
        {
            let mut st = lock(&self.shared.state);
            st.accepting = false;
        }
        self.shared.work.notify_all();
        let drivers: Vec<JoinHandle<()>> = std::mem::take(&mut *lock(&self.drivers));
        for d in drivers {
            // A driver that panicked already lost its job to the
            // driver-layer panic isolation; nothing to propagate.
            let _ = d.join();
        }
    }
}

/// One driver thread: claim queued jobs until intake stops and the
/// queue is empty.
fn driver_loop(shared: &Arc<Shared>) {
    loop {
        let claimed = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(id) = st.queue.pop_front() {
                    let Some(job) = st.job_mut(id) else { continue };
                    if advance(job, &JobEvent::Dequeue) != JobState::Running {
                        // Cancelled while queued: the machine absorbs
                        // the stale queue entry (already terminal).
                        continue;
                    }
                    let claimed = (id, job.spec.clone(), job.opts, Arc::clone(&job.rows));
                    st.running += 1;
                    break Some(claimed);
                }
                if !st.accepting {
                    break None;
                }
                st = match shared.work.wait(st) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        let Some((id, spec, opts, rows)) = claimed else { return };
        run_job(shared, id, &spec, opts, rows);
    }
}

/// Runs one claimed job start to finish: row sink, journal, driver,
/// terminal bookkeeping.
///
/// The last job of a busy period to finish empties the result memo: it
/// only deduplicates points within a run, and kept across jobs it
/// would grow with every distinct point the server ever simulated.
/// Reuse across jobs is the result store's (`--result-dir`).
fn run_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec, opts: RunOptions, rows: Arc<Rows>) {
    diag::register_row_sink(id, move |row| rows.push_row(row));

    let store = RunStore::for_job(id);
    if let Some(root) = &shared.cfg.journal_root {
        let dir = root.join(format!("job-{id}"));
        match std::fs::create_dir_all(&dir) {
            Err(e) => diag::line(&format!("[job {id}] journal dir {}: {e}", dir.display())),
            Ok(()) => {
                let key = journal::run_key(&spec.describe(), opts.instrs_per_benchmark);
                match store.attach_journal(&dir, key, false) {
                    Ok(path) => diag::line(&format!("[journal] {}", path.display())),
                    Err(e) => diag::line(&format!("[job {id}] journal: {e}")),
                }
            }
        }
    }

    let driver = Driver::new(opts, shared.cfg.format);
    let mut body = String::new();
    let mut events = |text: &str| {
        // Reproduce the CLI's stdout bytes: one report, one newline
        // (what `println!` appends).
        body.push_str(text);
        body.push('\n');
    };
    let outcome = driver.run(spec, &mut events);

    journal::flush();
    let final_progress = store.progress();
    store.detach();
    diag::clear_row_sink(id);

    let mut st = lock(&shared.state);
    if let Some(job) = st.job_mut(id) {
        // The result is in place before the transition closes the row
        // buffer, so a stream that ends can fetch it at once.
        job.result = Some(body);
        job.outcome = Some(outcome);
        job.final_progress = final_progress;
        advance(
            job,
            &JobEvent::Finish { failed: outcome.failed(), interrupted: outcome.interrupted },
        );
    }
    st.running -= 1;
    if st.running == 0 {
        trace_cache::clear_results();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn ci_config() -> ControllerConfig {
        ControllerConfig {
            opts: RunOptions::smoke().with_instrs(2_000),
            format: Format::Plain,
            journal_root: None,
            max_concurrent: 1,
        }
    }

    fn wait_terminal(c: &Controller, id: u64) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let snap = c.status(id).unwrap();
            if snap.state.is_terminal() {
                return snap;
            }
            assert!(Instant::now() < deadline, "job {id} stuck in {:?}", snap.state);
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn jobs_run_to_done_and_results_match_the_driver() {
        let c = Controller::start(ci_config());
        let id = c.submit(JobSpec::Experiment("table2".into()), None).unwrap();
        let snap = wait_terminal(&c, id);
        assert_eq!(snap.state, JobState::Done);
        assert_eq!(snap.spec, "experiment:table2");

        let body = c.result(id).unwrap().expect("terminal job has a result");
        let opts = ci_config().opts.with_job(id).with_stream(true);
        let direct =
            specfetch_experiments::run_experiment("table2", &opts).unwrap().render(Format::Plain);
        assert_eq!(body, format!("{direct}\n"), "result must be the CLI's stdout bytes");
        c.drain();
    }

    #[test]
    fn invalid_specs_are_rejected_at_submit() {
        let c = Controller::start(ci_config());
        let e = c.submit(JobSpec::Experiment("tabel2".into()), None).unwrap_err();
        assert!(e.contains("did you mean"), "{e}");
        assert!(c.status(1).is_none(), "nothing was enqueued");
        c.drain();
    }

    #[test]
    fn queued_jobs_cancel_immediately_and_drain_stops_intake() {
        let c = Controller::start(ci_config());
        // Park a long job so the next one stays queued.
        let long = c.submit(JobSpec::Experiment("table5".into()), Some(50_000)).unwrap();
        let queued = c.submit(JobSpec::Experiment("table2".into()), None).unwrap();
        assert_eq!(c.cancel(queued), Some(JobState::Cancelled));
        assert_eq!(c.status(queued).unwrap().state, JobState::Cancelled);
        assert_eq!(c.result(queued).unwrap().as_deref(), Some(""));
        assert_eq!(c.cancel(queued), Some(JobState::Cancelled), "cancel is idempotent");
        c.cancel(long);
        wait_terminal(&c, long);
        c.drain();
        let e = c.submit(JobSpec::Experiment("table2".into()), None).unwrap_err();
        assert!(e.contains("draining"), "{e}");
        assert!(c.cancel(999).is_none());
    }

    #[test]
    fn cancelling_a_queued_job_ends_its_stream() {
        let c = Arc::new(Controller::start(ci_config()));
        let long = c.submit(JobSpec::Experiment("table5".into()), Some(50_000)).unwrap();
        let queued = c.submit(JobSpec::Experiment("table2".into()), None).unwrap();
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.rows_after(queued, 0))
        };
        // Let the reader block on the empty, open buffer first.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(c.cancel(queued), Some(JobState::Cancelled));
        assert_eq!(reader.join().unwrap(), Some((vec![], true)), "the close wakes the reader");
        // Cancelling `long` would cancel every job 1 in this process
        // (job cancellation is keyed by id), so let it finish.
        wait_terminal(&c, long);
        c.drain();
    }
}
