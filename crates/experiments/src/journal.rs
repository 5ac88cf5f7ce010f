//! The crash-exact sweep journal: an append-only, checksummed
//! write-ahead log of grid-point lifecycle events (DESIGN §5j).
//!
//! The result store holds each point's outcome — a result, or a
//! terminal failure as a negative entry — but not the run around it.
//! The journal records that run: which points it scheduled, how many
//! attempts each took, which failed (with verbatim reasons) and which
//! were interrupted mid-flight. A killed or SIGINT'd sweep rerun with
//! `--resume` renders the identical table: completed points come back
//! as result-store hits, terminal failures replay from the journal
//! (attempt counts included) without recomputing, and only interrupted
//! / never-started points are simulated. The journal's lifecycle
//! counters are also a running job's [`Progress`].
//!
//! # File format
//!
//! One journal per run at `<result-dir>/journal/run-<key>.wal`, where
//! `<key>` hashes the run's selection (experiments or sweep spec), its
//! instruction window and the installed `--corrupt-target` hook — a
//! resume must describe the same run to find the same journal. Every
//! line is one sealed [`crate::codec`] record, so torn tail writes from
//! a crash are detected and dropped (crash-exactness) while interior
//! corruption is reported. The first record is the header; each later
//! one is a grid-point event whose `kind` is the model's event tag:
//!
//! ```text
//! kind=journal format=2 run=<key>                                  header
//! kind=s exp=<experiment> idx=<i> bench=<b> instrs=<n> cfg=<hash>  scheduled
//! kind=a exp=<experiment> idx=<i> attempt=<n>                      attempt started
//! kind=c exp=<experiment> idx=<i>                                  completed OK
//! kind=f exp=<experiment> idx=<i> attempts=<n> reason=<text>       terminal failure
//! kind=i exp=<experiment> idx=<i>                                  interrupted
//! ```
//!
//! (each line ends in the record's `sum=` checksum token). Events
//! append with an explicit flush (write-ahead semantics). Indices
//! restart at 0 per experiment (mirroring `fault`'s input-order
//! numbering), so replay keys are `(experiment, idx)`.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use specfetch_core::{fnv1a, SpecfetchError};
use specfetch_verify::{
    event_tag, parse_tag, point_step, replay_of, replay_step, Counters, PointEvent, PointState,
    ReplayClass, Step,
};

use crate::codec::{bad, Fields, Record};

/// Bumped when the line grammar changes incompatibly.
pub const FORMAT_VERSION: u32 = 2;

/// What a loaded journal says about a grid point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Replayed {
    /// The point completed; the result store has (or had) its result.
    Completed,
    /// The point failed terminally after `attempts` tries.
    Failed {
        /// Total attempts made (first run + retries).
        attempts: u32,
        /// The verbatim `FAILED(...)` reason.
        reason: String,
    },
    /// The point was scheduled/started but never reached a terminal
    /// state (crash or shutdown mid-flight).
    Pending,
}

struct Active {
    file: File,
    /// Terminal outcomes loaded from a `--resume` replay.
    replay: HashMap<(String, u64), Replayed>,
    /// The experiment currently being journalled.
    experiment: String,
    /// Next point index within `experiment` (input order).
    next_point: u64,
    /// Writer-side lifecycle state per point recorded by *this* process
    /// run, dispatched through `verify::point_step` — an event order
    /// the model calls illegal is reported (see [`transition`]).
    points: HashMap<(String, u64), PointState>,
    /// Lifecycle counters for [`progress`]: events recorded by *this*
    /// process run (replayed history is not re-counted).
    counters: Counters,
}

/// Active journals, keyed by job id. Job `0` is the CLI's ambient job;
/// the service controller activates one journal per submitted job so
/// concurrent jobs log (and count) independently.
static STATE: OnceLock<Mutex<HashMap<u64, Active>>> = OnceLock::new();

fn state() -> &'static Mutex<HashMap<u64, Active>> {
    STATE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn io_err(context: &str, source: std::io::Error) -> SpecfetchError {
    SpecfetchError::Io { context: context.to_owned(), source }
}

/// The header record every journal opens with.
fn header(run_key: u64) -> String {
    let run = format!("{run_key:016x}");
    Record::new("journal").u64("format", FORMAT_VERSION.into()).str("run", &run).seal()
}

/// One journalled event as [`load`] decodes it: the point's key, the
/// event, and a terminal failure's `(attempts, reason)`.
type Logged = ((String, u64), PointEvent, Option<(u32, String)>);

/// Decodes one verified event record, every field exactly once.
fn decode_event(mut f: Fields<'_>) -> Result<Logged, SpecfetchError> {
    let tag = f.take("kind")?;
    let event = parse_tag(tag).ok_or_else(|| bad(format!("unknown journal event {tag:?}")))?;
    let key = (f.take_str("exp")?, f.take_u64("idx")?);
    // Fields replay has no use for are still taken, so that `finish`
    // rejects only keys the writer never writes.
    let unused: &[&str] = match event {
        PointEvent::Schedule => &["bench", "instrs", "cfg"],
        PointEvent::Attempt => &["attempt"],
        _ => &[],
    };
    for key in unused {
        f.take(key)?;
    }
    let failure = match event {
        PointEvent::Fail => {
            let attempts = u32::try_from(f.take_u64("attempts")?)
                .map_err(|_| bad("attempt count overflows".to_owned()))?;
            Some((attempts, f.take_str("reason")?))
        }
        _ => None,
    };
    f.finish()?;
    Ok((key, event, failure))
}

/// The journal path a run key maps to under `dir`.
pub fn path_for(dir: &Path, run_key: u64) -> PathBuf {
    dir.join("journal").join(format!("run-{run_key:016x}.wal"))
}

/// Hashes a run description (experiment selection or sweep spec, plus
/// the instruction window) into the journal's run key. A `--resume`
/// invocation must describe the same run to replay the same journal.
///
/// The installed `--corrupt-target` hook is part of the run: the journal
/// keeps the preflight failures it causes, so a run without the hook
/// must not replay them, and one that keeps it does.
pub fn run_key(description: &str, instrs: u64) -> u64 {
    match crate::analysis::corrupt_target() {
        Some(bench) => fnv1a(format!("{description}@{instrs} corrupt={bench}").as_bytes()),
        None => fnv1a(format!("{description}@{instrs}").as_bytes()),
    }
}

/// Folds loaded journal events into the replay map through the model's
/// lenient reader-side projection (`verify::replay_step`) — total over
/// any prefix a crash can leave, with last-terminal-wins semantics.
/// Failure details (attempt count, verbatim reason) ride alongside the
/// fold and are attached to points that finish in the `Failed` class.
fn replay_events(events: Vec<Logged>) -> HashMap<(String, u64), Replayed> {
    let mut states: HashMap<(String, u64), PointState> = HashMap::new();
    let mut failures: HashMap<(String, u64), (u32, String)> = HashMap::new();
    for (key, event, failure) in events {
        if let Some(failure) = failure {
            failures.insert(key.clone(), failure);
        }
        let state = states.entry(key).or_insert(PointState::Unscheduled);
        *state = replay_step(*state, &event);
    }
    states
        .into_iter()
        .filter_map(|(key, state)| {
            let replayed = match replay_of(state)? {
                ReplayClass::Pending => Replayed::Pending,
                ReplayClass::Completed => Replayed::Completed,
                ReplayClass::Failed => {
                    let (attempts, reason) = failures
                        .remove(&key)
                        .unwrap_or_else(|| (1, "unrecorded failure".to_owned()));
                    Replayed::Failed { attempts, reason }
                }
            };
            Some((key, replayed))
        })
        .collect()
}

/// Reads an existing journal, tolerating a torn final line (the crash
/// case) but rejecting interior corruption and a missing or foreign
/// header. Returns the decoded events plus the byte length of the valid
/// prefix — everything past it is the torn tail, which a resume
/// truncates away before appending (an append onto a torn tail would
/// weld the next record to the partial line and turn a tolerated crash
/// artifact into interior corruption). A verified record that does not
/// decode as an event is skipped, like any event the model ignores.
fn load(path: &Path) -> Result<(Vec<Logged>, u64), SpecfetchError> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| io_err("read journal", e))?;
    let no_header = || bad(format!("journal {} has no valid header", path.display()));
    let chunks: Vec<&str> = text.split_inclusive('\n').collect();
    let mut events = Vec::with_capacity(chunks.len());
    let mut valid_len = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        // A chunk without its terminator is a write that never finished
        // — torn even when the checksum happens to verify.
        let verified = Fields::unseal(chunk.trim_end_matches(['\n', '\r']))
            .ok()
            .filter(|_| chunk.ends_with('\n'));
        match verified {
            Some(mut f) if i == 0 => {
                let format = u64::from(FORMAT_VERSION);
                if f.take("kind").unwrap_or_default() != "journal"
                    || f.take_u64("format").ok() != Some(format)
                {
                    return Err(no_header());
                }
            }
            Some(f) => events.extend(decode_event(f).ok()),
            None if i + 1 == chunks.len() => {
                // A torn tail is exactly what a WAL expects after a
                // crash: the event never fully happened. Drop it.
                crate::diag::line(&format!(
                    "[journal] dropping torn final line of {}",
                    path.display()
                ));
                break;
            }
            None if i == 0 => return Err(no_header()),
            None => {
                return Err(bad(format!(
                    "journal {} is corrupt at line {} (bad checksum)",
                    path.display(),
                    i + 1
                )));
            }
        }
        valid_len += chunk.len() as u64;
    }
    if valid_len == 0 {
        return Err(no_header());
    }
    Ok((events, valid_len))
}

/// Opens (or, with `resume`, replays) the journal for `run_key` under
/// `dir` and activates journalling for the CLI's ambient job (job `0`).
/// Worker children and in-process test runs never activate it, so all
/// journal calls below are no-ops for them.
///
/// # Errors
///
/// [`SpecfetchError::Io`] when the directory or file cannot be created;
/// [`SpecfetchError::InvalidSpec`] for interior corruption, a bad
/// header, or a double activation.
pub fn activate(dir: &Path, run_key: u64, resume: bool) -> Result<PathBuf, SpecfetchError> {
    activate_job(0, dir, run_key, resume)
}

/// Opens (or, with `resume`, replays) the journal for `run_key` under
/// `dir` and activates journalling for `job`. Jobs journal
/// independently: the service controller gives every submitted job its
/// own id and directory, while the CLI activates job `0` once.
///
/// # Errors
///
/// Same as [`activate`], plus a double activation *of the same job*.
pub fn activate_job(
    job: u64,
    dir: &Path,
    run_key: u64,
    resume: bool,
) -> Result<PathBuf, SpecfetchError> {
    let path = path_for(dir, run_key);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| io_err("create journal dir", e))?;
    }
    let mut replay = HashMap::new();
    let mut valid_len = 0u64;
    if resume && path.metadata().is_ok_and(|m| m.len() > 0) {
        let (events, len) = load(&path)?;
        replay = replay_events(events);
        valid_len = len;
    }
    let mut file = OpenOptions::new()
        .create(true)
        .append(resume)
        .truncate(!resume)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("open journal", e))?;
    // Chop any torn tail off before the first append: `load` tolerated
    // it, but appending after it would weld the next record onto the
    // partial line and brick the *next* resume with a checksum error.
    if resume && file.metadata().is_ok_and(|m| m.len() > valid_len) {
        file.set_len(valid_len).map_err(|e| io_err("truncate torn journal tail", e))?;
    }
    // The header goes into every journal that doesn't have one yet —
    // a truncated fresh run, but also a first invocation that happened
    // to pass `--resume` (nothing to replay, but the file must still be
    // loadable by the next resume).
    if file.metadata().map_or(true, |m| m.len() == 0) {
        file.write_all(header(run_key).as_bytes()).map_err(|e| io_err("write journal", e))?;
        file.flush().map_err(|e| io_err("flush journal", e))?;
    }
    let active = Active {
        file,
        replay,
        experiment: String::new(),
        next_point: 0,
        points: HashMap::new(),
        counters: Counters::default(),
    };
    let mut jobs = state().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if jobs.contains_key(&job) {
        return Err(SpecfetchError::InvalidSpec { detail: "journal already active".to_owned() });
    }
    jobs.insert(job, active);
    Ok(path)
}

/// Flushes and deactivates `job`'s journal (the controller's cleanup
/// once a job reaches a terminal state). A no-op for inactive jobs.
pub fn release(job: u64) {
    let mut jobs = state().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(mut active) = jobs.remove(&job) {
        let _ = active.file.flush();
    }
}

fn with_job<R>(job: u64, f: impl FnOnce(&mut Active) -> R) -> Option<R> {
    let mut jobs = state().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    jobs.get_mut(&job).map(f)
}

fn append(job: u64, record: Record) {
    with_job(job, |s| {
        // WAL semantics: the event is on disk before the runner moves
        // on. Failure to journal is loud but not fatal — the sweep's
        // results still land in the store.
        let line = record.seal();
        if let Err(e) = s.file.write_all(line.as_bytes()).and_then(|()| s.file.flush()) {
            crate::diag::line(&format!("[journal] append failed: {e}"));
        }
    });
}

/// Resets `job`'s per-experiment point counter (mirrors
/// [`crate::fault::begin_experiment`]).
pub fn begin_experiment(job: u64, id: &str) {
    with_job(job, |s| {
        s.experiment = id.to_owned();
        s.next_point = 0;
        // Indices restart per experiment, so lifecycle tracking does
        // too (a re-selected experiment is a fresh grid, not a replay).
        s.points.retain(|(exp, _), _| exp != id);
    });
}

/// Dispatches one lifecycle event for point `idx` of `job`'s current
/// experiment through the model's strict writer-side transition
/// function and folds it into the Progress counters. Returns the event
/// record's leading fields (tag, experiment, index) for the caller to
/// complete and append; `None` when `job` has no active journal.
///
/// An event order `verify::point_step` calls illegal is a runner bug:
/// it is reported loudly on the diagnostics stream (and still
/// journalled — the lenient reader absorbs it on replay) rather than
/// taking the sweep down.
fn transition(job: u64, idx: u64, event: PointEvent) -> Option<Record> {
    with_job(job, |s| {
        let key = (s.experiment.clone(), idx);
        let state = s.points.entry(key).or_insert(PointState::Unscheduled);
        match point_step(state, &event) {
            Step::Next(next) => *state = next,
            Step::Stay => {}
            Step::Unhandled => crate::diag::line(&format!(
                "[journal] illegal transition {state:?} -> {event:?} for point {idx}"
            )),
        }
        s.counters.apply(&event);
        Record::new(event_tag(&event)).str("exp", &s.experiment).u64("idx", idx)
    })
}

/// Claims `n` consecutive journal indices for a grid about to run,
/// returning the base index; `None` when `job` has no active journal.
pub(crate) fn reserve(job: u64, n: usize) -> Option<u64> {
    with_job(job, |s| {
        let base = s.next_point;
        s.next_point += n as u64;
        base
    })
}

/// Journals one scheduled grid point.
pub(crate) fn record_scheduled(job: u64, idx: u64, bench: &str, instrs: u64, cfg_hash: u64) {
    if let Some(rec) = transition(job, idx, PointEvent::Schedule) {
        let cfg = format!("{cfg_hash:016x}");
        append(job, rec.str("bench", bench).u64("instrs", instrs).str("cfg", &cfg));
    }
}

/// Journals the start of `attempt` (0-based) on a point.
pub(crate) fn record_attempt(job: u64, idx: u64, attempt: u32) {
    if let Some(rec) = transition(job, idx, PointEvent::Attempt) {
        append(job, rec.u64("attempt", attempt.into()));
    }
}

/// Journals a completed point.
pub(crate) fn record_completed(job: u64, idx: u64) {
    if let Some(rec) = transition(job, idx, PointEvent::Complete) {
        append(job, rec);
    }
}

/// Journals a terminal failure with its total attempt count.
pub(crate) fn record_failed(job: u64, idx: u64, attempts: u32, reason: &str) {
    if let Some(rec) = transition(job, idx, PointEvent::Fail) {
        append(job, rec.u64("attempts", attempts.into()).str("reason", reason));
    }
}

/// Journals an interrupted point (drained by a shutdown request).
pub(crate) fn record_interrupted(job: u64, idx: u64) {
    if let Some(rec) = transition(job, idx, PointEvent::Interrupt) {
        append(job, rec);
    }
}

/// The replayed terminal outcome (if any) for point `idx` of `job`'s
/// current experiment — only populated on `--resume`.
pub(crate) fn replayed(job: u64, idx: u64) -> Option<Replayed> {
    with_job(job, |s| {
        let key = (s.experiment.clone(), idx);
        s.replay.get(&key).filter(|r| **r != Replayed::Pending).cloned()
    })
    .flatten()
}

/// A snapshot of one job's journalled lifecycle counters: how many grid
/// points this process run scheduled, and how many reached each
/// terminal state so far. `completed + failed + interrupted` catches up
/// to `scheduled` as the job drains.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct Progress {
    /// Points journalled as scheduled.
    pub scheduled: u64,
    /// Points that completed OK.
    pub completed: u64,
    /// Points that failed terminally.
    pub failed: u64,
    /// Points drained by a shutdown or cancellation.
    pub interrupted: u64,
}

/// `job`'s progress as recorded by this process run (replayed history
/// is not re-counted), or `None` when `job` has no active journal.
pub fn progress(job: u64) -> Option<Progress> {
    with_job(job, |s| Progress {
        scheduled: s.counters.scheduled,
        completed: s.counters.completed,
        failed: s.counters.failed,
        interrupted: s.counters.interrupted,
    })
}

/// Flushes every active journal file (a drain point before exit).
pub fn flush() {
    let mut jobs = state().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    for active in jobs.values_mut() {
        let _ = active.file.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed `kind=c` event line for point `idx` of `exp`.
    fn completed(exp: &str, idx: u64) -> String {
        Record::new("c").str("exp", exp).u64("idx", idx).seal()
    }

    #[test]
    fn run_keys_separate_runs() {
        assert_eq!(run_key("sweep:x", 100), run_key("sweep:x", 100));
        assert_ne!(run_key("sweep:x", 100), run_key("sweep:x", 200));
        assert_ne!(run_key("sweep:x", 100), run_key("sweep:y", 100));
    }

    #[test]
    fn replay_takes_the_last_terminal_event() {
        let ev = |tag: &str, idx: u64| Record::new(tag).str("exp", "sweep").u64("idx", idx);
        let sched = |idx: u64, bench: &str| {
            ev("s", idx)
                .str("bench", bench)
                .u64("instrs", 100)
                .str("cfg", "00000000000000aa")
                .seal()
        };
        let lines = [
            header(0),
            sched(0, "li"),
            ev("a", 0).u64("attempt", 0).seal(),
            ev("f", 0).u64("attempts", 2).str("reason", "injected err").seal(),
            sched(1, "gcc"),
            ev("a", 1).u64("attempt", 0).seal(),
            completed("sweep", 1),
            sched(2, "doduc"),
            ev("i", 2).seal(),
        ];
        let dir = std::env::temp_dir()
            .join(format!("specfetch-journal-replay-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.wal");
        std::fs::write(&path, lines.concat()).unwrap();
        let (events, _) = load(&path).unwrap();
        assert_eq!(events.len(), lines.len() - 1, "every event decodes");
        let replay = replay_events(events);
        assert_eq!(
            replay.get(&("sweep".to_owned(), 0)),
            Some(&Replayed::Failed { attempts: 2, reason: "injected err".to_owned() })
        );
        assert_eq!(replay.get(&("sweep".to_owned(), 1)), Some(&Replayed::Completed));
        assert_eq!(replay.get(&("sweep".to_owned(), 2)), Some(&Replayed::Pending));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_journal_independently_and_release_frees_the_slot() {
        let dir = std::env::temp_dir()
            .join(format!("specfetch-journal-jobs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Ids chosen to stay clear of other tests: the journal map is
        // process-wide.
        let (a, b) = (0xDEAD_1001u64, 0xDEAD_1002u64);
        let path_a = activate_job(a, &dir.join("a"), 1, false).unwrap();
        let path_b = activate_job(b, &dir.join("b"), 2, false).unwrap();
        assert_ne!(path_a, path_b);
        assert!(activate_job(a, &dir.join("a"), 1, false).is_err(), "double activation");

        begin_experiment(a, "sweep");
        begin_experiment(b, "table3");
        assert_eq!(reserve(a, 3), Some(0));
        assert_eq!(reserve(a, 2), Some(3), "indices advance per job");
        assert_eq!(reserve(b, 1), Some(0), "...not across jobs");
        record_scheduled(a, 0, "li", 100, 0xaa);
        record_completed(a, 0);
        record_scheduled(b, 0, "gcc", 100, 0xab);
        record_interrupted(b, 0);
        let none = Progress::default();
        assert_eq!(progress(a), Some(Progress { scheduled: 1, completed: 1, ..none }));
        assert_eq!(progress(b), Some(Progress { scheduled: 1, interrupted: 1, ..none }));

        let text = std::fs::read_to_string(&path_a).unwrap();
        assert!(text.lines().any(|l| l.starts_with("kind=c exp=sweep idx=0 sum=")), "{text}");
        assert!(!text.contains("gcc"), "job b's events stay out of job a's file: {text}");

        release(a);
        release(b);
        assert_eq!(progress(a), None, "released jobs are inactive");
        assert!(activate_job(a, &dir.join("a"), 1, false).is_ok(), "slot is reusable");
        release(a);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_tolerates_a_torn_tail_but_not_interior_corruption() {
        let dir =
            std::env::temp_dir().join(format!("specfetch-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let good = header(0);
        let event = completed("sweep", 0);
        std::fs::write(&path, format!("{good}{event}kind=c exp=sweep idx=1 sum=deadbeef")).unwrap();
        let (events, valid_len) = load(&path).unwrap();
        assert_eq!(events.len(), 1, "torn tail dropped");
        assert_eq!(valid_len, (good.len() + event.len()) as u64, "valid prefix excludes the tail");

        let interior = format!("{good}kind=c exp=sweep idx=1 sum=deadbeefdeadbeef\n{event}");
        std::fs::write(&path, interior).unwrap();
        assert!(load(&path).is_err(), "interior corruption must be loud");

        // A journal of the previous format has no header this one reads.
        let v1 = "specfetch-journal/1 run=0000000000000000|0123456789abcdef\nc sweep 0|00\n";
        std::fs::write(&path, v1).unwrap();
        let err = load(&path).expect_err("a v1 journal must not replay").to_string();
        assert!(err.contains("no valid header"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unterminated_final_line_is_torn_even_with_a_valid_checksum() {
        let dir = std::env::temp_dir()
            .join(format!("specfetch-journal-noterm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("noterm.wal");
        let good = header(0);
        let event = completed("sweep", 0);
        // Checksum verifies, but the write never finished: no '\n'.
        std::fs::write(&path, format!("{good}{}", event.trim_end())).unwrap();
        let (events, valid_len) = load(&path).unwrap();
        assert!(events.is_empty(), "only the header survives");
        assert_eq!(valid_len, good.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (model invariant: replay of any reachable WAL prefix
    /// is consistent). `activate_job` used to open in append mode with
    /// the torn tail still in place, so the first new record was welded
    /// onto the partial line — a checksum-invalid *interior* line that
    /// bricked the next resume. Resume must truncate the torn tail
    /// before appending.
    #[test]
    fn resume_truncates_the_torn_tail_before_appending() {
        let dir = std::env::temp_dir()
            .join(format!("specfetch-journal-tornappend-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let job = 0xDEAD_1003u64;
        let run = 7u64;
        let path = path_for(&dir, run);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let event = completed("sweep", 0);
        // A crash tore the write of "kind=s ... idx=1 ..." mid-line.
        std::fs::write(&path, format!("{}{event}kind=s exp=sweep idx=1 bench=gc", header(run)))
            .unwrap();

        activate_job(job, &dir, run, true).unwrap();
        begin_experiment(job, "sweep");
        record_scheduled(job, 1, "gcc", 100, 0xab);
        record_attempt(job, 1, 0);
        record_completed(job, 1);
        release(job);

        // The journal must replay clean: torn tail gone, both points'
        // events intact and checksummed.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5, "header + c + s/a/c, no welded garbage: {text}");
        let (events, _) = load(&path).unwrap();
        assert_eq!(events.len(), 4, "{text}");
        let replay = replay_events(events);
        assert_eq!(replay.get(&("sweep".to_owned(), 0)), Some(&Replayed::Completed));
        assert_eq!(replay.get(&("sweep".to_owned(), 1)), Some(&Replayed::Completed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_snapshots_track_the_attached_journal() {
        let dir = std::env::temp_dir().join(format!("specfetch-progress-{}", std::process::id()));
        // Id chosen to stay clear of other tests: journals are
        // process-wide.
        let job = 0xDEAD_3001;
        assert_eq!(progress(job), None, "no journal attached yet");

        activate_job(job, &dir, 42, false).unwrap();
        begin_experiment(job, "sweep");
        record_scheduled(job, 0, "li", 100, 0xaa);
        record_scheduled(job, 1, "gcc", 100, 0xab);
        record_completed(job, 0);
        record_failed(job, 1, 2, "injected err");
        assert_eq!(
            progress(job),
            Some(Progress { scheduled: 2, completed: 1, failed: 1, interrupted: 0 })
        );

        release(job);
        assert_eq!(progress(job), None, "released jobs report no progress");
        release(job); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }
}
