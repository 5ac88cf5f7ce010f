//! Deterministic fault injection for the experiment runner.
//!
//! The reproduction is a long unattended sweep; its failure handling is
//! only trustworthy if every recovery path can be exercised on demand.
//! This module injects faults at named grid points so tests and CI can
//! prove that one poisoned point costs one `FAILED(...)` cell — never
//! the run — and that the supervision layer (DESIGN §5j) turns
//! *transient* faults into retries instead of failures.
//!
//! # Grammar
//!
//! `--inject` takes one or more `;`-separated specs:
//!
//! ```text
//! point=<experiment>:<n>,<action>   fire at the n-th grid point (0-based,
//!                                   input order) of <experiment>
//! chaos=<permille>@<seed>,<action>  fire at each grid point with
//!                                   probability permille/1000, decided by
//!                                   a seeded hash of (experiment, point)
//! soak=<permille>@<seed>            chaos-soak: hang or kill the process
//!                                   executing each selected point (first
//!                                   attempt only), decided by a seeded
//!                                   hash — the supervisor must retry its
//!                                   way to a byte-identical table
//! ```
//!
//! where `<action>` is one of:
//!
//! - `panic` — panic inside the grid point (exercises the capture path);
//! - `err` — return a typed [`SpecfetchError::Injected`] error
//!   (transient: the supervisor retries it when `--retries` is set);
//! - `slow` — sleep [`SLOW_MILLIS`] before simulating (the point still
//!   succeeds; exercises scheduling under stragglers);
//! - `abort` — kill the **process** executing the point with
//!   [`std::process::abort`]. In-process this crashes the run (it is a
//!   crash-test primitive, not an isolation test); under `--workers N`
//!   the parent forwards it to the child handling the point, exercising
//!   worker-death recovery;
//! - `hang` — wedge the point: under `--workers` the child freezes
//!   (heartbeats stop, the parent's heartbeat window / `--point-timeout`
//!   deadline kills it); in-process the point spins cooperatively until
//!   the deadline or a shutdown request;
//! - `exitcode=<n>` — exit the process executing the point with status
//!   `n` (clean-death variant of `abort`).
//!
//! Any action may carry an **attempt limit** suffix `*<k>`: the fault
//! fires only on attempts `0..k` of the point. `hang*1` therefore hangs
//! the first attempt and lets the `--retries` rerun succeed — the
//! supervision acceptance test.
//!
//! # Determinism
//!
//! Grid points are numbered in **input order** as each experiment
//! enqueues them — the numbering is assigned before any worker runs, so
//! it is independent of thread scheduling. `chaos`/`soak` decisions hash
//! `(seed, experiment, point)`: the same seed always fails the same
//! cells, on any machine, at any parallelism.
//!
//! The plan is installed once per process ([`install`], called by the
//! `specfetch-repro` CLI); with no plan installed, the per-point check is
//! a single relaxed atomic-free `OnceLock` read.

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use specfetch_core::SpecfetchError;

use crate::supervise;

/// How long an injected `slow` fault stalls a grid point.
pub const SLOW_MILLIS: u64 = 250;

/// How often a cooperatively hung in-process point re-checks its
/// deadline and the shutdown flag.
const HANG_POLL_MILLIS: u64 = 10;

/// The exit status a `soak`-selected kill uses (distinct from real
/// failure codes so logs attribute the death to the harness).
pub const SOAK_EXIT_CODE: u8 = 17;

/// What an injected fault does to its grid point.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// Panic inside the point (captured and rendered `FAILED(injected
    /// panic)`).
    Panic,
    /// Return a typed error (rendered `FAILED(injected err)`; transient,
    /// so `--retries` re-runs it).
    Err,
    /// Sleep [`SLOW_MILLIS`] and then run normally.
    Slow,
    /// Abort the process executing the point (worker-death testing).
    Abort,
    /// Wedge the point: freeze the worker child (or spin cooperatively
    /// in-process) until a deadline or shutdown unwedges it.
    Hang,
    /// Exit the process executing the point with this status.
    Exit(u8),
}

impl FaultAction {
    pub(crate) fn parse(s: &str) -> Result<FaultAction, SpecfetchError> {
        if let Some(code) = s.strip_prefix("exitcode=") {
            let code = code
                .parse()
                .map_err(|_| bad_spec(format!("bad exitcode {code:?} (expected 0-255)")))?;
            return Ok(FaultAction::Exit(code));
        }
        match s {
            "panic" => Ok(FaultAction::Panic),
            "err" => Ok(FaultAction::Err),
            "slow" => Ok(FaultAction::Slow),
            "abort" => Ok(FaultAction::Abort),
            "hang" => Ok(FaultAction::Hang),
            other => Err(bad_spec(format!(
                "unknown fault action {other:?} (expected panic|err|slow|abort|hang|exitcode=<n>)"
            ))),
        }
    }

    /// Whether this action kills or wedges the **process** running the
    /// point. The worker dispatcher forwards these to the child that
    /// will execute the point instead of firing them in the parent.
    pub(crate) fn is_process_fault(self) -> bool {
        matches!(self, FaultAction::Abort | FaultAction::Hang | FaultAction::Exit(_))
    }

    /// The `--inject` grammar's spelling of this action, which the
    /// worker protocol's `fault` field carries and the child reads back
    /// with [`FaultAction::parse`].
    pub(crate) fn wire_name(self) -> String {
        match self {
            FaultAction::Panic => "panic".to_owned(),
            FaultAction::Err => "err".to_owned(),
            FaultAction::Slow => "slow".to_owned(),
            FaultAction::Abort => "abort".to_owned(),
            FaultAction::Hang => "hang".to_owned(),
            FaultAction::Exit(n) => format!("exitcode={n}"),
        }
    }
}

/// Parses an action with its optional `*<k>` attempt-limit suffix.
fn parse_limited(s: &str) -> Result<(FaultAction, Option<u32>), SpecfetchError> {
    match s.rsplit_once('*') {
        Some((action, limit)) => {
            let limit = limit
                .parse()
                .map_err(|_| bad_spec(format!("bad attempt limit {limit:?} (expected *<k>)")))?;
            Ok((FaultAction::parse(action)?, Some(limit)))
        }
        None => Ok((FaultAction::parse(s)?, None)),
    }
}

/// Shorthand for the typed rejection every grammar error maps to.
fn bad_spec(detail: String) -> SpecfetchError {
    SpecfetchError::InvalidSpec { detail }
}

#[derive(Clone, PartialEq, Eq, Debug)]
struct PointRule {
    experiment: String,
    point: u64,
    action: FaultAction,
    /// Fire only on attempts `0..limit`; `None` fires on every attempt.
    limit: Option<u32>,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct ChaosRule {
    permille: u32,
    seed: u64,
    action: FaultAction,
    limit: Option<u32>,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct SoakRule {
    permille: u32,
    seed: u64,
}

/// A parsed `--inject` plan: which grid points fail, and how.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    points: Vec<PointRule>,
    chaos: Option<ChaosRule>,
    soak: Option<SoakRule>,
}

/// Seeded FNV-1a over arbitrary byte runs — the decision hash shared by
/// `chaos` and `soak` rules.
fn decision_hash(seed: u64, salt: &str, experiment: &str, point: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(salt.as_bytes());
    eat(experiment.as_bytes());
    eat(&point.to_le_bytes());
    h
}

fn parse_permille_at_seed(target: &str) -> Result<(u32, u64), SpecfetchError> {
    let (permille, seed) = target
        .split_once('@')
        .ok_or_else(|| bad_spec(format!("bad target {target:?} (expected permille@seed)")))?;
    let permille: u32 =
        permille.parse().map_err(|_| bad_spec(format!("bad permille {permille:?}")))?;
    if permille > 1000 {
        return Err(bad_spec(format!("permille {permille} exceeds 1000")));
    }
    let seed = seed.parse().map_err(|_| bad_spec(format!("bad seed {seed:?}")))?;
    Ok((permille, seed))
}

impl FaultPlan {
    /// Parses the `--inject` grammar (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`SpecfetchError::InvalidSpec`] (with a human-readable detail) for
    /// any spec that does not match the grammar.
    pub fn parse(input: &str) -> Result<FaultPlan, SpecfetchError> {
        let mut plan = FaultPlan::default();
        for spec in input.split(';').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = spec
                .split_once('=')
                .ok_or_else(|| bad_spec(format!("bad fault spec {spec:?} (expected key=value)")))?;
            if kind == "soak" {
                let (permille, seed) = parse_permille_at_seed(rest)?;
                plan.soak = Some(SoakRule { permille, seed });
                continue;
            }
            let (target, action) = rest
                .rsplit_once(',')
                .ok_or_else(|| bad_spec(format!("bad fault spec {spec:?} (missing ,action)")))?;
            let (action, limit) = parse_limited(action)?;
            match kind {
                "point" => {
                    let (experiment, n) = target.split_once(':').ok_or_else(|| {
                        bad_spec(format!("bad point target {target:?} (expected experiment:n)"))
                    })?;
                    let point = n
                        .parse()
                        .map_err(|_| bad_spec(format!("bad point index {n:?} in {spec:?}")))?;
                    plan.points.push(PointRule {
                        experiment: experiment.to_owned(),
                        point,
                        action,
                        limit,
                    });
                }
                "chaos" => {
                    let (permille, seed) = parse_permille_at_seed(target)?;
                    plan.chaos = Some(ChaosRule { permille, seed, action, limit });
                }
                other => return Err(bad_spec(format!("unknown fault kind {other:?} in {spec:?}"))),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty() && self.chaos.is_none() && self.soak.is_none()
    }

    /// The action (if any) this plan fires at `point` of `experiment` on
    /// the given retry `attempt` (0 = the first run). Pure and
    /// deterministic — identical inputs always produce the identical
    /// decision.
    pub fn action_at(&self, experiment: &str, point: u64, attempt: u32) -> Option<FaultAction> {
        let fires = |limit: Option<u32>| limit.is_none_or(|k| attempt < k);
        if let Some(rule) =
            self.points.iter().find(|r| r.experiment == experiment && r.point == point)
        {
            return (fires(rule.limit)).then_some(rule.action);
        }
        if let Some(chaos) = self.chaos {
            let h = decision_hash(chaos.seed, "", experiment, point);
            if h % 1000 < u64::from(chaos.permille) && fires(chaos.limit) {
                return Some(chaos.action);
            }
        }
        // Soak faults model transient infrastructure trouble: first
        // attempt only, so a supervised rerun converges.
        let soak = self.soak?;
        if attempt > 0 {
            return None;
        }
        let h = decision_hash(soak.seed, "soak", experiment, point);
        if h % 1000 >= u64::from(soak.permille) {
            return None;
        }
        Some(if h >> 63 == 0 { FaultAction::Hang } else { FaultAction::Exit(SOAK_EXIT_CODE) })
    }
}

/// Per-process injection state: the installed plan plus the point
/// counter of the experiment currently running.
struct Counter {
    experiment: String,
    next_point: u64,
}

static PLAN: OnceLock<FaultPlan> = OnceLock::new();

fn counter() -> &'static Mutex<Counter> {
    static COUNTER: OnceLock<Mutex<Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| Mutex::new(Counter { experiment: String::new(), next_point: 0 }))
}

/// Installs the process-wide fault plan. Called once by the CLI before
/// any experiment runs; a second call is rejected.
///
/// # Errors
///
/// [`SpecfetchError::InvalidSpec`] if a plan is already installed.
pub fn install(plan: FaultPlan) -> Result<(), SpecfetchError> {
    PLAN.set(plan).map_err(|_| bad_spec("a fault plan is already installed".to_owned()))
}

/// Resets the point counter for a new experiment. Called by
/// [`crate::run_experiment`] (and by the CLI before a user-defined
/// sweep) so `point=<exp>:<n>` indices restart at 0 per experiment.
pub fn begin_experiment(id: &str) {
    if PLAN.get().is_none() {
        return;
    }
    let mut c = counter().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    c.experiment = id.to_owned();
    c.next_point = 0;
}

/// Claims `n` consecutive point indices for a batch about to run,
/// returning the base index. Indices are handed out in batch-submission
/// order (single-threaded experiment code), so they are deterministic
/// regardless of worker scheduling.
pub(crate) fn reserve(n: usize) -> u64 {
    if PLAN.get().is_none() {
        return 0;
    }
    let mut c = counter().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let base = c.next_point;
    c.next_point += n as u64;
    base
}

/// The installed plan's action for point `idx` of the current
/// experiment on `attempt`, without firing it. The worker dispatcher
/// uses this to route process faults (`abort`, `hang`, `exitcode`) to
/// the child process that will run the point instead of killing the
/// parent.
pub(crate) fn peek(idx: u64, attempt: u32) -> Option<FaultAction> {
    let plan = PLAN.get()?;
    let experiment = {
        let c = counter().lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        c.experiment.clone()
    };
    plan.action_at(&experiment, idx, attempt)
}

/// Fires the installed plan's action for point `idx` of the current
/// experiment on `attempt`, if any: panics for `panic`, sleeps for
/// `slow`, returns a typed error for `err`, aborts/exits the process
/// for `abort`/`exitcode`, and hangs cooperatively for `hang` —
/// spinning until the `deadline_secs` budget (when non-zero) expires
/// with a typed [`SpecfetchError::Timeout`] or a shutdown request
/// surfaces [`SpecfetchError::Interrupted`]. A no-op when no plan is
/// installed.
pub(crate) fn guard(idx: u64, attempt: u32, deadline_secs: u64) -> Result<(), SpecfetchError> {
    match peek(idx, attempt) {
        None => Ok(()),
        Some(FaultAction::Panic) => panic!("injected panic"),
        Some(FaultAction::Err) => Err(SpecfetchError::Injected { action: "err" }),
        Some(FaultAction::Slow) => {
            std::thread::sleep(Duration::from_millis(SLOW_MILLIS));
            Ok(())
        }
        Some(FaultAction::Abort) => abort_process(),
        Some(FaultAction::Exit(code)) => exit_process(code),
        Some(FaultAction::Hang) => hang_cooperatively(deadline_secs),
    }
}

/// An in-process `hang`: the thread cannot be preempted (no external
/// supervisor), so it spins politely, honouring the per-point deadline
/// and the graceful-shutdown flag. Worker children never reach this —
/// their hang freezes the whole process (see [`crate::worker`]).
fn hang_cooperatively(deadline_secs: u64) -> Result<(), SpecfetchError> {
    let start = Instant::now();
    loop {
        if supervise::shutdown_requested() {
            return Err(SpecfetchError::Interrupted);
        }
        if deadline_secs > 0 && start.elapsed() >= Duration::from_secs(deadline_secs) {
            return Err(SpecfetchError::Timeout { seconds: deadline_secs });
        }
        std::thread::sleep(Duration::from_millis(HANG_POLL_MILLIS));
    }
}

/// Hard-kills the current process. The only non-`bin` abort site in the
/// workspace (the tidy exit-confinement rule pins it here): worker child
/// processes call this when the parent forwards them an `abort` fault.
pub(crate) fn abort_process() -> ! {
    std::process::abort()
}

/// Exits the current process with `code` — the `exitcode=<n>` injection
/// primitive. Lives here with [`abort_process`] so the tidy
/// exit-confinement rule keeps every library exit site in one audited
/// file.
pub(crate) fn exit_process(code: u8) -> ! {
    std::process::exit(i32::from(code))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_specs() {
        let p = FaultPlan::parse("point=table4:1,panic").unwrap();
        assert_eq!(p.action_at("table4", 1, 0), Some(FaultAction::Panic));
        assert_eq!(p.action_at("table4", 0, 0), None);
        assert_eq!(p.action_at("table3", 1, 0), None);
    }

    #[test]
    fn parses_multiple_specs_and_actions() {
        let p = FaultPlan::parse("point=table3:2,err; point=figure1:0,slow; point=sweep:1,abort")
            .unwrap();
        assert_eq!(p.action_at("table3", 2, 0), Some(FaultAction::Err));
        assert_eq!(p.action_at("figure1", 0, 0), Some(FaultAction::Slow));
        assert_eq!(p.action_at("sweep", 1, 0), Some(FaultAction::Abort));
    }

    #[test]
    fn parses_hang_and_exitcode_actions() {
        let p = FaultPlan::parse("point=sweep:0,hang; point=sweep:1,exitcode=3").unwrap();
        assert_eq!(p.action_at("sweep", 0, 0), Some(FaultAction::Hang));
        assert_eq!(p.action_at("sweep", 1, 0), Some(FaultAction::Exit(3)));
    }

    #[test]
    fn attempt_limits_stop_refiring() {
        let p = FaultPlan::parse("point=sweep:0,hang*1; point=sweep:1,err*2; point=sweep:2,panic")
            .unwrap();
        assert_eq!(p.action_at("sweep", 0, 0), Some(FaultAction::Hang));
        assert_eq!(p.action_at("sweep", 0, 1), None, "hang*1 fires on the first attempt only");
        assert_eq!(p.action_at("sweep", 1, 1), Some(FaultAction::Err));
        assert_eq!(p.action_at("sweep", 1, 2), None);
        assert_eq!(
            p.action_at("sweep", 2, 9),
            Some(FaultAction::Panic),
            "no limit = every attempt"
        );
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(!FaultPlan::parse("point=a:0,panic").unwrap().is_empty());
        assert!(!FaultPlan::parse("soak=100@1").unwrap().is_empty());
    }

    #[test]
    fn rejects_bad_grammar() {
        for bad in [
            "nonsense",
            "point=table4,panic",
            "point=table4:x,panic",
            "point=table4:1,explode",
            "point=table4:1,exitcode=999",
            "point=table4:1,hang*x",
            "chaos=10,panic",
            "chaos=xx@1,err",
            "chaos=2000@1,err",
            "soak=2000@1",
            "soak=100",
            "rate=1@2,err",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} unexpectedly parsed");
        }
    }

    #[test]
    fn chaos_is_deterministic_and_seeded() {
        let a = FaultPlan::parse("chaos=200@42,err").unwrap();
        let b = FaultPlan::parse("chaos=200@42,err").unwrap();
        let c = FaultPlan::parse("chaos=200@43,err").unwrap();
        let hits = |p: &FaultPlan| {
            (0..500).filter(|&i| p.action_at("table5", i, 0).is_some()).collect::<Vec<_>>()
        };
        assert_eq!(hits(&a), hits(&b), "same seed must fail the same points");
        assert_ne!(hits(&a), hits(&c), "different seeds should differ");
        // ~20% of 500 points; generous bounds, determinism is the claim.
        let n = hits(&a).len();
        assert!((50..200).contains(&n), "chaos rate wildly off: {n}/500");
    }

    #[test]
    fn chaos_rate_zero_never_fires_and_1000_always_fires() {
        let never = FaultPlan::parse("chaos=0@7,panic").unwrap();
        let always = FaultPlan::parse("chaos=1000@7,panic").unwrap();
        for i in 0..100 {
            assert_eq!(never.action_at("x", i, 0), None);
            assert_eq!(always.action_at("x", i, 0), Some(FaultAction::Panic));
        }
    }

    #[test]
    fn point_rules_take_precedence_over_chaos() {
        let p = FaultPlan::parse("point=t:3,slow;chaos=1000@1,panic").unwrap();
        assert_eq!(p.action_at("t", 3, 0), Some(FaultAction::Slow));
        assert_eq!(p.action_at("t", 4, 0), Some(FaultAction::Panic));
    }

    #[test]
    fn soak_picks_process_faults_on_the_first_attempt_only() {
        let p = FaultPlan::parse("soak=1000@9").unwrap();
        for i in 0..50 {
            let action = p.action_at("sweep", i, 0).expect("permille 1000 always fires");
            assert!(action.is_process_fault(), "soak must hang or kill, got {action:?}");
            assert_eq!(p.action_at("sweep", i, 1), None, "soak is first-attempt only");
        }
        let some_hang = (0..50).any(|i| p.action_at("s", i, 0) == Some(FaultAction::Hang));
        let some_exit =
            (0..50).any(|i| p.action_at("s", i, 0) == Some(FaultAction::Exit(SOAK_EXIT_CODE)));
        assert!(some_hang && some_exit, "soak should mix hangs and kills");
    }

    #[test]
    fn soak_is_deterministic_and_seeded() {
        let a = FaultPlan::parse("soak=300@5").unwrap();
        let b = FaultPlan::parse("soak=300@5").unwrap();
        let c = FaultPlan::parse("soak=300@6").unwrap();
        let hits = |p: &FaultPlan| (0..200).map(|i| p.action_at("sweep", i, 0)).collect::<Vec<_>>();
        assert_eq!(hits(&a), hits(&b));
        assert_ne!(hits(&a), hits(&c));
    }

    #[test]
    fn wire_names_round_trip() {
        for action in [
            FaultAction::Panic,
            FaultAction::Err,
            FaultAction::Slow,
            FaultAction::Abort,
            FaultAction::Hang,
            FaultAction::Exit(17),
        ] {
            assert_eq!(FaultAction::parse(&action.wire_name()).ok(), Some(action));
        }
        assert!(FaultAction::parse("none").is_err());
        assert!(FaultAction::parse("exitcode=boom").is_err());
    }

    #[test]
    fn process_faults_are_exactly_the_process_killers() {
        assert!(FaultAction::Abort.is_process_fault());
        assert!(FaultAction::Hang.is_process_fault());
        assert!(FaultAction::Exit(0).is_process_fault());
        assert!(!FaultAction::Panic.is_process_fault());
        assert!(!FaultAction::Err.is_process_fault());
        assert!(!FaultAction::Slow.is_process_fault());
    }
}
