//! Sharded multi-process grid execution: `--workers N`.
//!
//! One simulation process is single-core-bound on the hot per-branch /
//! per-access work (DESIGN §5h), so the next multiplier is scale-out.
//! The parent runs the grid pipeline itself — input-order fault
//! numbering, static preflight, memo and result-store resolution, and
//! settling every finished cell into the memo and the store — and ships
//! only the *unresolved, config-deduplicated* configurations of each
//! benchmark group to a pool of `specfetch-repro --worker` child
//! processes over a pipe protocol (version [`PROTO_VERSION`]) of
//! [`crate::codec`] line records, one per message, each ending in its
//! `sum=<fnv1a>` checksum token (left out below):
//!
//! ```text
//! parent → child   kind=hello proto=4
//! child → parent   kind=hello proto=4
//! parent → child   kind=group bench=li instrs=2000000 points=2
//!                  kind=point idx=0 fault=none cfg=v=1\spolicy=Res\s...
//!                  kind=point idx=1 fault=none cfg=v=1\spolicy=Pess\s...
//! child → parent   kind=hb                           (every ~100ms, always)
//!                  kind=cell idx=0 ok=1 policy=Res instrs=... (every result field)
//!                  kind=cell idx=1 ok=0 fail=terminal reason=...
//!                  kind=done
//! ```
//!
//! Children are pure compute: a child answers a group with the same
//! executor the in-process path runs (`runner::simulate_configs`), and
//! never opens the result store — its argv is just `--worker`, and the
//! parent is the only process that persists results. The parent's
//! planner is the only preflight gate: a child holds no
//! `--corrupt-target` hook, so a verdict of its own could only pass, and
//! an image that fails to generate fails every cell in the executor.
//!
//! A failed cell carries its retry class (`fail`: `terminal` |
//! `transient` | `interrupted`) so the parent treats a deterministic
//! failure inside a worker — a real panic, a workload error — exactly
//! like the in-process path would: terminal, never retried. Anything
//! unrecognised stays transient, which is also what genuine
//! worker-death fills (no cell at all) resolve to.
//!
//! The **hello handshake** runs once per child: a version mismatch is a
//! typed [`SpecfetchError::WorkerProtocol`] on either side, never a
//! garbled stream. Configs cross the pipe in the canonical encoding of
//! `specfetch_core::canon` and results as the [`crate::codec`] result
//! fields — both strict, versioned, and byte-exact, so a sharded run is
//! **byte-identical** to an in-process run. A line whose checksum fails
//! or whose record does not decode is a protocol violation: the child
//! is killed and its unfinished points are retried.
//!
//! **Supervision** (DESIGN §5j): children heartbeat every ~100ms; the
//! parent drains each child's pipe on a reader thread and declares the
//! child hung when the heartbeat window (`--heartbeat-ms`) passes in
//! silence or the group exceeds its deadline (`--point-timeout` × group
//! size). A hung child is killed and replaced; its unfinished points
//! fail *transiently* (`timeout after Ns` / `worker hung`), which the
//! runner's `--retries` loop re-dispatches.
//!
//! Faults: the parent fires `panic`/`err`/`slow` guards itself while it
//! plans a group (identical numbering and rendering to the in-process
//! path) and forwards process faults — `abort`, `hang`, `exitcode=<n>`
//! — to the child that will run the point: the child dies or freezes
//! mid-group, the parent recovers as above, and sibling workers drain
//! the rest of the queue. A pool that cannot start at all (the
//! executable cannot re-spawn itself) falls back to in-process
//! execution with a warning.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use specfetch_core::{SimConfig, SpecfetchError};
use specfetch_synth::suite::Benchmark;
use specfetch_verify::{worker_step, DeadReason, Step, WorkerEvent, WorkerState};

use crate::codec::{bad, put_result, take_result, Fields, Record};
use crate::fault::{self, FaultAction};
use crate::runner::{simulate_configs, CellFailure, FailKind, GridCell};
use crate::RunOptions;

/// Version of the parent↔worker pipe protocol. v2 added the hello
/// handshake, heartbeats and per-point fault forwarding (replacing the
/// v1 `abort` flag); v3 replaced JSON lines with codec records; v4
/// dropped the derived `pf.issued` result field.
pub const PROTO_VERSION: u64 = 4;

/// How often a worker child emits a heartbeat line. The CLI rejects
/// `--heartbeat-ms` windows below twice this interval — a window shorter
/// than the beat would declare every healthy child hung.
pub const HEARTBEAT_INTERVAL_MS: u64 = 100;

/// How long the parent waits for a child's hello before giving up on it.
const HANDSHAKE_TIMEOUT_MS: u64 = 10_000;

/// How often the parent's supervision loop re-checks deadlines while
/// waiting for child output.
const SUPERVISE_POLL_MS: u64 = 25;

/// One group of unresolved points bound for a child process.
struct Job {
    bench: &'static Benchmark,
    /// Deduplicated configs to simulate, each with its forwarded
    /// process fault (if any).
    cfgs: Vec<(SimConfig, Option<FaultAction>)>,
    /// Position of this group in the calling pass.
    group: usize,
    /// The window, plus the supervision knobs: the whole group gets
    /// `point_timeout_secs × cfgs.len()` (0 = no deadline) before the
    /// child is killed, and `heartbeat_ms` of silence marks it hung.
    opts: RunOptions,
    reply: mpsc::Sender<(usize, Vec<GridCell>)>,
}

/// The process-wide pool of worker children, fed one job per planned
/// group.
pub(crate) struct WorkerPool {
    jobs: mpsc::Sender<Job>,
}

impl WorkerPool {
    /// Queues one planned group: a child simulates `cfgs` (firing any
    /// forwarded process fault first), and the cells — one per config,
    /// in order — come back on `reply` tagged with `group`.
    pub(crate) fn dispatch(
        &self,
        bench: &'static Benchmark,
        cfgs: Vec<(SimConfig, Option<FaultAction>)>,
        group: usize,
        opts: &RunOptions,
        reply: mpsc::Sender<(usize, Vec<GridCell>)>,
    ) {
        // The queue's receiver lives as long as the process. Were the
        // send to fail anyway, the job and its reply sender would drop
        // unanswered, and the caller fails the group's points.
        let _ = self.jobs.send(Job { bench, cfgs, group, opts: *opts, reply });
    }
}

/// One live child: the process handle plus the reader thread's line
/// channel (disconnect = child stdout closed = child gone).
struct Slot {
    child: Child,
    lines: mpsc::Receiver<String>,
}

static POOL: OnceLock<Option<WorkerPool>> = OnceLock::new();

/// Validates one hello line against [`PROTO_VERSION`].
///
/// # Errors
///
/// [`SpecfetchError::WorkerProtocol`] when the line is not a hello
/// record or carries a different version — the typed error both sides
/// of the pipe report instead of attempting to parse an incompatible
/// stream.
pub fn validate_hello(line: &str) -> Result<(), SpecfetchError> {
    let detail = match hello_version(line) {
        Some(v) if v == PROTO_VERSION => return Ok(()),
        Some(v) => format!("peer speaks protocol v{v}, this build speaks v{PROTO_VERSION}"),
        None => format!("expected a v{PROTO_VERSION} hello record, got {:?}", line.trim_end()),
    };
    Err(SpecfetchError::WorkerProtocol { detail })
}

/// The version a hello announces (other fields unchecked, so a later
/// version may add some); `None` when `line` is not a hello. The JSON
/// hello of v2 is read too: a v2 peer gets the typed mismatch, and the
/// benchmark ledger's handshake probe, which still sends it, a reply.
fn hello_version(line: &str) -> Option<u64> {
    if let Some(json) = line.trim_end().strip_prefix("{\"kind\":\"hello\",\"proto\":") {
        return json.strip_suffix('}')?.parse().ok();
    }
    let mut f = Fields::unseal(line).ok()?;
    if f.take("kind").ok()? != "hello" {
        return None;
    }
    f.take_u64("proto").ok()
}

/// The hello line either side opens with.
fn hello_line() -> String {
    Record::new("hello").u64("proto", PROTO_VERSION).seal()
}

/// The `fail` field a failed cell carries on the wire.
fn fail_wire(kind: FailKind) -> &'static str {
    match kind {
        FailKind::Terminal => "terminal",
        FailKind::Transient => "transient",
        FailKind::Interrupted => "interrupted",
    }
}

/// Maps a failed cell's wire class back to the parent-side failure, so a
/// deterministic failure inside a worker is terminal here too (never
/// retried), matching the in-process path. Anything unrecognised stays
/// transient — the class genuine worker deaths (no cell at all) fill
/// with.
fn cell_failure_from_wire(fail: &str, reason: String) -> CellFailure {
    match fail {
        "terminal" => CellFailure::permanent(reason),
        "interrupted" => CellFailure::interrupted(),
        _ => CellFailure::transient(reason),
    }
}

/// Spawns one `--worker` child, wires its stdout to a reader thread, and
/// completes the hello handshake. A child that answers with the wrong
/// protocol version (or nothing at all) is killed and reported.
fn spawn_child() -> std::io::Result<Slot> {
    let exe = std::env::current_exe()?;
    let mut child =
        Command::new(exe).arg("--worker").stdin(Stdio::piped()).stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "worker has no stdout")
    })?;
    let (tx, lines) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if tx.send(line.clone()).is_err() {
                        return;
                    }
                }
            }
        }
    });
    let mut slot = Slot { child, lines };
    if let Err(e) = handshake(&mut slot) {
        let _ = slot.child.kill();
        let _ = slot.child.wait();
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()));
    }
    Ok(slot)
}

fn handshake(slot: &mut Slot) -> Result<(), SpecfetchError> {
    let proto_io = |detail: String| SpecfetchError::WorkerProtocol { detail };
    let stdin = slot
        .child
        .stdin
        .as_mut()
        .ok_or_else(|| proto_io("worker stdin closed before handshake".to_owned()))?;
    stdin
        .write_all(hello_line().as_bytes())
        .and_then(|()| stdin.flush())
        .map_err(|e| proto_io(format!("could not send hello: {e}")))?;
    // Classify the observation into a protocol event and let the model's
    // transition decide whether the child is usable: only
    // AwaitingHello -> HelloOk -> Idle proceeds, everything else is
    // Dead(Handshake).
    let mut verdict = Ok(());
    let event = match slot.lines.recv_timeout(Duration::from_millis(HANDSHAKE_TIMEOUT_MS)) {
        Ok(line) => match validate_hello(&line) {
            Ok(()) => WorkerEvent::HelloOk,
            Err(e) => {
                verdict = Err(e);
                WorkerEvent::HelloBad
            }
        },
        Err(_) => {
            verdict = Err(proto_io("no hello from worker before timeout/EOF".to_owned()));
            WorkerEvent::Silence
        }
    };
    match worker_step(&WorkerState::AwaitingHello, &event) {
        Step::Next(WorkerState::Idle) => Ok(()),
        _ => verdict.and(Err(proto_io("handshake failed".to_owned()))),
    }
}

/// Why [`drive_child`] gave up on a child mid-group.
enum DriveFailure {
    /// The group exceeded its `--point-timeout` budget.
    Deadline(u64),
    /// The heartbeat window elapsed in silence.
    Hung(u64),
    /// The pipe broke or the protocol desynchronised.
    Dead(String),
}

/// Runs one job on `slot`'s child, filling `out` (pre-initialised to
/// worker-death failures) as cell lines arrive. `Ok(())` means the child
/// completed the group; `Err` means it must be killed and replaced.
fn drive_child(slot: &mut Slot, job: &Job, out: &mut [GridCell]) -> Result<(), DriveFailure> {
    let dead = DriveFailure::Dead;
    let stdin = slot.child.stdin.as_mut().ok_or_else(|| dead("worker stdin closed".to_owned()))?;
    let mut msg = Record::new("group")
        .str("bench", job.bench.name)
        .u64("instrs", job.opts.instrs_per_benchmark)
        .u64("points", job.cfgs.len() as u64)
        .seal();
    for (i, (cfg, fault)) in job.cfgs.iter().enumerate() {
        let wire = fault.map_or_else(|| "none".to_owned(), FaultAction::wire_name);
        let point = Record::new("point").u64("idx", i as u64).str("fault", &wire);
        msg.push_str(&point.str("cfg", &cfg.canonical_string()).seal());
    }
    stdin
        .write_all(msg.as_bytes())
        .and_then(|()| stdin.flush())
        .map_err(|e| dead(e.to_string()))?;

    let o = &job.opts;
    let deadline = (o.point_timeout_secs > 0)
        .then(|| Duration::from_secs(o.point_timeout_secs * job.cfgs.len() as u64));
    supervise_replies(&slot.lines, deadline, o.heartbeat_ms, o.point_timeout_secs, out)
}

/// One decoded message from a child.
#[allow(clippy::large_enum_variant)] // transient return value, matched immediately
enum Reply {
    Heartbeat,
    Done,
    Cell(u64, GridCell),
}

/// Decodes one line from a child, every field exactly once.
fn decode_reply(line: &str) -> Result<Reply, SpecfetchError> {
    let mut f = Fields::unseal(line)?;
    let reply = match f.take("kind")? {
        "hb" => Reply::Heartbeat,
        "done" => Reply::Done,
        "cell" => {
            let idx = f.take_u64("idx")?;
            let cell = match f.take_u64("ok")? {
                1 => Ok(take_result(&mut f)?),
                0 => Err(cell_failure_from_wire(f.take("fail")?, f.take_str("reason")?)),
                other => return Err(bad(format!("bad ok flag {other}"))),
            };
            Reply::Cell(idx, cell)
        }
        other => return Err(bad(format!("unexpected worker message kind {other:?}"))),
    };
    f.finish()?;
    Ok(reply)
}

/// Classifies one line from a child into a protocol [`WorkerEvent`],
/// filling `out` for cell replies. `seen` tracks already-filled indices
/// (a duplicate re-writes the slot, the model absorbs it); `detail`
/// carries the human-readable description of anything that will kill
/// the child.
fn classify_line(
    line: &str,
    seen: &mut [bool],
    out: &mut [GridCell],
    detail: &mut String,
) -> WorkerEvent {
    match decode_reply(line) {
        Ok(Reply::Heartbeat) => WorkerEvent::Heartbeat,
        Ok(Reply::Done) => WorkerEvent::Done,
        Ok(Reply::Cell(idx, cell)) => {
            let Some(i) = usize::try_from(idx).ok().filter(|&i| i < out.len()) else {
                *detail = format!("cell idx {idx} out of range");
                return WorkerEvent::Cell { in_range: false, duplicate: false };
            };
            out[i] = cell;
            let duplicate = std::mem::replace(&mut seen[i], true);
            WorkerEvent::Cell { in_range: true, duplicate }
        }
        Err(e) => {
            *detail = format!("garbled worker message {:?}: {e}", line.trim_end());
            WorkerEvent::Garbage
        }
    }
}

/// The supervision loop for one in-flight group, dispatching every
/// observation (child lines, deadline and silence timers, EOF) through
/// the model's [`worker_step`] — the checked protocol machine IS this
/// loop's control flow. Separated from [`drive_child`] so tests can
/// drive it with a hand-made channel.
///
/// Ordering matters here (regression: missed-wakeup): lines already
/// queued by the reader thread are drained *before* the deadline and
/// silence timers are consulted, so a healthy child whose final cells
/// and `done` raced a timer edge is never declared hung or over
/// deadline. Timers are only evaluated when the queue is momentarily
/// empty — which also keeps a heartbeat-spamming child from starving
/// the deadline, since the queue drains far faster than it fills.
fn supervise_replies(
    lines: &mpsc::Receiver<String>,
    deadline: Option<Duration>,
    heartbeat_ms: u64,
    point_timeout_secs: u64,
    out: &mut [GridCell],
) -> Result<(), DriveFailure> {
    let started = Instant::now();
    let mut last_heard = Instant::now();
    let mut state = WorkerState::Working { expected: out.len() as u32, filled: 0 };
    let mut seen = vec![false; out.len()];
    let mut detail = String::new();
    loop {
        let event = match lines.try_recv() {
            Ok(line) => {
                last_heard = Instant::now();
                classify_line(&line, &mut seen, out, &mut detail)
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                detail = "no reply before EOF".to_owned();
                WorkerEvent::Eof
            }
            Err(mpsc::TryRecvError::Empty) => {
                if deadline.is_some_and(|d| started.elapsed() >= d) {
                    WorkerEvent::Deadline
                } else if last_heard.elapsed() >= Duration::from_millis(heartbeat_ms) {
                    WorkerEvent::Silence
                } else {
                    match lines.recv_timeout(Duration::from_millis(SUPERVISE_POLL_MS)) {
                        Ok(line) => {
                            last_heard = Instant::now();
                            classify_line(&line, &mut seen, out, &mut detail)
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => continue,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            detail = "no reply before EOF".to_owned();
                            WorkerEvent::Eof
                        }
                    }
                }
            }
        };
        state = match worker_step(&state, &event) {
            Step::Next(next) => next,
            Step::Stay => state,
            // The machine is total over its declared events; an
            // undeclared observation is by definition a protocol
            // violation.
            Step::Unhandled => WorkerState::Dead(DeadReason::Protocol),
        };
        match state {
            WorkerState::Complete { .. } => return Ok(()),
            WorkerState::Dead(DeadReason::DeadlineExceeded) => {
                return Err(DriveFailure::Deadline(point_timeout_secs));
            }
            WorkerState::Dead(DeadReason::Hung) => return Err(DriveFailure::Hung(heartbeat_ms)),
            WorkerState::Dead(_) => return Err(DriveFailure::Dead(std::mem::take(&mut detail))),
            _ => {}
        }
    }
}

const PENDING_REASON: &str = "worker died before this point";

/// One pool worker thread: owns one child process, pulls jobs from the
/// shared queue, and replaces its child whenever it dies or hangs (each
/// replacement costs exactly the in-flight group's unfinished points —
/// transiently, so the runner's retry loop can re-dispatch them).
fn worker_thread(rx: &Mutex<mpsc::Receiver<Job>>) {
    let mut slot = spawn_child().ok();
    loop {
        let job = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        let Ok(job) = job else { return };
        let mut out: Vec<GridCell> =
            job.cfgs.iter().map(|_| Err(CellFailure::transient(PENDING_REASON))).collect();
        if slot.is_none() {
            slot = spawn_child().ok();
        }
        match &mut slot {
            None => {
                for cell in &mut out {
                    *cell = Err(CellFailure::transient("could not spawn worker process"));
                }
            }
            Some(s) => {
                if let Err(e) = drive_child(s, &job, &mut out) {
                    let fill = match e {
                        DriveFailure::Deadline(secs) => {
                            CellFailure::from_error(&SpecfetchError::Timeout { seconds: secs })
                        }
                        DriveFailure::Hung(ms) => {
                            CellFailure::transient(format!("worker hung (no heartbeat for {ms}ms)"))
                        }
                        DriveFailure::Dead(detail) => {
                            CellFailure::transient(format!("worker exited: {detail}"))
                        }
                    };
                    for cell in &mut out {
                        if let Err(f) = cell {
                            if f.reason == PENDING_REASON {
                                *f = fill.clone();
                            }
                        }
                    }
                    if let Some(mut s) = slot.take() {
                        let _ = s.child.kill();
                        let _ = s.child.wait();
                    }
                }
            }
        }
        let _ = job.reply.send((job.group, out));
    }
}

/// Starts the process-wide pool of `opts.workers` children on first
/// use; `None` if no child could be spawned at all (the caller falls
/// back to in-process execution).
pub(crate) fn pool(opts: &RunOptions) -> Option<&'static WorkerPool> {
    POOL.get_or_init(|| {
        // Prove the executable can re-spawn itself (and speaks our
        // protocol) before committing.
        match spawn_child() {
            Ok(mut probe) => {
                // The probe child sees EOF on stdin and exits cleanly.
                drop(probe.child.stdin.take());
                let _ = probe.child.wait();
            }
            Err(e) => {
                eprintln!(
                    "specfetch: warning: cannot spawn worker processes ({e}); \
                     running the grid in-process"
                );
                return None;
            }
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let rx: &'static Mutex<mpsc::Receiver<Job>> = Box::leak(Box::new(Mutex::new(rx)));
        for _ in 0..opts.workers.max(1) {
            std::thread::spawn(move || worker_thread(rx));
        }
        Some(WorkerPool { jobs: tx })
    })
    .as_ref()
}

/// Set when a forwarded `hang` fault freezes this worker: the heartbeat
/// thread stops beating so the parent's heartbeat window can fire.
static FROZEN: AtomicBool = AtomicBool::new(false);

/// Writes one line to stdout under the global stdout lock (the serving
/// loop and the heartbeat thread interleave whole lines, never bytes).
fn emit(line: &str) -> std::io::Result<()> {
    let mut so = std::io::stdout().lock();
    so.write_all(line.as_bytes())?;
    so.flush()
}

/// The `--worker` child loop: handshake, then serve group requests from
/// stdin until EOF, heartbeating every ~100ms throughout. A child is
/// pure compute: it answers each group with the in-process executor
/// (`runner::simulate_configs`, one lockstep batch over the shared
/// trace) and no preflight of its own, and never touches the result
/// store or the journal — the parent plans the group
/// and settles the reply. No fault plan is installed in children, so the
/// only injected behaviour is the forwarded per-point fault.
pub fn child_loop() -> std::process::ExitCode {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut line = String::new();

    let fail = |detail: String| {
        eprintln!("specfetch worker: protocol error: {detail}");
        std::process::ExitCode::FAILURE
    };

    // Handshake first: the parent's hello must arrive (and match) before
    // anything else crosses either pipe. EOF here is the pool's spawn
    // probe — exit cleanly.
    match input.read_line(&mut line) {
        Ok(0) => return std::process::ExitCode::SUCCESS,
        Ok(_) => {}
        Err(e) => return fail(format!("stdin error: {e}")),
    }
    if let Err(e) = validate_hello(&line) {
        eprintln!("specfetch worker: {e}");
        return std::process::ExitCode::FAILURE;
    }
    if emit(&hello_line()).is_err() {
        return std::process::ExitCode::SUCCESS;
    }
    // Liveness: heartbeat until frozen or the parent goes away.
    let heartbeat = Record::new("hb").seal();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(HEARTBEAT_INTERVAL_MS));
        if FROZEN.load(Ordering::SeqCst) || emit(&heartbeat).is_err() {
            return;
        }
    });

    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(0) => return std::process::ExitCode::SUCCESS,
            Ok(_) => {}
            Err(e) => {
                eprintln!("specfetch worker: stdin error: {e}");
                return std::process::ExitCode::FAILURE;
            }
        }
        if line.trim().is_empty() {
            continue;
        }
        let group = Fields::unseal(&line).and_then(|mut f| {
            if f.take("kind")? != "group" {
                return Err(bad("expected a group record".to_owned()));
            }
            let group = (f.take_str("bench")?, f.take_u64("instrs")?, f.take_u64("points")?);
            f.finish()?;
            Ok(group)
        });
        let (bench_name, instrs, n) = match group {
            Ok(group) => group,
            Err(e) => return fail(format!("bad group message {line:?}: {e}")),
        };
        let Some(bench) = Benchmark::by_name(&bench_name) else {
            return fail(format!("unknown benchmark {bench_name:?}"));
        };

        let mut cfgs: Vec<SimConfig> = Vec::with_capacity(n as usize);
        let mut forwarded: Option<FaultAction> = None;
        for i in 0..n {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => return fail("EOF inside a group".to_owned()),
                Ok(_) => {}
                Err(e) => return fail(format!("stdin error: {e}")),
            }
            let point = Fields::unseal(&line).and_then(|mut f| {
                if f.take("kind")? != "point" || f.take_u64("idx")? != i {
                    return Err(bad(format!("expected point record {i}")));
                }
                let point = (f.take_str("fault")?, f.take_str("cfg")?);
                f.finish()?;
                Ok(point)
            });
            let (wire, canon) = match point {
                Ok(point) => point,
                Err(e) => return fail(format!("bad point message {line:?}: {e}")),
            };
            let cfg = match SimConfig::from_canonical_string(&canon) {
                Ok(c) => c,
                Err(e) => return fail(format!("bad canonical config: {e}")),
            };
            if wire != "none" {
                match FaultAction::parse(&wire) {
                    Ok(a) => forwarded = forwarded.or(Some(a)),
                    Err(e) => return fail(format!("unknown forwarded fault {wire:?}: {e}")),
                }
            }
            cfgs.push(cfg);
        }
        match forwarded {
            // Forwarded process faults fire mid-group, without replying:
            // die hard, die clean, or freeze (heartbeats stop, and the
            // parent's liveness window does the killing).
            Some(FaultAction::Abort) => fault::abort_process(),
            Some(FaultAction::Exit(code)) => crate::fault::exit_process(code),
            Some(FaultAction::Hang) => {
                FROZEN.store(true, Ordering::SeqCst);
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            _ => {}
        }

        let cells = simulate_configs(bench, instrs, &cfgs);
        let mut reply = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let rec = Record::new("cell").u64("idx", i as u64);
            let rec = match cell {
                Ok(r) => put_result(rec.u64("ok", 1), r),
                Err(f) => rec.u64("ok", 0).str("fail", fail_wire(f.kind)).str("reason", &f.reason),
            };
            reply.push_str(&rec.seal());
        }
        reply.push_str(&Record::new("done").seal());
        if emit(&reply).is_err() {
            // Parent went away; nothing left to serve.
            return std::process::ExitCode::SUCCESS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_line_validates_against_itself() {
        assert!(validate_hello(&hello_line()).is_ok());
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let e = validate_hello(&Record::new("hello").u64("proto", 1).seal()).unwrap_err();
        assert!(matches!(&e, SpecfetchError::WorkerProtocol { detail } if detail.contains("v1")));
        let e = validate_hello(&Record::new("hello").seal()).unwrap_err();
        assert!(matches!(e, SpecfetchError::WorkerProtocol { .. }));
    }

    /// A v2 peer opens with a JSON hello and gets the typed mismatch; a
    /// JSON hello that names this version (the benchmark ledger's
    /// handshake probe) is answered.
    #[test]
    fn a_v2_json_hello_is_a_typed_error() {
        let e = validate_hello("{\"kind\":\"hello\",\"proto\":2}\n").unwrap_err();
        assert!(
            matches!(&e, SpecfetchError::WorkerProtocol { detail }
                if detail.contains("v2") && detail.contains("v4")),
            "{e}"
        );
        assert!(
            validate_hello(&format!("{{\"kind\":\"hello\",\"proto\":{PROTO_VERSION}}}\n")).is_ok()
        );
        for garbled in ["{\"kind\":\"hello\",\"proto\":3,\"x\":1}", "{\"kind\":\"hello\"}"] {
            let e = validate_hello(garbled).unwrap_err();
            assert!(
                matches!(&e, SpecfetchError::WorkerProtocol { detail } if detail.contains("v4 hello"))
            );
        }
    }

    #[test]
    fn fail_classes_round_trip_the_wire() {
        for kind in [FailKind::Terminal, FailKind::Transient, FailKind::Interrupted] {
            let back = cell_failure_from_wire(fail_wire(kind), "x".to_owned());
            assert_eq!(back.kind, kind, "{kind:?} must survive the pipe");
        }
        let unknown = cell_failure_from_wire("bogus", "x".to_owned());
        assert_eq!(unknown.kind, FailKind::Transient, "an unclassified cell stays retryable");
    }

    #[test]
    fn non_hello_first_message_is_a_typed_error() {
        let e = validate_hello(&Record::new("group").str("bench", "li").seal()).unwrap_err();
        assert!(
            matches!(&e, SpecfetchError::WorkerProtocol { detail } if detail.contains("hello"))
        );
    }

    /// A sealed failed-cell line for slot `idx`.
    fn failed_cell(idx: u64, reason: &str) -> String {
        let cell = Record::new("cell").u64("idx", idx).u64("ok", 0).str("fail", "terminal");
        cell.str("reason", reason).seal()
    }

    fn pending_out(n: usize) -> Vec<GridCell> {
        (0..n).map(|_| Err(CellFailure::transient(PENDING_REASON))).collect()
    }

    /// Regression (model invariant: a Working child with its replies
    /// already delivered must reach Complete, not Dead). The old loop
    /// consulted the deadline and silence timers *before* draining the
    /// channel, so a healthy child whose final cell and `done` were
    /// already queued — racing a timer edge or the reader thread's
    /// disconnect — was declared hung/over-deadline and its finished
    /// work thrown away. Queued lines must win over timers.
    #[test]
    fn queued_replies_beat_an_expired_timer_and_a_disconnect() {
        let (tx, rx) = mpsc::channel::<String>();
        tx.send(failed_cell(0, "boom")).unwrap();
        tx.send(Record::new("done").seal()).unwrap();
        drop(tx); // reader thread gone: the disconnect races the replies
        let mut out = pending_out(1);
        // Both timers are already expired when supervision starts.
        let r = supervise_replies(&rx, Some(Duration::ZERO), 0, 30, &mut out);
        assert!(r.is_ok(), "queued done must complete the group");
        let f = out[0].as_ref().unwrap_err();
        assert_eq!(f.reason, "boom", "the queued cell must be applied");
        assert_eq!(f.kind, FailKind::Terminal);
    }

    #[test]
    fn silence_past_the_heartbeat_window_is_hung() {
        let (tx, rx) = mpsc::channel::<String>();
        let mut out = pending_out(1);
        let r = supervise_replies(&rx, None, 1, 30, &mut out);
        assert!(matches!(r, Err(DriveFailure::Hung(1))));
        drop(tx);
        assert!(matches!(&out[0], Err(f) if f.reason == PENDING_REASON), "slot left transient");
    }

    #[test]
    fn eof_with_nothing_queued_is_dead() {
        let (tx, rx) = mpsc::channel::<String>();
        drop(tx);
        let mut out = pending_out(2);
        let r = supervise_replies(&rx, None, 5_000, 30, &mut out);
        assert!(matches!(r, Err(DriveFailure::Dead(d)) if d == "no reply before EOF"));
    }

    #[test]
    fn protocol_violations_kill_the_child_with_a_detail() {
        let cell = || Record::new("cell");
        for (line, needle) in [
            (Record::new("mystery").seal(), "unexpected worker message kind"),
            (cell().u64("ok", 1).seal(), "missing key \"idx\""),
            (failed_cell(9, "x"), "out of range"),
            (cell().u64("idx", 0).u64("ok", 1).seal(), "missing key \"policy\""),
            (cell().u64("idx", 0).seal(), "missing key \"ok\""),
            (Record::new("done").u64("extra", 1).seal(), "unknown or repeated keys"),
            ("{\"kind\":\"done\"}\n".to_owned(), "no checksum"),
        ] {
            let (tx, rx) = mpsc::channel::<String>();
            tx.send(line.clone()).unwrap();
            let mut out = pending_out(1);
            let r = supervise_replies(&rx, None, 5_000, 30, &mut out);
            match r {
                Err(DriveFailure::Dead(d)) => assert!(d.contains(needle), "{line:?}: {d}"),
                _ => panic!("{line:?} must kill the child"),
            }
            drop(tx);
        }
    }

    /// A pipe line with one flipped byte is garbage, not a cell.
    #[test]
    fn a_flipped_byte_classifies_as_garbage() {
        let good = failed_cell(0, "boom");
        let mut out = pending_out(1);
        let mut seen = vec![false];
        let mut detail = String::new();
        assert_eq!(
            classify_line(&good, &mut seen, &mut out, &mut detail),
            WorkerEvent::Cell { in_range: true, duplicate: false }
        );
        for i in 0..good.len() - 1 {
            let mut bytes = good.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(line) = String::from_utf8(bytes) else { continue };
            let mut out = pending_out(1);
            let event = classify_line(&line, &mut [false], &mut out, &mut detail);
            assert_eq!(event, WorkerEvent::Garbage, "byte {i} flipped: {line:?}");
            assert!(matches!(&out[0], Err(f) if f.reason == PENDING_REASON), "slot untouched");
        }
    }

    /// A duplicate cell index re-writes the slot (last write wins) and
    /// the group still completes — the model absorbs duplicates.
    #[test]
    fn duplicate_cells_are_absorbed() {
        let (tx, rx) = mpsc::channel::<String>();
        for reason in ["first", "second"] {
            tx.send(failed_cell(0, reason)).unwrap();
        }
        tx.send(Record::new("done").seal()).unwrap();
        let mut out = pending_out(1);
        let r = supervise_replies(&rx, None, 5_000, 30, &mut out);
        assert!(r.is_ok());
        assert!(matches!(&out[0], Err(f) if f.reason == "second"));
        drop(tx);
    }
}
