//! End-to-end tests of the supervision layer: deadlines, heartbeats,
//! retry-with-backoff, the negative cache, the sweep journal, graceful
//! shutdown, and the worker protocol handshake (DESIGN §5j).

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use specfetch_experiments::codec::{Fields, Record};
use specfetch_experiments::worker::PROTO_VERSION;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .args(args)
        .output()
        .expect("spawning specfetch-repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("specfetch-supervision-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// Parses the `[result-store] hits=H stores=S` stderr line.
fn store_stats(err: &str) -> (u64, u64) {
    let line = err
        .lines()
        .find(|l| l.starts_with("[result-store]"))
        .unwrap_or_else(|| panic!("no [result-store] line in: {err}"));
    let field = |key: &str| {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("bad stats line: {line}"))
    };
    (field("hits="), field("stores="))
}

/// Completed `.sr` entries currently in a store directory.
fn store_entries(dir: &std::path::Path) -> usize {
    let format = specfetch_experiments::result_store::FORMAT_VERSION;
    match std::fs::read_dir(dir.join(format!("v{format}"))) {
        Ok(entries) => {
            entries.flatten().filter(|e| e.file_name().to_string_lossy().ends_with(".sr")).count()
        }
        Err(_) => 0,
    }
}

// ---------------------------------------------------------------------
// Liveness: hangs, deadlines, retries
// ---------------------------------------------------------------------

/// The headline acceptance scenario: a worker that hangs at point N is
/// detected by the heartbeat window, killed, respawned, and the point
/// retried — the final table is byte-identical to an uninjected run.
#[test]
fn a_hung_worker_is_killed_respawned_and_the_retried_table_is_byte_identical() {
    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    assert_eq!(baseline.status.code(), Some(0), "{}", stderr(&baseline));

    let out = repro(&[
        "--experiment",
        "table3",
        "--instrs",
        "2000",
        "--workers",
        "2",
        "--point-timeout",
        "30",
        "--heartbeat-ms",
        "500",
        "--retries",
        "1",
        "--backoff-ms",
        "1",
        "--inject",
        "point=table3:2,hang*1",
    ]);
    assert_eq!(out.status.code(), Some(0), "retry must recover: {}", stderr(&out));
    assert_eq!(stdout(&out), stdout(&baseline), "recovered table must be byte-identical");
}

/// Without retries, the killed worker's point renders as a transient
/// heartbeat failure instead of wedging the run.
#[test]
fn a_hung_worker_without_retries_fails_its_cell_with_the_heartbeat_reason() {
    let out = repro(&[
        "--experiment",
        "table3",
        "--instrs",
        "2000",
        "--workers",
        "2",
        "--heartbeat-ms",
        "400",
        "--inject",
        "point=table3:2,hang",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("FAILED(worker hung (no heartbeat for 400ms))"), "{text}");
    assert!(text.contains("porky"), "sibling rows still render: {text}");
}

/// The in-process deadline: a hang with `--point-timeout` but no workers
/// resolves cooperatively into a typed timeout cell.
#[test]
fn an_in_process_hang_times_out_with_the_deadline_reason() {
    let out = repro(&[
        "--experiment",
        "table3",
        "--instrs",
        "2000",
        "--point-timeout",
        "1",
        "--inject",
        "point=table3:2,hang",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("FAILED(timeout after 1s)"), "{}", stdout(&out));
}

/// `exitcode=<n>` kills the worker with that code; the parent reports a
/// worker death, and one retry recovers byte-identically.
#[test]
fn an_injected_exitcode_fault_is_retried_like_any_worker_death() {
    let baseline = repro(&["--experiment", "table4", "--instrs", "2000"]);
    let out = repro(&[
        "--experiment",
        "table4",
        "--instrs",
        "2000",
        "--workers",
        "2",
        "--retries",
        "1",
        "--backoff-ms",
        "1",
        "--inject",
        "point=table4:1,exitcode=7*1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), stdout(&baseline));
}

/// A transient injected error burns out after its attempt limit, so
/// `--retries` converges to the uninjected table in-process too.
#[test]
fn transient_errors_retry_in_process_and_converge() {
    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    let out = repro(&[
        "--experiment",
        "table3",
        "--instrs",
        "2000",
        "--retries",
        "2",
        "--backoff-ms",
        "1",
        "--inject",
        "point=table3:0,err*1;point=table3:4,err*2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), stdout(&baseline));
}

// ---------------------------------------------------------------------
// Chaos soak: seeded kills + hangs vs the uninjected run
// ---------------------------------------------------------------------

/// The chaos-soak harness: `soak=<permille>@<seed>` kills or freezes a
/// seeded sample of first-attempt points at the process level; with
/// supervision on, the sweep's final table must be byte-identical to a
/// run with no injection at all.
#[test]
fn chaos_soak_under_supervision_is_byte_identical_to_the_clean_sweep() {
    let sweep = "policy=Res,Pess cache=8K penalty=5,20 metric=ispi";
    let baseline = repro(&["--sweep", sweep, "--instrs", "2000"]);
    assert_eq!(baseline.status.code(), Some(0), "{}", stderr(&baseline));

    let out = repro(&[
        "--sweep",
        sweep,
        "--instrs",
        "2000",
        "--workers",
        "2",
        "--point-timeout",
        "30",
        "--heartbeat-ms",
        "500",
        "--retries",
        "3",
        "--backoff-ms",
        "1",
        "--inject",
        "soak=250@7",
    ]);
    assert_eq!(out.status.code(), Some(0), "soak must fully recover: {}", stderr(&out));
    assert_eq!(stdout(&out), stdout(&baseline), "soaked sweep must match the clean one");
}

// ---------------------------------------------------------------------
// Negative cache
// ---------------------------------------------------------------------

/// A terminal failure is negatively cached: the re-run replays the
/// FAILED cell from the store without recomputing, and `--retry-failed`
/// opts back into recomputation (whose success overwrites the entry).
#[test]
fn terminal_failures_replay_from_the_negative_cache_until_retry_failed() {
    let dir = scratch("negcache");
    let dir_s = dir.to_str().unwrap();
    let base = ["--experiment", "table3", "--instrs", "2000", "--result-dir", dir_s];

    let first = repro(&[&base[..], &["--inject", "point=table3:2,panic"]].concat());
    assert_eq!(first.status.code(), Some(1), "{}", stderr(&first));
    assert!(stdout(&first).contains("FAILED(injected panic)"));
    let (_, first_stores) = store_stats(&stderr(&first));

    // No injection this time — yet the failure replays from the store.
    let replay = repro(&base);
    assert_eq!(replay.status.code(), Some(1), "{}", stderr(&replay));
    assert!(
        stdout(&replay).contains("FAILED(injected panic)"),
        "the cached reason replays verbatim: {}",
        stdout(&replay)
    );
    let (replay_hits, replay_stores) = store_stats(&stderr(&replay));
    assert_eq!(replay_stores, 0, "a negatively cached run recomputes nothing");
    assert_eq!(replay_hits, first_stores, "every entry, failed one included, is a hit");

    // Opting back in recomputes the bad point and heals the store.
    let healed = repro(&[&base[..], &["--retry-failed"]].concat());
    assert_eq!(healed.status.code(), Some(0), "{}", stderr(&healed));
    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    assert_eq!(stdout(&healed), stdout(&baseline), "healed table matches a clean run");

    let warm = repro(&base);
    assert_eq!(warm.status.code(), Some(0), "the healed entry persists");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Graceful shutdown + journal resume
// ---------------------------------------------------------------------

/// SIGINT mid-sweep: the run drains, flushes store + journal, reports a
/// partial summary, and exits 130. The `--resume` run replays every
/// completed point from the store (hits == the killed run's stores) and
/// produces the same bytes as a never-interrupted run.
#[test]
fn sigint_mid_run_exits_130_and_resume_recomputes_no_completed_point() {
    let dir = scratch("sigint");
    let dir_s = dir.to_str().unwrap();
    std::fs::create_dir_all(&dir).unwrap();

    // Point 5 hangs forever (no deadline), pinning the run mid-sweep
    // while every other point completes and lands in the store.
    let child = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .args([
            "--experiment",
            "table3",
            "--instrs",
            "2000",
            "--result-dir",
            dir_s,
            "--inject",
            "point=table3:5,hang",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning specfetch-repro");

    // Wait until real progress is on disk, then interrupt gracefully.
    let started = Instant::now();
    while store_entries(&dir) < 3 {
        assert!(started.elapsed() < Duration::from_secs(60), "no store progress before SIGINT");
        std::thread::sleep(Duration::from_millis(50));
    }
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("sending SIGINT");
    assert!(kill.success(), "kill -INT must succeed");
    let killed = child.wait_with_output().expect("waiting for the interrupted run");

    assert_eq!(killed.status.code(), Some(130), "graceful interrupt exits 130");
    let err = stderr(&killed);
    assert!(err.contains("interrupted —"), "partial summary on stderr: {err}");
    let (_, killed_stores) = store_stats(&err);
    assert!(killed_stores >= 3, "completed points persisted before exit: {err}");
    let wals: Vec<_> = std::fs::read_dir(dir.join("journal"))
        .expect("journal dir exists")
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    assert_eq!(wals.len(), 1, "one journal per run key: {wals:?}");
    assert!(wals[0].starts_with("run-") && wals[0].ends_with(".wal"), "{wals:?}");

    // Resume: every completed point is a store hit — zero recomputation
    // of finished work — and the output matches a clean run.
    let resumed =
        repro(&["--experiment", "table3", "--instrs", "2000", "--result-dir", dir_s, "--resume"]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let (hits, stores) = store_stats(&stderr(&resumed));
    assert_eq!(hits, killed_stores, "every completed point must resume as a hit");
    assert!(stores > 0, "the interrupted remainder is computed");

    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    assert_eq!(stdout(&resumed), stdout(&baseline), "resume must not change the report");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// SIGINT while worker children are in flight: interactively, a Ctrl-C
/// SIGINTs the whole foreground process group, so the handler-less
/// children die and their unfinished points surface as *transient*
/// worker failures. Those are interruptions, not failures — the journal
/// must record them as interrupted (never negatively cache them), and
/// `--resume` must recompute them instead of replaying
/// `FAILED(worker hung ...)` cells.
#[test]
fn sigint_with_workers_resumes_in_flight_transients_instead_of_replaying_them() {
    let dir = scratch("sigint-workers");
    let dir_s = dir.to_str().unwrap();
    std::fs::create_dir_all(&dir).unwrap();

    // Point 5 freezes its worker; the generous heartbeat window keeps
    // that group in flight long after the store shows real progress, so
    // the SIGINT below lands mid-drive and the eventual heartbeat kill
    // resolves under an already-requested shutdown.
    let child = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .args([
            "--experiment",
            "table3",
            "--instrs",
            "2000",
            "--result-dir",
            dir_s,
            "--workers",
            "2",
            "--heartbeat-ms",
            "8000",
            "--inject",
            "point=table3:5,hang",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning specfetch-repro");

    let started = Instant::now();
    while store_entries(&dir) < 1 {
        assert!(started.elapsed() < Duration::from_secs(60), "no store progress before SIGINT");
        std::thread::sleep(Duration::from_millis(50));
    }
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("sending SIGINT");
    assert!(kill.success(), "kill -INT must succeed");
    let killed = child.wait_with_output().expect("waiting for the interrupted run");
    assert_eq!(killed.status.code(), Some(130), "graceful interrupt exits 130");

    // No injection this time: if the hung point had been journaled as a
    // terminal failure, this would replay its FAILED cell (exit 1 and a
    // different table) instead of recomputing it.
    let resumed =
        repro(&["--experiment", "table3", "--instrs", "2000", "--result-dir", dir_s, "--resume"]);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    assert_eq!(stdout(&resumed), stdout(&baseline), "interrupted points must recompute");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A first invocation that already passes `--resume` (nothing to replay
/// yet) must still create a headed journal the next `--resume` can load.
#[test]
fn a_first_invocation_with_resume_writes_a_loadable_journal() {
    let dir = scratch("fresh-resume");
    let base =
        ["--experiment", "table3", "--instrs", "2000", "--result-dir", dir.to_str().unwrap()];
    let first = repro(&[&base[..], &["--resume"]].concat());
    assert_eq!(first.status.code(), Some(0), "{}", stderr(&first));

    let second = repro(&[&base[..], &["--resume"]].concat());
    assert_eq!(second.status.code(), Some(0), "the journal must reload: {}", stderr(&second));
    let (hits, stores) = store_stats(&stderr(&second));
    assert_eq!(stores, 0, "the resumed rerun recomputes nothing");
    assert!(hits > 0, "completed points resume as store hits");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sweep journal events must carry the `sweep` experiment id, exactly
/// like `run_experiment` journals its id — not an empty field.
#[test]
fn sweep_journal_events_carry_the_sweep_experiment_id() {
    let dir = scratch("sweep-journal");
    let out = repro(&[
        "--sweep",
        "policy=Res,Pess cache=8K metric=ispi",
        "--instrs",
        "2000",
        "--result-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let wal = std::fs::read_dir(dir.join("journal"))
        .expect("journal dir exists")
        .flatten()
        .next()
        .expect("one journal per run")
        .path();
    let text = std::fs::read_to_string(&wal).unwrap();
    let events: Vec<(String, String)> = text
        .lines()
        .skip(1) // the header
        .map(|l| {
            let mut f = Fields::unseal(l).expect("sealed record");
            (f.take_str("kind").unwrap(), f.take_str("exp").unwrap())
        })
        .collect();
    let has = |kind: &str| events.iter().any(|(k, exp)| k == kind && exp == "sweep");
    assert!(has("s"), "scheduled events: {text}");
    assert!(has("c"), "completed events: {text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Worker protocol handshake
// ---------------------------------------------------------------------

/// A version-mismatched hello record is refused with a typed protocol
/// error, not a parse failure further into the stream.
#[test]
fn worker_protocol_version_mismatch_is_a_typed_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning worker");
    child
        .stdin
        .take()
        .expect("worker stdin")
        .write_all(Record::new("hello").u64("proto", 99).seal().as_bytes())
        .expect("writing hello");
    let out = child.wait_with_output().expect("waiting for worker");
    assert_eq!(out.status.code(), Some(1), "mismatch is fatal");
    let err = stderr(&out);
    assert!(
        err.contains("protocol")
            && err.contains("v99")
            && err.contains(&format!("v{PROTO_VERSION}")),
        "typed mismatch on stderr: {err}"
    );
    assert!(stdout(&out).is_empty(), "no protocol traffic after a refused hello");
}

/// A worker probed with EOF (no hello at all) exits cleanly — that is
/// the pool's spawn probe.
#[test]
fn worker_with_immediate_eof_exits_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .arg("--worker")
        .stdin(Stdio::null())
        .output()
        .expect("spawning worker");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

// ---------------------------------------------------------------------
// CLI validation
// ---------------------------------------------------------------------

#[test]
fn resume_without_a_result_dir_is_a_usage_error() {
    let out = repro(&["--experiment", "table3", "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--resume needs --result-dir"), "{}", stderr(&out));
}

#[test]
fn bad_supervision_flag_values_exit_2() {
    for args in [
        &["--retries", "x"][..],
        &["--point-timeout", "-1"][..],
        &["--backoff-ms", "ten"][..],
        &["--heartbeat-ms", "0"][..],
        // Below the ~100ms child beat interval every healthy worker
        // would read as hung; the CLI requires at least twice the beat.
        &["--heartbeat-ms", "199"][..],
    ] {
        let out = repro(&[&["--experiment", "table3"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    }
}
