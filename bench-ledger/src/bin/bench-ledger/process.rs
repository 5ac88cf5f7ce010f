//! Child processes of the measured program: locating and checking the
//! binary, running it with its run time calibrated and its peak memory
//! sampled, and scratch directories inside the build directory.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant, SystemTime};

use specfetch_bench_ledger::calib::{Calibrator, Timing, PERIOD};
use specfetch_bench_ledger::parse::{dep_info_paths, stat_ppid, vm_hwm_kib};

use crate::os::{allowed_cpus, pin_to, signal_group, Signal};

/// An error that ends the run with exit code 2 rather than 1: the
/// benchmark could not start, as opposed to the program misbehaving.
pub struct Unusable(pub String);

/// Where the measured binary and the scratch space live, and the CPUs
/// the run uses.
pub struct Env {
    /// The `specfetch-repro` binary under test.
    pub repro: PathBuf,
    /// A scratch directory for this run, removed when the run ends.
    work: PathBuf,
    /// The CPU for the benchmark's own helper threads, when the host
    /// has a second one: the measured program and the calibration
    /// kernel share the first.
    helper: Option<usize>,
    /// The host-speed calibration kernel.
    cal: RefCell<Calibrator>,
}

impl Env {
    /// Finds `specfetch-repro` in the Cargo target directory
    /// (`$CARGO_TARGET_DIR`, else `target/` under the working
    /// directory) and checks it is at least as new as every source its
    /// dep-info lists, so a stale build is never measured. Then pins the
    /// calling thread, and so every process the run spawns, to the first
    /// CPU it may use: the calibration kernel must run on the CPU whose
    /// speed it stands for.
    pub fn locate(workload: &str) -> Result<Env, Unusable> {
        let cwd = std::env::current_dir().map_err(|e| Unusable(format!("cwd: {e}")))?;
        let target =
            cwd.join(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
        let repro = target.join("release").join("specfetch-repro");
        let built = mtime(&repro).ok_or_else(|| {
            Unusable(format!(
                "{} is missing; build it first (cargo build --release -p specfetch-service)",
                repro.display()
            ))
        })?;
        let dep_info = std::fs::read_to_string(repro.with_extension("d"))
            .map_err(|e| Unusable(format!("{}.d: {e}", repro.display())))?;
        for src in dep_info_paths(&dep_info) {
            if mtime(Path::new(&src)).is_none_or(|m| m > built) {
                return Err(Unusable(format!(
                    "{} is older than {src}; rebuild it (cargo build --release -p specfetch-service)",
                    repro.display()
                )));
            }
        }
        let work = target.join("ledger-work").join(format!("{workload}-{}", std::process::id()));
        fresh_dir(&work).map_err(Unusable)?;
        let cpus = allowed_cpus();
        let main = cpus.first().copied().filter(|&c| pin_to(c));
        let helper = cpus.get(1).copied().filter(|_| main.is_some());
        Ok(Env { repro, work, helper, cal: RefCell::new(Calibrator::new()) })
    }

    /// A command running the measured binary.
    pub fn repro(&self) -> Command {
        Command::new(&self.repro)
    }

    /// A fresh, empty directory `name` under the run's scratch space.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let d = self.work.join(name);
        fresh_dir(&d)?;
        Ok(d)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn mtime(p: &Path) -> Option<SystemTime> {
    std::fs::metadata(p).and_then(|m| m.modified()).ok()
}

fn fresh_dir(d: &Path) -> Result<(), String> {
    if d.exists() {
        std::fs::remove_dir_all(d).map_err(|e| format!("clearing {}: {e}", d.display()))?;
    }
    std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))
}

/// One finished child.
pub struct Run {
    /// Spawn to exit in seconds, calibration stops excluded.
    pub wall_s: f64,
    /// The same at nominal host speed ([`specfetch_bench_ledger::calib`]).
    pub scaled_s: f64,
    /// Whether it exited with status 0.
    pub ok: bool,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
    /// Peak resident set in MiB: the sum of `VmHWM` over the child and,
    /// when sampled, its own children.
    pub peak_mb: f64,
}

/// Runs a child to completion. No child is allowed this long; one that
/// runs over is killed and reported as failed.
const DEADLINE_S: f64 = 150.0;

/// How often `VmHWM` is sampled. The high-water mark only grows, so the
/// last sample before exit misses at most this much of the run's end.
const SAMPLE: Duration = Duration::from_millis(5);

/// Moves the calling helper thread to `cpu`, off the measured
/// program's.
fn pin_helper(cpu: Option<usize>) {
    if let Some(c) = cpu {
        pin_to(c);
    }
}

/// Reads one of the child's output pipes to its end on the helper CPU,
/// then reports when the end came.
fn drain(helper: Option<usize>, pipe: Option<impl Read>, eof: &Sender<Instant>) -> Vec<u8> {
    pin_helper(helper);
    let mut bytes = Vec::new();
    if let Some(mut p) = pipe {
        let _ = p.read_to_end(&mut bytes);
    }
    let _ = eof.send(Instant::now());
    bytes
}

/// Runs `cmd` in a process group of its own, sampling its peak memory;
/// with `tree`, its direct children (worker processes) are found and
/// summed in too. Every [`PERIOD`] of run time the group is stopped
/// while the calibration kernel runs on its CPU, so the run's time can
/// be scaled segment by segment.
pub fn run(env: &Env, cmd: &mut Command, tree: bool) -> Result<Run, String> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped()).process_group(0);
    let mut cal = env.cal.borrow_mut();
    let mut before = cal.measure();
    let mut child = cmd.spawn().map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let pid = child.id();
    let (stdout, stderr) = (child.stdout.take(), child.stderr.take());
    let done = AtomicBool::new(false);
    let (eof, eofs) = channel();
    let eof2 = eof.clone();
    let helper = env.helper;
    let (timing, out, err, status, peaks) = std::thread::scope(|s| {
        let out = s.spawn(move || drain(helper, stdout, &eof));
        let err = s.spawn(move || drain(helper, stderr, &eof2));
        let peaks = s.spawn(|| {
            pin_helper(helper);
            let mut peaks: HashMap<u32, u64> = HashMap::new();
            let mut tick = 0u32;
            while !done.load(Ordering::SeqCst) {
                if tree && tick.is_multiple_of(20) {
                    for kid in children_of(pid) {
                        peaks.entry(kid).or_insert(0);
                    }
                }
                peaks.entry(pid).or_insert(0);
                for (p, peak) in peaks.iter_mut() {
                    if let Some(kib) = read_hwm(*p) {
                        *peak = (*peak).max(kib);
                    }
                }
                tick += 1;
                std::thread::sleep(SAMPLE);
            }
            peaks
        });
        let mut timing = Timing::default();
        let mut segment = Instant::now();
        let mut closed = 0;
        // Both pipes close when the group exits; until then, calibrate
        // every PERIOD with the group stopped.
        let end = loop {
            match eofs.recv_timeout(PERIOD) {
                Ok(at) if closed == 1 => break at,
                Ok(_) => closed += 1,
                Err(RecvTimeoutError::Disconnected) => break Instant::now(),
                Err(RecvTimeoutError::Timeout) => {
                    signal_group(pid, Signal::Stop);
                    let ran = segment.elapsed().as_secs_f64();
                    let after = cal.measure();
                    timing.add(ran, before, after);
                    before = after;
                    if timing.wall_s > DEADLINE_S {
                        signal_group(pid, Signal::Kill);
                    }
                    signal_group(pid, Signal::Cont);
                    segment = Instant::now();
                }
            }
        };
        let after = cal.measure();
        timing.add(end.saturating_duration_since(segment).as_secs_f64(), before, after);
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        let joined = |h: std::thread::ScopedJoinHandle<'_, Vec<u8>>| h.join().unwrap_or_default();
        (timing, joined(out), joined(err), status, peaks.join().unwrap_or_default())
    });
    let status = status.map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    Ok(Run {
        wall_s: timing.wall_s,
        scaled_s: timing.scaled_s,
        ok: status.success(),
        stdout: String::from_utf8_lossy(&out).into_owned(),
        stderr: String::from_utf8_lossy(&err).into_owned(),
        peak_mb: peaks.values().sum::<u64>() as f64 / 1024.0,
    })
}

/// `VmHWM` of a live process, in KiB.
pub fn read_hwm(pid: u32) -> Option<u64> {
    vm_hwm_kib(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// Direct children of `pid`, found by scanning `/proc/*/stat`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|p| {
            std::fs::read_to_string(format!("/proc/{p}/stat")).ok().and_then(|s| stat_ppid(&s))
                == Some(pid)
        })
        .collect()
}

/// Median start-up time of `specfetch-repro --list`, in ms.
pub fn startup_ms(env: &Env, samples: usize) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..samples {
        let r = run(env, env.repro().arg("--list"), false)?;
        if !r.ok {
            return Err(format!("--list failed: {}", r.stderr));
        }
        walls.push(r.wall_s * 1e3);
    }
    specfetch_bench_ledger::stats::median(&walls).ok_or_else(|| "no start-up samples".to_owned())
}

/// Median time from spawning a `--worker` child to reading its hello
/// reply, in ms: the per-worker cost of the sharded pipe protocol.
pub fn worker_spawn_ms(env: &Env, samples: usize) -> Result<f64, String> {
    let hello = format!(
        "{{\"kind\":\"hello\",\"proto\":{}}}\n",
        specfetch_experiments::worker::PROTO_VERSION
    );
    let mut walls = Vec::new();
    for _ in 0..samples {
        let start = Instant::now();
        let mut child = env
            .repro()
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning a worker: {e}"))?;
        let reply = (|| {
            child.stdin.as_mut()?.write_all(hello.as_bytes()).ok()?;
            let mut line = String::new();
            BufReader::new(child.stdout.as_mut()?).read_line(&mut line).ok()?;
            Some(line)
        })();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        // Closing stdin ends the worker's loop.
        drop(child.stdin.take());
        drop(child.stdout.take());
        let _ = child.wait();
        let reply = reply.ok_or("no hello from the worker")?;
        specfetch_experiments::worker::validate_hello(&reply).map_err(|e| e.to_string())?;
        walls.push(wall);
    }
    specfetch_bench_ledger::stats::median(&walls).ok_or_else(|| "no worker samples".to_owned())
}

/// Lines in every sweep journal under a result directory.
pub fn wal_records(result_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(result_dir.join("journal")) else { return 0 };
    entries
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path()).ok())
        .map(|text| text.lines().count() as u64)
        .sum()
}
