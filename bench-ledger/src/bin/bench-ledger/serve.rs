//! The `serve-jobs` client side: a `--serve` child, a minimal HTTP/1.1
//! client, and the closed loop of job submissions.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use specfetch_bench_ledger::jobs::{job_body, Job, WARMUP_SPEC};
use specfetch_bench_ledger::tracer::{Args, Kind, Tracer};
use specfetch_bench_ledger::JOB_WINDOW;

/// A running `specfetch-repro --serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The bound address.
    pub addr: SocketAddr,
    /// Spawn to the `[serve] listening on` line, in seconds.
    pub ready_s: f64,
}

impl Server {
    /// Starts a single-core server (one job slot, `--sequential`) on an
    /// ephemeral port and waits until it listens.
    pub fn start(repro: &Path) -> Result<Server, String> {
        let start = Instant::now();
        let mut child = Command::new(repro)
            .args(["--serve", "127.0.0.1:0", "--jobs", "1", "--sequential", "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let Some(stderr) = child.stderr.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stderr was not captured".to_owned());
        };
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("the server exited before listening".to_owned());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("[serve] listening on ") {
                        match a.parse::<SocketAddr>() {
                            Ok(a) => break a,
                            Err(e) => return Err(format!("bad listen address {a:?}: {e}")),
                        }
                    }
                }
            }
        };
        let ready_s = start.elapsed().as_secs_f64();
        // Keep reading stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        Ok(Server { child, drain: Some(drain), addr, ready_s })
    }

    /// The server's peak resident set so far, in MiB.
    pub fn peak_mb(&self) -> Option<f64> {
        crate::process::read_hwm(self.child.id()).map(|kib| kib as f64 / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// A response's raw bytes, and for every read the offset it ended at
/// and when it completed.
type Received = (Vec<u8>, Vec<(usize, f64)>);

/// Sends one request on a fresh connection (the server closes every
/// connection after one response) and returns the raw response bytes
/// with the time each read completed, in seconds from `clock`.
fn exchange(addr: SocketAddr, request: &str, clock: &dyn Fn() -> f64) -> Result<Received, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
    s.write_all(request.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut bytes = Vec::new();
    let mut reads = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        let n = s.read(&mut buf).map_err(|e| format!("receive: {e}"))?;
        reads.push((bytes.len() + n, clock()));
        if n == 0 {
            return Ok((bytes, reads));
        }
        bytes.extend_from_slice(&buf[..n]);
    }
}

fn request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Status code and body offset of a response.
fn head(bytes: &[u8]) -> Result<(u16, usize), String> {
    let end =
        bytes.windows(4).position(|w| w == b"\r\n\r\n").ok_or("response without a header end")?;
    let status = std::str::from_utf8(&bytes[..end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1)?.parse().ok())
        .ok_or("response without a status")?;
    Ok((status, end + 4))
}

/// Offsets `[start, end)` of every chunk's data in a chunked body.
fn chunks(bytes: &[u8], mut pos: usize) -> Result<Vec<(usize, usize)>, String> {
    let mut out = Vec::new();
    loop {
        let line_end =
            bytes[pos..].windows(2).position(|w| w == b"\r\n").ok_or("truncated chunk size")? + pos;
        let size = std::str::from_utf8(&bytes[pos..line_end])
            .ok()
            .and_then(|h| usize::from_str_radix(h.trim(), 16).ok())
            .ok_or("bad chunk size")?;
        if size == 0 {
            return Ok(out);
        }
        let start = line_end + 2;
        if start + size > bytes.len() {
            return Err("truncated chunk".to_owned());
        }
        out.push((start, start + size));
        pos = start + size + 2;
    }
}

/// When the read that delivered byte `offset` completed.
fn arrival(reads: &[(usize, f64)], offset: usize) -> f64 {
    reads.iter().find(|(end, _)| *end > offset).or(reads.last()).map_or(0.0, |r| r.1)
}

/// One job's timings (seconds) and result.
pub struct JobSample {
    /// Index into the job mix.
    pub index: usize,
    /// POST sent to the last byte of the result.
    pub latency_s: f64,
    /// POST sent to the job id received.
    pub submit_s: f64,
    /// POST sent to the first streamed row.
    pub first_row_s: f64,
    /// Last streamed row to the stream's end.
    pub close_lag_s: f64,
    /// Stream end to the last byte of the result.
    pub result_s: f64,
    /// The result body.
    pub body: String,
}

/// Submits `body`, follows its row stream to the end, then fetches the
/// result. With a tracer, the job and its three requests become spans.
pub fn run_job(addr: SocketAddr, body: &str, t: Option<&Tracer>) -> Result<JobSample, String> {
    let origin = Instant::now();
    let clock = || match t {
        Some(t) => t.now_us() / 1e6,
        None => origin.elapsed().as_secs_f64(),
    };
    let t0 = clock();
    let (bytes, _) = exchange(addr, &request("POST", "/jobs", body), &clock)?;
    let (status, at) = head(&bytes)?;
    let text = String::from_utf8_lossy(&bytes[at..]);
    let id = specfetch_experiments::codec::json_u64_field(&text, "id")
        .filter(|_| status == 201)
        .ok_or_else(|| format!("submit refused ({status}): {text}"))?;
    let t1 = clock();

    let (bytes, reads) =
        exchange(addr, &request("GET", &format!("/jobs/{id}/stream"), ""), &clock)?;
    let (status, at) = head(&bytes)?;
    if status != 200 {
        return Err(format!("stream of job {id} answered {status}"));
    }
    let data = chunks(&bytes, at)?;
    let eof = reads.last().map_or(t1, |r| r.1);
    let (first_row, last_row) = match (data.first(), data.last()) {
        (Some(f), Some(l)) => (arrival(&reads, f.0), arrival(&reads, l.1 - 1)),
        _ => (eof, eof),
    };

    let (bytes, _) = exchange(addr, &request("GET", &format!("/jobs/{id}/result"), ""), &clock)?;
    let (status, at) = head(&bytes)?;
    let t3 = clock();
    if status != 200 {
        return Err(format!("result of job {id} answered {status}"));
    }
    if let Some(t) = t {
        let a = Args { bench: "", lanes: 0, instrs: JOB_WINDOW };
        t.record(Kind::Item, "job", a, t0 * 1e6, t3 * 1e6);
        t.record(Kind::Layer, "http.submit", a, t0 * 1e6, t1 * 1e6);
        t.record(Kind::Layer, "service.stream", a, t1 * 1e6, eof * 1e6);
        t.record(Kind::Layer, "http.result", a, eof * 1e6, t3 * 1e6);
    }
    Ok(JobSample {
        index: 0,
        latency_s: t3 - t0,
        submit_s: t1 - t0,
        first_row_s: first_row - t0,
        close_lag_s: eof - last_row,
        result_s: t3 - eof,
        body: String::from_utf8_lossy(&bytes[at..]).into_owned(),
    })
}

/// Submits the warm-up job, which records every benchmark's trace.
pub fn warm_up(addr: SocketAddr) -> Result<(), String> {
    run_job(addr, &job_body(WARMUP_SPEC, JOB_WINDOW), None).map(|_| ())
}

/// What a closed loop did.
pub struct LoopResult {
    /// Completed jobs, in completion order.
    pub samples: Vec<JobSample>,
    /// Jobs that failed, with why.
    pub failures: Vec<String>,
}

/// One client that waits each job's think time after the previous job
/// completes, then submits it, until `seconds` have passed or `jobs`
/// run out. Jobs are taken from `jobs` in order starting at `first`.
pub fn closed_loop(
    addr: SocketAddr,
    jobs: &[Job],
    first: usize,
    seconds: f64,
    t: Option<&Tracer>,
) -> LoopResult {
    let start = Instant::now();
    let mut out = LoopResult { samples: Vec::new(), failures: Vec::new() };
    for (i, job) in jobs.iter().enumerate().skip(first) {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        std::thread::sleep(job.think);
        match run_job(addr, &job_body(&job.spec, JOB_WINDOW), t) {
            Ok(sample) => out.samples.push(JobSample { index: i, ..sample }),
            Err(e) => out.failures.push(format!("job {i} ({}): {e}", job.spec)),
        }
    }
    out
}
