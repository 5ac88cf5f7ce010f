//! End-to-end tests of `specfetch-repro --serve`: a real server on an
//! ephemeral port, driven over real sockets — submit, poll, fetch the
//! result, cancel, and the 400 paths.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use specfetch_experiments::codec::Fields;

/// The CI sweep both the HTTP job and the CLI comparison run.
const SWEEP: &str = "policy=Res,Pess cache=8K penalty=5 metric=ispi";
const INSTRS: &str = "2000";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specfetch-serve-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// A `--serve` child on an ephemeral port, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `specfetch-repro --serve 127.0.0.1:0 <extra...>` and
    /// reads the announced address off stderr.
    fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
            .args(["--serve", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning --serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("reading server stderr");
            if let Some(addr) = line.strip_prefix("[serve] listening on ") {
                break addr.to_owned();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }

    /// One HTTP request; returns (status, body). Chunked bodies are
    /// de-chunked.
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connecting to server");
        let body = body.unwrap_or("");
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        stream.write_all(req.as_bytes()).expect("writing request");
        let mut response = Vec::new();
        stream.read_to_end(&mut response).expect("reading response");
        let response = String::from_utf8(response).expect("utf-8 response");
        let (head, payload) = response.split_once("\r\n\r\n").expect("header/body split");
        let status: u16 =
            head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status code");
        let payload = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
            dechunk(payload)
        } else {
            payload.to_owned()
        };
        (status, payload)
    }

    /// Polls `GET /jobs/<id>` until `pred(state)` holds, with a
    /// generous deadline (this container has one slow CPU).
    fn poll_until(&self, id: u64, pred: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(240);
        loop {
            let (status, body) = self.request("GET", &format!("/jobs/{id}"), None);
            assert_eq!(status, 200, "{body}");
            let state = json_field(&body, "state");
            if pred(&state) {
                return body;
            }
            assert!(Instant::now() < deadline, "job {id} stuck: {body}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn dechunk(payload: &str) -> String {
    let mut rest = payload;
    let mut out = String::new();
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..]; // skip the chunk's trailing CRLF
    }
    out
}

/// Pulls a `"key":"value"` or `"key":123` field out of a one-object
/// JSON body (the server renders flat, predictable objects).
fn json_field(body: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat).unwrap_or_else(|| panic!("no {key:?} in {body}")) + pat.len();
    let rest = &body[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        inner[..inner.find('"').expect("closing quote")].to_owned()
    } else {
        rest[..rest.find([',', '}']).expect("value end")].to_owned()
    }
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
        .args(args)
        .output()
        .expect("spawning specfetch-repro")
}

#[test]
fn submitted_sweep_result_is_byte_identical_to_the_cli() {
    let server = Server::spawn(&[]);

    let body = format!("{{\"sweep\":\"{SWEEP}\",\"instrs\":{INSTRS}}}");
    let (status, resp) = server.request("POST", "/jobs", Some(&body));
    assert_eq!(status, 201, "{resp}");
    let id: u64 = json_field(&resp, "id").parse().unwrap();
    assert_eq!(json_field(&resp, "state"), "queued");

    // The result endpoint must refuse until the job is terminal.
    let (status, early) = server.request("GET", &format!("/jobs/{id}/result"), None);
    if status != 200 {
        assert_eq!(status, 409, "{early}");
        assert!(early.contains("not finished"), "{early}");
    }

    let done = server.poll_until(id, |s| s == "done" || s == "failed" || s == "cancelled");
    assert_eq!(json_field(&done, "state"), "done", "{done}");
    assert_eq!(json_field(&done, "spec"), format!("sweep:{SWEEP}"));

    let (status, http_result) = server.request("GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200);

    let out = cli(&["--sweep", SWEEP, "--instrs", INSTRS]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cli_stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(http_result, cli_stdout, "HTTP result must be the CLI's stdout, byte for byte");

    // The streamed rows cover the sweep's grid and are terminated.
    let (status, rows) = server.request("GET", &format!("/jobs/{id}/stream"), None);
    assert_eq!(status, 200);
    assert!(rows.lines().all(|l| l.starts_with("[row] ")), "{rows}");
    assert!(rows.matches("[row] ").count() >= 2, "both policies stream: {rows}");
}

#[test]
fn listing_matches_the_cli_json_listing_and_unknown_routes_404() {
    let server = Server::spawn(&[]);
    let (status, listing) = server.request("GET", "/experiments", None);
    assert_eq!(status, 200);

    let out = cli(&["--list", "--json"]);
    assert!(out.status.success());
    assert_eq!(listing, String::from_utf8(out.stdout).unwrap(), "one listing, two facades");

    let (status, _) = server.request("GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, body) = server.request("GET", "/jobs/999", None);
    assert_eq!(status, 404, "{body}");
    let (status, _) = server.request("GET", "/jobs/not-a-number", None);
    assert_eq!(status, 400);
}

#[test]
fn bad_submissions_are_400s_with_hints() {
    let server = Server::spawn(&[]);

    // Malformed JSON (no recognizable field at all).
    let (status, body) = server.request("POST", "/jobs", Some("this is not json"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains(r#"naming \"experiment\" or \"sweep\""#), "{body}");

    // Unknown experiment id: rejected with the CLI's did-you-mean hint.
    let (status, body) = server.request("POST", "/jobs", Some("{\"experiment\":\"tabel3\"}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("unknown experiment"), "{body}");
    assert!(body.contains("did you mean \\\"table3\\\"?"), "{body}");

    // Bad sweep grammar: the sweep parser's own hint comes through.
    let (status, body) = server.request("POST", "/jobs", Some("{\"sweep\":\"polcy=Res\"}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("did you mean"), "{body}");

    // Both selections at once.
    let (status, body) =
        server.request("POST", "/jobs", Some("{\"experiment\":\"all\",\"sweep\":\"cache=8K\"}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("mutually exclusive"), "{body}");

    // A zero instruction budget.
    let (status, body) =
        server.request("POST", "/jobs", Some("{\"experiment\":\"all\",\"instrs\":0}"));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("positive"), "{body}");
}

/// `"instrs"` must be a plain integer: a string, a sign, a fraction or
/// an exponent is a 400, never a silent run of the 2M-instruction
/// default. Whitespace around a colon is valid JSON and is accepted.
#[test]
fn malformed_instrs_are_400s_and_spaced_colons_parse() {
    let server = Server::spawn(&[]);
    for instrs in ["\"50000\"", "-5", "1e5", "2000.0", "true", ""] {
        let body = format!("{{\"sweep\":\"{SWEEP}\",\"instrs\":{instrs}}}");
        let (status, resp) = server.request("POST", "/jobs", Some(&body));
        assert_eq!(status, 400, "instrs {instrs}: {resp}");
        assert!(resp.contains(r#"\"instrs\" must be a non-negative integer"#), "{resp}");
    }
    let (status, resp) = server.request("POST", "/jobs", Some("{\"experiment\":7}"));
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains(r#"\"experiment\" must be a string"#), "{resp}");

    let body = format!("{{ \"sweep\" : \"{SWEEP}\" , \"instrs\" :\t{INSTRS} }}");
    let (status, resp) = server.request("POST", "/jobs", Some(&body));
    assert_eq!(status, 201, "{resp}");
    let id: u64 = json_field(&resp, "id").parse().unwrap();
    let done = server.poll_until(id, |s| s == "done" || s == "failed" || s == "cancelled");
    assert_eq!(json_field(&done, "state"), "done", "{done}");
    let (status, http_result) = server.request("GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200);
    let out = cli(&["--sweep", SWEEP, "--instrs", INSTRS]);
    assert_eq!(http_result, String::from_utf8(out.stdout).unwrap(), "ran at --instrs {INSTRS}");
}

#[test]
fn an_oversized_request_line_is_a_400() {
    let server = Server::spawn(&[]);
    let mut stream = TcpStream::connect(&server.addr).expect("connecting to server");
    // 1 MiB with no newline: the server must stop reading at its 32 KiB
    // cap and answer instead of buffering the whole line.
    let line = format!("GET /{} HTTP/1.1", "a".repeat(1 << 20));
    let start = Instant::now();
    // The server closes after answering, so the tail of this write may
    // be refused, and the read may end in a reset after the response.
    let _ = stream.write_all(line.as_bytes());
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains("malformed HTTP request"), "{response}");
    // A server that buffered the whole line would still be waiting for
    // its newline, and would answer only at its 10 s read timeout.
    assert!(start.elapsed() < Duration::from_secs(5), "answered after {:?}", start.elapsed());

    let (status, _) = server.request("GET", "/experiments", None);
    assert_eq!(status, 200, "the server keeps serving");
}

#[test]
fn cancelling_a_running_job_drains_and_journals_interrupted_points() {
    let dir = scratch("cancel");
    let server = Server::spawn(&["--result-dir", dir.to_str().unwrap()]);

    // table5 has the biggest grid, and a budget big enough that
    // cancellation always lands mid-grid on this container while
    // draining stays quick.
    let (status, resp) =
        server.request("POST", "/jobs", Some("{\"experiment\":\"table5\",\"instrs\":200000}"));
    assert_eq!(status, 201, "{resp}");
    let id: u64 = json_field(&resp, "id").parse().unwrap();

    // Wait until the grid has actually journalled scheduled points, so
    // the cancellation is guaranteed to drain some of them.
    server.poll_until(id, |s| s == "running");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (_, body) = server.request("GET", &format!("/jobs/{id}"), None);
        if body.contains("\"progress\":{")
            && json_field(&body, "scheduled").parse::<u64>().unwrap_or(0) > 0
        {
            break;
        }
        assert!(Instant::now() < deadline, "no points ever scheduled: {body}");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (status, resp) = server.request("DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200, "{resp}");
    assert!(matches!(json_field(&resp, "state").as_str(), "draining" | "cancelled"), "{resp}");

    let terminal = server.poll_until(id, |s| s == "done" || s == "failed" || s == "cancelled");
    assert_eq!(json_field(&terminal, "state"), "cancelled", "{terminal}");

    // Cancelling again is a no-op, and the partial result is served.
    let (status, resp) = server.request("DELETE", &format!("/jobs/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(json_field(&resp, "state"), "cancelled");
    let (status, _) = server.request("GET", &format!("/jobs/{id}/result"), None);
    assert_eq!(status, 200);

    // The per-job journal recorded the drained points as interrupted
    // (`kind=i` records under jobs/job-<id>/journal/).
    let journal_dir = dir.join("jobs").join(format!("job-{id}")).join("journal");
    let wal = std::fs::read_dir(&journal_dir)
        .unwrap_or_else(|e| panic!("{}: {e}", journal_dir.display()))
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("run-"))
        .expect("a run-*.wal journal");
    let text = std::fs::read_to_string(wal.path()).unwrap();
    let interrupted = text
        .lines()
        .filter(|l| Fields::unseal(l).and_then(|mut f| f.take("kind")).is_ok_and(|k| k == "i"))
        .count();
    assert!(interrupted > 0, "drained points must journal as interrupted:\n{text}");

    std::fs::remove_dir_all(&dir).ok();
}
