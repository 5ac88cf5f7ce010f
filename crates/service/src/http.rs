//! A zero-dependency HTTP/1.1 JSON front end over the job
//! [`Controller`], on nothing but `std::net` (tidy rule 7 confines
//! sockets to this crate).
//!
//! ```text
//! POST   /jobs              {"experiment":"all"} | {"sweep":"..."} [+ "instrs":N]
//! GET    /jobs/<id>         status + journalled progress
//! GET    /jobs/<id>/result  rendered reports (CLI-stdout byte-identical); 409 until terminal
//! GET    /jobs/<id>/stream  chunked [row] lines as grid points finish
//! DELETE /jobs/<id>         cancel (queued → cancelled; running → draining)
//! GET    /experiments       the registry listing (same JSON as --list --json)
//! ```
//!
//! Nothing on the request path sleeps: the accept loop blocks in
//! `accept`, and a stream waits on its job's row buffer. The first
//! SIGINT stops intake and drains running jobs, the second (in the
//! binary's signal handler) aborts. A signal alone does not wake a
//! blocking `accept` (the handlers are installed with `SA_RESTART`, and
//! std retries on `EINTR` anyway), so a waker thread watches for the
//! shutdown request and connects once to the listener to let the loop
//! see it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use specfetch_experiments::codec::json_escape;
use specfetch_experiments::{diag, registry, supervise, JobSpec};

use crate::controller::Controller;

/// How often the shutdown waker checks for a shutdown request, and the
/// back-off after a failed `accept` (e.g. `EMFILE`).
const POLL: Duration = Duration::from_millis(25);

/// Cap on a request's line plus headers.
const HEAD_CAP: u64 = 32 * 1024;

/// Serves `controller` on `addr` (e.g. `127.0.0.1:8077`; port `0`
/// binds an ephemeral port) until a graceful shutdown is requested,
/// then drains the controller and returns.
///
/// The actually bound address is announced on stderr as
/// `[serve] listening on <addr>` — with an ephemeral port that line is
/// the only way to learn it.
///
/// # Errors
///
/// A human-readable message when the address cannot be bound.
pub fn serve(addr: &str, controller: &Arc<Controller>) -> Result<(), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // Deliberately not routed through the quiet-able diagnostics sink:
    // this line is the service's one contract with whoever started it.
    eprintln!("[serve] listening on {local}");
    spawn_shutdown_waker(local);

    loop {
        let accepted = listener.accept();
        if supervise::shutdown_requested() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let controller = Arc::clone(controller);
                std::thread::spawn(move || handle_connection(stream, &controller));
            }
            Err(e) => {
                diag::line(&format!("[serve] accept: {e}"));
                std::thread::sleep(POLL);
            }
        }
    }
    diag::line("[serve] draining");
    controller.drain();
    Ok(())
}

/// Waits for a graceful shutdown request, then connects once to the
/// listener at `addr` so its blocking `accept` returns and the loop
/// sees the request. An unspecified bind address is reached over
/// loopback.
fn spawn_shutdown_waker(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    std::thread::spawn(move || {
        while !supervise::shutdown_requested() {
            std::thread::sleep(POLL);
        }
        if let Err(e) = TcpStream::connect(addr) {
            diag::line(&format!("[serve] shutdown wake-up: {e}"));
        }
    });
}

/// One parsed request: method, path, body.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// Reads one HTTP/1.1 request (request line and headers capped at
/// [`HEAD_CAP`] bytes, body at `Content-Length` up to 1MiB). `None` on
/// a malformed or oversized request — the caller answers 400.
fn read_request(stream: &mut TcpStream) -> Option<Request> {
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok()?;
    let mut reader = BufReader::new(stream);
    // Every line is read through the cap, so an endless line stops at
    // the cap instead of being buffered whole.
    let mut head = (&mut reader).take(HEAD_CAP);
    let mut next_line = || {
        let mut line = String::new();
        head.read_line(&mut line).ok()?;
        line.ends_with('\n').then_some(line)
    };
    let line = next_line()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();

    let mut content_length = 0usize;
    loop {
        let header = next_line()?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok()?;
            }
        }
    }
    if content_length > 1024 * 1024 {
        return None;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some(Request { method, path, body: String::from_utf8(body).ok()? })
}

fn respond(stream: &mut TcpStream, status: u16, reason: &str, ctype: &str, body: &str) {
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    // One write: closing a connection with unread request bytes resets
    // it, and a reset discards whatever the kernel has not sent yet (a
    // second small write can still be waiting on the first one's ACK).
    // A peer that hung up mid-response is its own problem.
    let _ = stream.write_all(response.as_bytes());
}

fn respond_json(stream: &mut TcpStream, status: u16, reason: &str, body: &str) {
    respond(stream, status, reason, "application/json", body);
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", json_escape(message))
}

/// Routes one connection. Every response closes the connection —
/// clients poll with fresh connections, which keeps the server free of
/// keep-alive state.
fn handle_connection(mut stream: TcpStream, controller: &Arc<Controller>) {
    let Some(req) = read_request(&mut stream) else {
        respond_json(&mut stream, 400, "Bad Request", &error_body("malformed HTTP request"));
        return;
    };
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/experiments") => {
            let mut body = registry::render_listing_json();
            body.push('\n');
            respond_json(&mut stream, 200, "OK", &body);
        }
        ("POST", "/jobs") => handle_submit(&mut stream, controller, &req.body),
        (method, path) if path.starts_with("/jobs/") => {
            handle_job_route(&mut stream, controller, method, path);
        }
        _ => respond_json(&mut stream, 404, "Not Found", &error_body("no such route")),
    }
}

/// `POST /jobs`: rejections are 400s carrying the same "did you mean"
/// hints the CLI prints.
fn handle_submit(stream: &mut TcpStream, controller: &Arc<Controller>, body: &str) {
    match parse_submit(body).and_then(|(spec, instrs)| controller.submit(spec, instrs)) {
        Ok(id) => {
            let body = format!("{{\"id\":{id},\"state\":\"queued\"}}\n");
            respond_json(stream, 201, "Created", &body);
        }
        Err(e) if e.contains("draining") => {
            respond_json(stream, 503, "Service Unavailable", &error_body(&e));
        }
        Err(e) => respond_json(stream, 400, "Bad Request", &error_body(&e)),
    }
}

/// The job a `POST /jobs` body asks for: exactly one of `"experiment"`
/// / `"sweep"`, plus an optional positive `"instrs"` override.
fn parse_submit(body: &str) -> Result<(JobSpec, Option<u64>), String> {
    let instrs = json_u64_field(body, "instrs")?;
    if instrs == Some(0) {
        return Err("\"instrs\" must be positive".to_owned());
    }
    let spec = match (json_string_field(body, "experiment")?, json_string_field(body, "sweep")?) {
        (Some(_), Some(_)) => Err("\"experiment\" and \"sweep\" are mutually exclusive"),
        (Some(sel), None) => Ok(JobSpec::Experiment(sel)),
        (None, Some(spec)) => Ok(JobSpec::Sweep(spec)),
        (None, None) => Err("body must be a JSON object naming \"experiment\" or \"sweep\""),
    };
    Ok((spec?, instrs))
}

/// Field `key` of a flat JSON request body, read by `value` from the
/// text after its colon (whitespace on either side of the colon is
/// skipped): `Ok(None)` when the body has no such key, `Err` (the 400
/// message) when `value` rejects it.
fn json_field<T>(
    body: &str,
    key: &str,
    what: &str,
    value: fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let quoted = format!("\"{key}\"");
    let mut rest = body;
    while let Some(at) = rest.find(&quoted) {
        rest = &rest[at + quoted.len()..];
        // A quoted word not followed by a colon is a value, not the key.
        if let Some(text) = rest.trim_start().strip_prefix(':') {
            return value(text.trim_start()).map(Some).ok_or(format!("\"{key}\" must be {what}"));
        }
    }
    Ok(None)
}

/// String field `key` of a flat JSON request body, unescaped.
fn json_string_field(body: &str, key: &str) -> Result<Option<String>, String> {
    json_field(body, key, "a string", |text| {
        let rest = text.strip_prefix('"')?;
        let mut escaped = false;
        let (end, _) = rest.char_indices().find(|&(_, c)| {
            let close = !escaped && c == '"';
            escaped = !escaped && c == '\\';
            close
        })?;
        json_unescape(&rest[..end])
    })
}

/// Unsigned-integer field `key` of a flat JSON request body: a plain
/// run of digits that fits a `u64`. A string, a sign, a fraction or an
/// exponent is rejected, never read as "no window given".
fn json_u64_field(body: &str, key: &str) -> Result<Option<u64>, String> {
    json_field(body, key, "a non-negative integer", |text| {
        let end = text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len());
        let tail = text[end..].trim_start();
        (tail.is_empty() || tail.starts_with([',', '}'])).then(|| text[..end].parse().ok())?
    })
}

fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    char::from_u32(u32::from_str_radix(&hex, 16).ok().filter(|_| hex.len() == 4)?)?
                }
                c @ ('"' | '\\' | '/') => c,
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}

/// `/jobs/<id>[/result|/stream]` routes.
fn handle_job_route(
    stream: &mut TcpStream,
    controller: &Arc<Controller>,
    method: &str,
    path: &str,
) {
    let rest = &path["/jobs/".len()..];
    let (id_str, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        respond_json(stream, 400, "Bad Request", &error_body("job ids are integers"));
        return;
    };
    match (method, tail) {
        ("GET", None) => match controller.status(id) {
            Some(snap) => {
                respond_json(stream, 200, "OK", &format!("{}\n", snap.render_json()));
            }
            None => respond_json(stream, 404, "Not Found", &error_body("no such job")),
        },
        ("DELETE", None) => match controller.cancel(id) {
            Some(state) => {
                let body = format!("{{\"id\":{id},\"state\":\"{}\"}}\n", state.name());
                respond_json(stream, 200, "OK", &body);
            }
            None => respond_json(stream, 404, "Not Found", &error_body("no such job")),
        },
        ("GET", Some("result")) => match controller.result(id) {
            None => respond_json(stream, 404, "Not Found", &error_body("no such job")),
            Some(None) => {
                let msg = "job is not finished (poll GET /jobs/<id> until a terminal state)";
                respond_json(stream, 409, "Conflict", &error_body(msg));
            }
            Some(Some(body)) => respond(stream, 200, "OK", "text/plain; charset=utf-8", &body),
        },
        ("GET", Some("stream")) => stream_rows(stream, controller, id),
        _ => respond_json(stream, 404, "Not Found", &error_body("no such route")),
    }
}

/// `GET /jobs/<id>/stream`: chunked `[row]` lines as they are buffered,
/// ending when the job reaches a terminal state. Each wait blocks on
/// the job's row buffer until a row lands or the job ends.
fn stream_rows(stream: &mut TcpStream, controller: &Arc<Controller>, id: u64) {
    if controller.status(id).is_none() {
        respond_json(stream, 404, "Not Found", &error_body("no such job"));
        return;
    }
    let head = "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let mut sent = 0usize;
    while let Some((rows, terminal)) = controller.rows_after(id, sent) {
        for row in &rows {
            let line = format!("{row}\n");
            let chunk = format!("{:x}\r\n{line}\r\n", line.len());
            if stream.write_all(chunk.as_bytes()).is_err() {
                return;
            }
        }
        sent += rows.len();
        if terminal {
            break;
        }
    }
    let _ = stream.write_all(b"0\r\n\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_fields_are_strict_about_values_and_lenient_about_spacing() {
        let body = "{ \"sweep\" : \"a \\\"b\\\" \\u00e9\" ,\n \"instrs\" :\t2000 }";
        assert_eq!(json_string_field(body, "sweep"), Ok(Some("a \"b\" é".to_owned())));
        assert_eq!(json_u64_field(body, "instrs"), Ok(Some(2000)));
        assert_eq!(json_string_field(body, "experiment"), Ok(None));
        // A quoted word that is a value, not a key.
        assert_eq!(json_string_field("{\"experiment\":\"sweep\"}", "sweep"), Ok(None));
        for bad in ["\"5\"", "-5", "1e5", "5.0", "", "true", "99999999999999999999"] {
            let body = format!("{{\"instrs\":{bad}}}");
            assert!(json_u64_field(&body, "instrs").is_err(), "{body}");
        }
        for bad in ["7", "\"open", "\"bad \\q escape\""] {
            let body = format!("{{\"sweep\":{bad}}}");
            assert!(json_string_field(&body, "sweep").is_err(), "{body}");
        }
    }
}
