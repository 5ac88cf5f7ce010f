//! In-repo source lints enforcing specfetch workspace invariants, in the
//! style of rustc's `tidy`.
//!
//! Eleven rules, each a pure function over a tree root so the
//! self-tests can run them against synthetic trees:
//!
//! 1. **Panic audit** ([`panic_audit`]) — library code (every
//!    `crates/*/src` and the root `src/`, minus `bin/` directories and
//!    `#[cfg(test)]` modules, inline or out-of-line) must not call the
//!    panicking `Option`/
//!    `Result` extractors. Existing sites live in a committed allowlist
//!    ([`ALLOWLIST_FILE`]) that may only shrink: new sites fail, and a
//!    burned-down site whose entry was not updated fails as stale.
//! 2. **Oracle capability** ([`oracle_capability`]) — the oracle's
//!    wrong-path knowledge must stay confined to the miss-gate: its
//!    identifying tokens may appear only in the gate module and the
//!    crate-root re-export. Any other occurrence means simulation code
//!    grew access to ground truth it must not have.
//! 3. **Crate layering** ([`layering`]) — inter-crate dependencies
//!    (both `Cargo.toml` edges and `specfetch_*` source references) must
//!    respect the workspace DAG; a back-edge fails, and so does a crate
//!    the DAG does not list.
//! 4. **Error hygiene** ([`error_hygiene`]) — public fallible APIs in
//!    `crates/core` and `crates/experiments` return typed errors
//!    (`SpecfetchError`), never `Result<_, String>`.
//! 5. **Exit confinement** ([`exit_confinement`]) — terminating the
//!    process (`process::exit` / `process::abort`) is an entry-point
//!    decision: library code may not call either. The one exception is
//!    the fault-injection module, whose injected `abort` action *is*
//!    a deliberate process crash (it is how tests kill workers and
//!    interrupt sweeps).
//! 6. **Signal confinement** ([`signal_confinement`]) — installing
//!    process signal handlers (`signal(` / `sigaction`) is likewise an
//!    entry-point decision: library code must observe the cooperative
//!    shutdown flag (`supervise::shutdown_requested`), never register
//!    handlers of its own. Handler installation lives only in `bin/`
//!    crate roots, which the library scan already excludes.
//! 7. **Net confinement** ([`net_confinement`]) — opening sockets
//!    (`std::net`, `TcpListener`, `TcpStream`, `UdpSocket`) is a
//!    service-boundary decision: the simulation and experiment layers
//!    must stay network-free so runs stay reproducible and sandboxable.
//!    Socket code lives only in `crates/service` and `bin/` entry
//!    points (which the library scan already excludes).
//! 8. **Lock order** ([`lock_order`]) — every mutex acquisition site is
//!    assigned a class by the committed order file
//!    ([`LOCK_ORDER_FILE`], outermost class first), and within any one
//!    function a later-class lock may never be taken before an
//!    earlier-class one. Observed acquisition pairs are also checked
//!    globally for cycles (A-then-B in one function, B-then-A in
//!    another), which are rejected with the cycle path — the textual
//!    ancestor of a lock-ordering deadlock.
//! 9. **Blocking confinement** ([`blocking_confinement`]) —
//!    unbounded blocking calls (`.recv()` with no timeout,
//!    `thread::sleep`, `read_line`) may only appear in the supervised
//!    modules that own a deadline or shutdown check around them; a
//!    blocking call sprouting anywhere else is a hang waiting for a
//!    dead peer.
//! 10. **Wire-kind symmetry** ([`wire_kind_symmetry`]) — every record
//!     `kind` a file emits (`kind=<value>`, written as
//!     `Record::new("<value>")`) must also be matched where that file
//!     decodes the `kind` field, and vice versa, so the two halves of a
//!     record format (worker pipe, journal, result store) cannot drift
//!     apart silently.
//! 11. **Spawn confinement** ([`spawn_confinement`]) — unscoped thread
//!     creation (`thread::spawn`) is restricted to the supervised pools
//!     (worker pool, controller drivers, HTTP acceptor); a detached
//!     thread anywhere else escapes the shutdown and join protocols.
//!
//! The enforcement tests in `tests/tidy.rs` run all eleven against the
//! real workspace; CI runs them via `cargo test -p tidy`.
//!
//! The scanner is deliberately textual (line-based, no parsing crates —
//! the crate has zero dependencies): it skips comment lines,
//! `#[cfg(test)]` items by brace counting, and whole files declared as
//! out-of-line `#[cfg(test)] mod name;` modules, and its own patterns
//! are assembled from split literals so it never flags itself.

use std::fmt;
use std::path::{Path, PathBuf};

/// Repo-relative path of the panic-audit allowlist.
pub const ALLOWLIST_FILE: &str = "crates/tidy/panic_allowlist.txt";

/// Repo-relative path of the committed lock-ordering file (rule 8).
pub const LOCK_ORDER_FILE: &str = "crates/tidy/lock_order.txt";

// The scanned-for tokens, split so this file never matches its own
// patterns.
const UNWRAP: &str = concat!(".unw", "rap()");
const EXPECT: &str = concat!(".exp", "ect(");
const EXPECT_ERR: &str = concat!(".exp", "ect_err(");
const ORACLE_TYPE: &str = concat!("Oracle", "Gate");
const ORACLE_PROBE: &str = concat!("on_wrong", "_path");
const CRATE_PREFIX_SRC: &str = concat!("spec", "fetch_");
const CRATE_PREFIX_TOML: &str = concat!("spec", "fetch-");

/// Files allowed to name the oracle tokens: the gate itself and the
/// crate root that re-exports it.
const ORACLE_ALLOWED: [&str; 2] = ["crates/core/src/engine/gate.rs", "crates/core/src/lib.rs"];

// Process-termination calls, split like the other scanned-for tokens.
const EXIT_CALL: &str = concat!("process::", "exit(");
const ABORT_CALL: &str = concat!("process::", "abort(");

// Signal-handler installation tokens, split the same way. `signal(` is
// deliberately broad (it also matches a declaration of the C function):
// declaring the binding in library code is as much a violation as
// calling it.
const SIGNAL_CALL: &str = concat!("sig", "nal(");
const SIGACTION: &str = concat!("sig", "action");

// Socket tokens, split the same way. `std::net` catches `use` paths and
// fully-qualified calls; the type names catch imported uses.
const NET_PATH: &str = concat!("std::", "net");
const TCP_LISTENER: &str = concat!("Tcp", "Listener");
const TCP_STREAM: &str = concat!("Tcp", "Stream");
const UDP_SOCKET: &str = concat!("Udp", "Socket");

/// The one library tree allowed to open sockets: the job service, whose
/// whole purpose is the HTTP boundary.
const NET_ALLOWED_PREFIX: &str = "crates/service/src/";

/// The one library file allowed to terminate the process: the fault
/// plan's injected-crash primitive.
const EXIT_ALLOWED: [&str; 1] = ["crates/experiments/src/fault.rs"];

// Unbounded-blocking tokens (rule 9), split like the rest. `.recv()`
// keeps its parens so the bounded `.recv_timeout(..)` never matches.
const RECV_CALL: &str = concat!(".re", "cv()");
const SLEEP_CALL: &str = concat!("thread::", "sleep");
const READ_LINE_CALL: &str = concat!(".read_", "line(");

/// Modules allowed to block: each wraps its blocking call in a
/// supervised boundary (worker pool deadlines, retry backoff, fault
/// injection, the HTTP accept loop, trace-file readers).
const BLOCKING_ALLOWED: [&str; 6] = [
    "crates/experiments/src/worker.rs",
    "crates/experiments/src/parallel.rs",
    "crates/experiments/src/runner.rs",
    "crates/experiments/src/fault.rs",
    "crates/service/src/http.rs",
    "crates/trace/src/text.rs",
];

// Record-kind tokens (rule 10): an *encode* site starts a record of a
// literal kind, `Record::new("<value>")`, which emits `kind=<value>`; a
// *decode* site takes the `kind` field and compares it with a literal
// (`== "<value>"`, `!= "<value>"`) or matches `"<value>" =>` arms.
const WIRE_ENCODE_TOKEN: &str = concat!("Record::", "new(\"");
const WIRE_FIELD: &str = concat!("take(\"ki", "nd\")");
// `== "` and `!= "` both end in this.
const WIRE_COMPARE: &str = concat!("= ", "\"");

// Detached-thread token (rule 11). Scoped spawns (`scope.spawn`) are
// structurally joined and deliberately not matched.
const SPAWN_CALL: &str = concat!("thread::", "spawn");

/// Modules allowed to create detached threads: each owns a join/
/// shutdown protocol for the threads it starts (worker pool + child
/// reader, controller drivers, HTTP connection handlers).
const SPAWN_ALLOWED: [&str; 3] = [
    "crates/experiments/src/worker.rs",
    "crates/service/src/controller.rs",
    "crates/service/src/http.rs",
];

/// The workspace dependency DAG: crate directory name, allowed
/// `[dependencies]`, allowed extra `[dev-dependencies]`. A `Cargo.toml`
/// or source edge outside these sets is a layering violation, and so is
/// a `crates/*/Cargo.toml` with no row here.
const LAYERS: [(&str, &[&str], &[&str]); 10] = [
    ("isa", &[], &[]),
    ("trace", &["isa"], &[]),
    ("bpred", &["isa"], &[]),
    ("cache", &["isa"], &[]),
    ("synth", &["isa", "trace"], &[]),
    ("core", &["isa", "trace", "bpred", "cache"], &["synth"]),
    ("verify", &[], &[]),
    ("experiments", &["isa", "trace", "bpred", "cache", "synth", "core", "verify"], &[]),
    ("service", &["isa", "trace", "bpred", "cache", "synth", "core", "experiments", "verify"], &[]),
    ("tidy", &[], &[]),
];

/// Crates whose public fallible APIs must return `SpecfetchError`.
const TYPED_ERROR_CRATES: [&str; 2] = ["core", "experiments"];

/// One broken invariant: which rule, where, and what.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The rule that fired (`panic-audit`, `oracle-capability`,
    /// `layering`, `error-hygiene`, `exit-confinement`,
    /// `signal-confinement`, `net-confinement`, `lock-order`,
    /// `blocking-confinement`, `wire-kind`, `spawn-confinement`, or
    /// `io` for an unreadable input).
    pub rule: &'static str,
    /// Repo-relative file path (slash-separated).
    pub file: String,
    /// 1-based line, or 0 when the finding is file-granular.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: {}: {}", self.rule, self.file, self.detail)
        } else {
            write!(f, "{}: {}:{}: {}", self.rule, self.file, self.line, self.detail)
        }
    }
}

/// Runs every rule against the tree at `root`, with `allowlist` as the
/// panic-audit ratchet (normally the contents of [`ALLOWLIST_FILE`]).
pub fn check_all(root: &Path, allowlist: &str) -> Vec<Violation> {
    let mut v = panic_audit(root, allowlist);
    v.extend(oracle_capability(root));
    v.extend(layering(root));
    v.extend(error_hygiene(root));
    v.extend(exit_confinement(root));
    v.extend(signal_confinement(root));
    v.extend(net_confinement(root));
    // The lock-order file is part of the tree under check; a synthetic
    // tree without one simply has no committed order to enforce.
    let order = std::fs::read_to_string(root.join(LOCK_ORDER_FILE)).unwrap_or_default();
    v.extend(lock_order(root, &order));
    v.extend(blocking_confinement(root));
    v.extend(wire_kind_symmetry(root));
    v.extend(spawn_confinement(root));
    v
}

/// Rule 1: no `unwrap`/`expect` in library code outside the allowlist.
///
/// `allowlist` lines are `path: count` (repo-relative, `#` comments);
/// each listed file may contain exactly `count` sites. More is a
/// regression, fewer is a stale entry that must be ratcheted down, and
/// any site in an unlisted file is reported individually.
pub fn panic_audit(root: &Path, allowlist: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (allowed, mut parse_errors) = parse_allowlist(allowlist);
    violations.append(&mut parse_errors);

    let mut counts: Vec<(String, Vec<usize>)> = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        let mut lines = Vec::new();
        scan_code_lines(&text, |line_no, line| {
            if has_panic_call(line) {
                lines.push(line_no);
            }
        });
        if !lines.is_empty() {
            counts.push((rel, lines));
        }
    }

    for (rel, lines) in &counts {
        match allowed.iter().find(|(p, _)| p == rel) {
            None => {
                for &line in lines {
                    violations.push(Violation {
                        rule: "panic-audit",
                        file: rel.clone(),
                        line,
                        detail: format!(
                            "{UNWRAP} / {EXPECT} in library code; return a typed error \
                             or restructure (the allowlist only ratchets down)"
                        ),
                    });
                }
            }
            Some(&(_, listed)) if lines.len() > listed => violations.push(Violation {
                rule: "panic-audit",
                file: rel.clone(),
                line: 0,
                detail: format!(
                    "{} panicking extractor(s), allowlist permits {listed}; \
                     new sites are not allowed",
                    lines.len()
                ),
            }),
            Some(&(_, listed)) if lines.len() < listed => violations.push(Violation {
                rule: "panic-audit",
                file: rel.clone(),
                line: 0,
                detail: format!(
                    "stale allowlist entry: {listed} listed but only {} found — \
                     ratchet {ALLOWLIST_FILE} down",
                    lines.len()
                ),
            }),
            Some(_) => {}
        }
    }
    for (p, listed) in &allowed {
        if !counts.iter().any(|(rel, _)| rel == p) {
            violations.push(Violation {
                rule: "panic-audit",
                file: p.clone(),
                line: 0,
                detail: format!(
                    "stale allowlist entry: {listed} listed but the file has none — \
                     remove it from {ALLOWLIST_FILE}"
                ),
            });
        }
    }
    violations
}

/// Rule 2: oracle wrong-path capability stays confined to the gate.
pub fn oracle_capability(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        if ORACLE_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            for token in [ORACLE_TYPE, ORACLE_PROBE] {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "oracle-capability",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "`{token}` outside the miss-gate: wrong-path ground truth \
                             is only available to {}",
                            ORACLE_ALLOWED[0]
                        ),
                    });
                }
            }
        });
    }
    violations
}

/// Rule 3: the crate DAG has no back-edges — in `Cargo.toml` or in
/// `specfetch_*` source references — and every crate has a place in it.
pub fn layering(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut unlisted: Vec<String> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|dir| !LAYERS.iter().any(|(name, _, _)| name == dir))
        .collect();
    unlisted.sort();
    for dir in unlisted {
        violations.push(Violation {
            rule: "layering",
            file: format!("crates/{dir}/Cargo.toml"),
            line: 0,
            detail: format!(
                "crate `{dir}` has no row in tidy's `LAYERS` table; add one naming \
                 the crates it may depend on"
            ),
        });
    }
    for (name, deps, dev) in LAYERS {
        let dir = root.join("crates").join(name);
        if !dir.is_dir() {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        let rel_manifest = format!("crates/{name}/Cargo.toml");
        if let Some(text) = read(&manifest, &rel_manifest, &mut violations) {
            check_manifest_edges(name, deps, dev, &text, &rel_manifest, &mut violations);
        }

        // Source references: anything a file names must be a declared
        // dependency (dev-deps included — `#[cfg(test)]` code may use
        // them; comment lines, and with them doctests, are skipped).
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, root, &mut files, &mut violations);
        for (rel, path) in files {
            let Some(text) = read(&path, &rel, &mut violations) else { continue };
            scan_code_lines(&text, |line_no, line| {
                let mut rest = line;
                while let Some(pos) = rest.find(CRATE_PREFIX_SRC) {
                    let after = &rest[pos + CRATE_PREFIX_SRC.len()..];
                    let referenced: String =
                        after.chars().take_while(|c| c.is_ascii_lowercase()).collect();
                    if !referenced.is_empty()
                        && referenced != name
                        && !deps.contains(&referenced.as_str())
                        && !dev.contains(&referenced.as_str())
                    {
                        violations.push(Violation {
                            rule: "layering",
                            file: rel.clone(),
                            line: line_no,
                            detail: format!(
                                "crate `{name}` references `{CRATE_PREFIX_SRC}{referenced}` \
                                 but does not (and must not) depend on it"
                            ),
                        });
                    }
                    rest = after;
                }
            });
        }
    }
    violations
}

/// Rule 4: public fallible APIs in the typed-error crates return
/// `SpecfetchError`, never `Result<_, String>`.
pub fn error_hygiene(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for name in TYPED_ERROR_CRATES {
        let src = root.join("crates").join(name).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, root, &mut files, &mut violations);
        for (rel, path) in files {
            if rel.contains("/bin/") {
                continue;
            }
            let Some(text) = read(&path, &rel, &mut violations) else { continue };
            let mut in_sig = false;
            let mut sig_start = 0usize;
            let mut sig = String::new();
            scan_code_lines(&text, |line_no, line| {
                let trimmed = line.trim();
                if !in_sig && is_pub_fn(trimmed) {
                    in_sig = true;
                    sig_start = line_no;
                    sig.clear();
                }
                if in_sig {
                    sig.push(' ');
                    sig.push_str(trimmed);
                    if trimmed.contains('{') || trimmed.ends_with(';') {
                        if string_error_return(&sig) {
                            violations.push(Violation {
                                rule: "error-hygiene",
                                file: rel.clone(),
                                line: sig_start,
                                detail: "public fallible API returns Result<_, String>; \
                                         use SpecfetchError"
                                    .to_owned(),
                            });
                        }
                        in_sig = false;
                    }
                }
            });
        }
    }
    violations
}

/// Rule 5: process termination stays confined to `bin/` entry points
/// (which `library_sources` already excludes) and the fault-injection
/// module, whose injected `abort` action is a deliberate crash.
pub fn exit_confinement(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        if EXIT_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            for token in [EXIT_CALL, ABORT_CALL] {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "exit-confinement",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "`{token}..)` in library code: process termination belongs \
                             in `bin/` entry points or {} (fault injection)",
                            EXIT_ALLOWED[0]
                        ),
                    });
                }
            }
        });
    }
    violations
}

/// Rule 6: signal-handler installation stays confined to `bin/` entry
/// points (which `library_sources` already excludes). Library code that
/// wants to react to SIGINT/SIGTERM must poll the cooperative shutdown
/// flag instead — a handler registered deep in a library would race the
/// entry point's graceful-shutdown protocol.
pub fn signal_confinement(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            for token in [SIGNAL_CALL, SIGACTION] {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "signal-confinement",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "`{token}..` in library code: signal handlers are installed \
                             by `bin/` entry points only; poll \
                             `supervise::shutdown_requested()` instead"
                        ),
                    });
                }
            }
        });
    }
    violations
}

/// Rule 7: sockets stay confined to the service crate and `bin/` entry
/// points (which `library_sources` already excludes). The simulation
/// and experiment layers must never open network connections — a run's
/// inputs are its flags and its result store, nothing remote — so any
/// `std::net` usage outside `crates/service/src/` is a violation.
pub fn net_confinement(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        if rel.starts_with(NET_ALLOWED_PREFIX) {
            continue;
        }
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            for token in [NET_PATH, TCP_LISTENER, TCP_STREAM, UDP_SOCKET] {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "net-confinement",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "`{token}` in library code: sockets belong to \
                             `{NET_ALLOWED_PREFIX}` and `bin/` entry points only; \
                             simulation layers stay network-free"
                        ),
                    });
                }
            }
        });
    }
    violations
}

/// Rule 8: mutex acquisition order matches the committed DAG.
///
/// `order` is the contents of [`LOCK_ORDER_FILE`]: `class: pattern`
/// lines, outermost class first (repeated class lines add patterns; a
/// class's rank is its first occurrence). The scan approximates lock
/// scopes as function bodies — from one `fn` item to the next — which
/// overshoots real guard lifetimes and therefore only ever errs toward
/// flagging: if even the whole-function ordering is consistent, no
/// interleaving of the real (shorter) guard scopes can deadlock on
/// these classes. Two checks run over the observed acquisitions:
///
/// - within one function, an acquisition whose class ranks *earlier*
///   than a class already acquired above it contradicts the committed
///   order and is flagged at its line;
/// - globally, the union of observed (first, second) class pairs must
///   stay acyclic; a cycle is reported with its path even when each
///   function looks locally plausible.
pub fn lock_order(root: &Path, order: &str) -> Vec<Violation> {
    let mut violations = Vec::new();
    let (classes, mut parse_errors) = parse_lock_order(order);
    violations.append(&mut parse_errors);
    if classes.is_empty() {
        return violations;
    }

    // Observed ordered pairs of distinct classes, with one witness
    // site each for the cycle report.
    let mut edges: Vec<(usize, usize, String, usize)> = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        // Acquisitions of the current function, as (rank, line) pairs.
        let mut held: Vec<(usize, usize)> = Vec::new();
        scan_code_lines(&text, |line_no, line| {
            let trimmed = line.trim();
            if is_fn_item(trimmed) {
                held.clear();
            }
            for (rank, (_, patterns)) in classes.iter().enumerate() {
                if !patterns.iter().any(|p| line.contains(p.as_str())) {
                    continue;
                }
                for &(prior, _) in held.iter() {
                    if prior != rank && !edges.iter().any(|&(a, b, ..)| (a, b) == (prior, rank)) {
                        edges.push((prior, rank, rel.clone(), line_no));
                    }
                }
                if let Some(&(prior, prior_line)) =
                    held.iter().filter(|&&(p, _)| p > rank).max_by_key(|&&(p, _)| p)
                {
                    violations.push(Violation {
                        rule: "lock-order",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "lock class `{}` acquired after `{}` (line {prior_line}); \
                             the committed order in {LOCK_ORDER_FILE} puts `{0}` first",
                            classes[rank].0, classes[prior].0
                        ),
                    });
                }
                held.push((rank, line_no));
            }
        });
    }

    if let Some(cycle) = find_cycle(classes.len(), &edges) {
        let path: Vec<&str> = cycle.iter().map(|&i| classes[i].0.as_str()).collect();
        let (_, _, file, line) = edges
            .iter()
            .find(|&&(a, b, ..)| (a, b) == (cycle[0], cycle[1]))
            .cloned()
            .unwrap_or((0, 0, LOCK_ORDER_FILE.to_owned(), 0));
        violations.push(Violation {
            rule: "lock-order",
            file,
            line,
            detail: format!(
                "observed lock acquisitions form a cycle: {} — some function takes \
                 these classes in the reverse of another",
                path.join(" -> ")
            ),
        });
    }
    violations
}

/// Rule 9: unbounded blocking calls stay inside the supervised modules.
///
/// `.recv()` (no timeout), `thread::sleep`, and `.read_line(` each
/// park a thread until a peer acts; outside a module that wraps them
/// in deadlines, heartbeat checks, or shutdown polling, they are a
/// hang waiting for a dead peer. The allowlist is the fixed set of
/// supervision boundaries ([`BLOCKING_ALLOWED`]).
pub fn blocking_confinement(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        if BLOCKING_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            for token in [RECV_CALL, SLEEP_CALL, READ_LINE_CALL] {
                if line.contains(token) {
                    violations.push(Violation {
                        rule: "blocking-confinement",
                        file: rel.clone(),
                        line: line_no,
                        detail: format!(
                            "`{token}..` blocks unboundedly outside the supervised \
                             modules; use a timeout variant or move the wait behind \
                             one of the supervision boundaries"
                        ),
                    });
                }
            }
        });
    }
    violations
}

/// Rule 10: the record `kind` vocabulary stays symmetric per file.
///
/// An encode site starts a record with `Record::new("<value>")`; a
/// decode site takes the `kind` field and compares it with literals on
/// the same line, or opens a `match` whose `"<value>" =>` arms carry the
/// vocabulary. Within any one file that speaks a record format, the two
/// vocabularies must be equal — a kind that is emitted but never parsed
/// (or vice versa) is silent drift between the two halves.
pub fn wire_kind_symmetry(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        let mut encoded: Vec<String> = Vec::new();
        let mut decoded: Vec<String> = Vec::new();
        // Brace depth of the `match` block a `kind` take opened; 0 when
        // not inside one.
        let mut match_depth = 0usize;
        scan_code_lines(&text, |_, line| {
            collect_after(line, WIRE_ENCODE_TOKEN, &mut encoded);
            if match_depth > 0 {
                // A `"<value>" =>` arm.
                if let Some(arm) = line.trim_start().strip_prefix('"').filter(|a| a.contains("=>"))
                {
                    push_word(arm, &mut decoded);
                }
                match_depth += count(line, '{');
                match_depth = match_depth.saturating_sub(count(line, '}'));
                return;
            }
            let Some(at) = line.find(WIRE_FIELD) else { return };
            let before = decoded.len();
            collect_after(&line[at..], WIRE_COMPARE, &mut decoded);
            // No same-line kind: the take opens a `match` whose arms
            // carry the vocabulary.
            if decoded.len() == before && count(line, '{') > count(line, '}') {
                match_depth = count(line, '{') - count(line, '}');
            }
        });
        for value in &encoded {
            if !decoded.contains(value) {
                violations.push(Violation {
                    rule: "wire-kind",
                    file: rel.clone(),
                    line: 0,
                    detail: format!(
                        "record kind \"{value}\" is encoded but never decoded in this \
                         file; the format's vocabulary must stay symmetric"
                    ),
                });
            }
        }
        for value in &decoded {
            if !encoded.contains(value) {
                violations.push(Violation {
                    rule: "wire-kind",
                    file: rel.clone(),
                    line: 0,
                    detail: format!(
                        "record kind \"{value}\" is decoded but never encoded in this \
                         file; the format's vocabulary must stay symmetric"
                    ),
                });
            }
        }
    }
    violations
}

/// Rule 11: detached thread creation stays inside the supervised pools.
///
/// `thread::spawn` outside [`SPAWN_ALLOWED`] creates a thread no join
/// or shutdown protocol knows about; scoped spawns are structurally
/// joined and exempt.
pub fn spawn_confinement(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (rel, path) in library_sources(root, &mut violations) {
        if SPAWN_ALLOWED.contains(&rel.as_str()) {
            continue;
        }
        let Some(text) = read(&path, &rel, &mut violations) else { continue };
        scan_code_lines(&text, |line_no, line| {
            if line.contains(SPAWN_CALL) {
                violations.push(Violation {
                    rule: "spawn-confinement",
                    file: rel.clone(),
                    line: line_no,
                    detail: format!(
                        "`{SPAWN_CALL}` outside the supervised pools: a detached \
                         thread escapes every join/shutdown protocol; use a scoped \
                         spawn or one of the existing pools"
                    ),
                });
            }
        });
    }
    violations
}

// ---------------------------------------------------------------------
// Scanning machinery
// ---------------------------------------------------------------------

/// Whether `line` (already comment-stripped by the caller) calls a
/// panicking extractor. `expect_err` is a test-side assertion helper,
/// not a hidden panic path, and is excluded.
fn has_panic_call(line: &str) -> bool {
    if line.contains(UNWRAP) {
        return true;
    }
    let mut rest = line;
    while let Some(pos) = rest.find(EXPECT) {
        if !rest[pos..].starts_with(EXPECT_ERR) {
            return true;
        }
        rest = &rest[pos + EXPECT.len()..];
    }
    false
}

fn is_pub_fn(trimmed: &str) -> bool {
    ["pub fn ", "pub const fn ", "pub async fn "].iter().any(|p| trimmed.starts_with(p))
}

/// Does a collected `pub fn` signature return `Result<_, String>`?
/// Parses the return type's generic arguments at top level, so
/// `Result<String, E>` and nested `Vec<Result<_, String>>` are both
/// classified correctly.
fn string_error_return(sig: &str) -> bool {
    let Some(arrow) = sig.find("->") else { return false };
    let ret = &sig[arrow + 2..];
    let Some(start) = ret.find("Result<") else { return false };
    let args = &ret[start + "Result<".len()..];
    let mut depth = 0usize;
    let mut second = None;
    for (i, ch) in args.char_indices() {
        match ch {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => break,
            '>' | ')' | ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                second = Some(&args[i + 1..]);
                break;
            }
            _ => {}
        }
    }
    let Some(rest) = second else { return false };
    let mut depth = 0usize;
    let mut err_ty = rest;
    for (i, ch) in rest.char_indices() {
        match ch {
            '<' | '(' | '[' => depth += 1,
            '>' if depth == 0 => {
                err_ty = &rest[..i];
                break;
            }
            '>' | ')' | ']' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    err_ty.trim() == "String"
}

/// Feeds `f` every line that is *code*: comment lines and the bodies of
/// `#[cfg(test)]` items (tracked by brace counting) are skipped.
/// Line numbers are 1-based.
fn scan_code_lines(text: &str, mut f: impl FnMut(usize, &str)) {
    let mut pending_test_attr = false;
    let mut skip_depth = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if skip_depth > 0 {
            skip_depth += count(line, '{');
            skip_depth = skip_depth.saturating_sub(count(line, '}'));
            continue;
        }
        if pending_test_attr {
            if line.starts_with("#[") {
                continue;
            }
            let opens = count(line, '{');
            let closes = count(line, '}');
            if opens > closes {
                skip_depth = opens - closes;
            }
            pending_test_attr = false;
            continue;
        }
        if line.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
            continue;
        }
        if line.starts_with("//") {
            continue;
        }
        f(i + 1, raw);
    }
}

fn count(line: &str, ch: char) -> usize {
    line.chars().filter(|&c| c == ch).count()
}

/// Does this (trimmed) line start a function item? Lock scopes are
/// approximated as fn-to-fn spans, so this only needs to catch the
/// declaration forms the workspace uses.
fn is_fn_item(trimmed: &str) -> bool {
    let mut rest = trimmed;
    for prefix in ["pub(crate) ", "pub ", "const ", "async ", "unsafe ", "extern \"C\" "] {
        if let Some(stripped) = rest.strip_prefix(prefix) {
            rest = stripped;
        }
    }
    rest.starts_with("fn ")
}

/// Parses the committed lock-order file: `class: pattern` lines,
/// outermost first; repeated class lines add patterns. Returns classes
/// in rank order. Malformed lines surface as violations.
fn parse_lock_order(text: &str) -> (Vec<(String, Vec<String>)>, Vec<Violation>) {
    let mut classes: Vec<(String, Vec<String>)> = Vec::new();
    let mut violations = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line.split_once(':').map(|(c, p)| (c.trim(), p.trim()));
        let Some((class, pattern)) = parsed.filter(|(c, p)| !c.is_empty() && !p.is_empty()) else {
            violations.push(Violation {
                rule: "lock-order",
                file: LOCK_ORDER_FILE.to_owned(),
                line: i + 1,
                detail: format!("bad lock-order line {line:?} (want `class: pattern`)"),
            });
            continue;
        };
        match classes.iter_mut().find(|(c, _)| c == class) {
            Some((_, patterns)) => patterns.push(pattern.to_owned()),
            None => classes.push((class.to_owned(), vec![pattern.to_owned()])),
        }
    }
    (classes, violations)
}

/// Finds a cycle in the observed acquisition-order graph, returned as
/// a node path whose first node is repeated at the end.
fn find_cycle(n: usize, edges: &[(usize, usize, String, usize)]) -> Option<Vec<usize>> {
    let mut adjacent = vec![Vec::new(); n];
    for &(a, b, ..) in edges {
        adjacent[a].push(b);
    }
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; n];
    let mut path = Vec::new();
    for start in 0..n {
        if color[start] == 0 && dfs_cycle(start, &adjacent, &mut color, &mut path) {
            // The re-entered node was pushed twice: once where the
            // path first reached it, once on cycle detection — so the
            // slice from its first occurrence already closes the loop.
            let entry = *path.last().unwrap_or(&start);
            let from = path.iter().position(|&x| x == entry).unwrap_or(0);
            return Some(path[from..].to_vec());
        }
    }
    None
}

fn dfs_cycle(
    node: usize,
    adjacent: &[Vec<usize>],
    color: &mut [u8],
    path: &mut Vec<usize>,
) -> bool {
    color[node] = 1;
    path.push(node);
    for &next in &adjacent[node] {
        if color[next] == 1 {
            path.push(next);
            return true;
        }
        if color[next] == 0 && dfs_cycle(next, adjacent, color, path) {
            return true;
        }
    }
    color[node] = 2;
    path.pop();
    false
}

/// Appends the word after every `token` on `line` to `out`
/// (deduplicated).
fn collect_after(line: &str, token: &str, out: &mut Vec<String>) {
    let mut rest = line;
    while let Some(pos) = rest.find(token) {
        rest = &rest[pos + token.len()..];
        push_word(rest, out);
    }
}

fn push_word(text: &str, out: &mut Vec<String>) {
    let value: String =
        text.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if !value.is_empty() && !out.contains(&value) {
        out.push(value);
    }
}

/// Parses the `path: count` allowlist. Malformed lines surface as
/// violations rather than being ignored.
fn parse_allowlist(text: &str) -> (Vec<(String, usize)>, Vec<Violation>) {
    let mut entries = Vec::new();
    let mut violations = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.rsplit_once(':') {
            Some((path, count)) => match count.trim().parse::<usize>() {
                Ok(n) if n > 0 => entries.push((path.trim().to_owned(), n)),
                _ => violations.push(Violation {
                    rule: "panic-audit",
                    file: ALLOWLIST_FILE.to_owned(),
                    line: i + 1,
                    detail: format!("bad allowlist count in {line:?} (want a positive integer)"),
                }),
            },
            None => violations.push(Violation {
                rule: "panic-audit",
                file: ALLOWLIST_FILE.to_owned(),
                line: i + 1,
                detail: format!("bad allowlist line {line:?} (want `path: count`)"),
            }),
        }
    }
    (entries, violations)
}

/// Parses a crate manifest's `[dependencies]` / `[dev-dependencies]`
/// sections and checks every `specfetch-*` edge against the DAG.
fn check_manifest_edges(
    name: &str,
    deps: &[&str],
    dev: &[&str],
    text: &str,
    rel: &str,
    violations: &mut Vec<Violation>,
) {
    let mut section = "";
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let in_deps = section == "[dependencies]";
        let in_dev = section == "[dev-dependencies]";
        if !in_deps && !in_dev {
            continue;
        }
        let Some(after) = line.strip_prefix(CRATE_PREFIX_TOML) else { continue };
        let dep: String = after.chars().take_while(|c| c.is_ascii_lowercase()).collect();
        let allowed = deps.contains(&dep.as_str()) || (in_dev && dev.contains(&dep.as_str()));
        if !allowed {
            violations.push(Violation {
                rule: "layering",
                file: rel.to_owned(),
                line: i + 1,
                detail: format!(
                    "crate `{name}` must not depend on `{CRATE_PREFIX_TOML}{dep}` \
                     (workspace DAG back-edge)"
                ),
            });
        }
    }
}

/// Every library source file: all `crates/*/src` trees plus the root
/// `src/`, minus `bin/` directories and the files of out-of-line
/// `#[cfg(test)]` modules (test code, like an inline `#[cfg(test)]`
/// item). Returns (repo-relative, absolute) pairs, sorted for
/// deterministic reports.
fn library_sources(root: &Path, violations: &mut Vec<Violation>) -> Vec<(String, PathBuf)> {
    let mut roots = vec![root.join("src")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            roots.push(entry.path().join("src"));
        }
    }
    let mut files = Vec::new();
    for src in roots {
        if src.is_dir() {
            collect_rs(&src, root, &mut files, violations);
        }
    }
    files.sort();
    let mut test_modules = Vec::new();
    for (rel, path) in &files {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        test_modules.extend(out_of_line_test_modules(rel, &text));
    }
    // A test module's own file, or any file of its submodules.
    files.retain(|(rel, _)| {
        !test_modules.iter().any(|m| *rel == format!("{m}.rs") || rel.starts_with(&format!("{m}/")))
    });
    files
}

/// The module paths (repo-relative, without extension) that `text`, the
/// file at `rel`, declares as out-of-line `#[cfg(test)] mod name;`: the
/// module lives in `<path>.rs` or under `<path>/`.
fn out_of_line_test_modules(rel: &str, text: &str) -> Vec<String> {
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    let stem = file.trim_end_matches(".rs");
    // `lib.rs`, `main.rs` and `mod.rs` own their directory; any other
    // file `x.rs` keeps its submodules under `x/`.
    let module_dir = if ["lib", "main", "mod"].contains(&stem) {
        dir.to_owned()
    } else {
        format!("{dir}/{stem}")
    };
    let mut found = Vec::new();
    let mut pending_test_attr = false;
    for raw in text.lines() {
        let mut line = raw.trim();
        if let Some(rest) = line.strip_prefix("#[cfg(test)]") {
            pending_test_attr = true;
            line = rest.trim();
            if line.is_empty() {
                continue;
            }
        }
        if !pending_test_attr || line.starts_with("#[") {
            continue;
        }
        pending_test_attr = false;
        let item = ["pub(crate) ", "pub(super) ", "pub "]
            .iter()
            .find_map(|v| line.strip_prefix(v))
            .unwrap_or(line);
        if let Some(name) = item.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            found.push(format!("{module_dir}/{}", name.trim()));
        }
    }
    found
}

/// Recursively collects `.rs` files under `dir` (skipping `bin/`
/// directories), as (repo-relative, absolute) pairs.
fn collect_rs(
    dir: &Path,
    root: &Path,
    out: &mut Vec<(String, PathBuf)>,
    violations: &mut Vec<Violation>,
) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            violations.push(Violation {
                rule: "io",
                file: rel_path(dir, root),
                line: 0,
                detail: format!("unreadable directory: {e}"),
            });
            return;
        }
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&p, root, out, violations);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((rel_path(&p, root), p));
        }
    }
}

fn rel_path(p: &Path, root: &Path) -> String {
    let rel = p.strip_prefix(root).unwrap_or(p);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

fn read(path: &Path, rel: &str, violations: &mut Vec<Violation>) -> Option<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Some(text),
        Err(e) => {
            violations.push(Violation {
                rule: "io",
                file: rel.to_owned(),
                line: 0,
                detail: format!("unreadable file: {e}"),
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_call_detection_excludes_expect_err() {
        assert!(has_panic_call(&format!("let x = v{UNWRAP};")));
        assert!(has_panic_call(&format!("let x = v{EXPECT}\"m\");")));
        assert!(!has_panic_call(&format!("let e = r{EXPECT_ERR}\"m\");")));
        assert!(has_panic_call(&format!("r{EXPECT_ERR}\"m\"); v{EXPECT}\"m\");")));
        assert!(!has_panic_call("let x = v.unwrap_or_default();"));
    }

    #[test]
    fn string_error_return_parses_generics_at_top_level() {
        assert!(string_error_return("pub fn f() -> Result<FaultPlan, String> {"));
        assert!(string_error_return("pub fn f() -> Vec<Result<u8, String>> {"));
        assert!(!string_error_return("pub fn f() -> Result<String, SpecfetchError> {"));
        assert!(!string_error_return("pub fn f(x: Result<u8, String>) -> u8 {"));
        assert!(!string_error_return("pub fn f() -> Result<Vec<(usize, String)>, Error> {"));
        assert!(!string_error_return("pub fn f() -> u8 {"));
    }

    #[test]
    fn cfg_test_modules_are_skipped_by_brace_counting() {
        let text = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {\n    }\n}\nfn c() {}\n";
        let mut seen = Vec::new();
        scan_code_lines(text, |n, _| seen.push(n));
        assert_eq!(seen, vec![1, 7]);
    }

    #[test]
    fn comment_lines_and_attr_runs_are_skipped() {
        let text =
            "// no\n/// doc\n#[cfg(test)]\n#[allow(dead_code)]\nfn t() { body(); }\nlive();\n";
        let mut seen = Vec::new();
        scan_code_lines(text, |n, _| seen.push(n));
        assert_eq!(seen, vec![6]);
    }

    #[test]
    fn out_of_line_test_modules_resolve_against_the_declaring_file() {
        let text = "mod live;\n#[cfg(test)]\nmod conformance;\n#[cfg(test)] pub(crate) mod b;\n\
                    #[cfg(test)]\n#[allow(dead_code)]\nmod c;\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(
            out_of_line_test_modules("crates/x/src/lib.rs", text),
            vec!["crates/x/src/conformance", "crates/x/src/b", "crates/x/src/c"]
        );
        assert_eq!(
            out_of_line_test_modules("crates/x/src/engine.rs", "#[cfg(test)]\nmod t;\n"),
            vec!["crates/x/src/engine/t"]
        );
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let (entries, errs) = parse_allowlist("# c\n\na/b.rs: 2\nbad line\nc.rs: x\n");
        assert_eq!(entries, vec![("a/b.rs".to_owned(), 2)]);
        assert_eq!(errs.len(), 2);
    }
}
