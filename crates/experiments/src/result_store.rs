//! Persistent, self-healing store of finished [`SimResult`]s.
//!
//! `--result-dir <dir>` keys every simulated grid point by **schema
//! version + benchmark + window length + canonical config hash** and
//! persists it as one small checksummed text file, so a later process —
//! a resumed sweep, a warm re-run, or another run sharing the directory
//! — renders the row instead of recomputing it. The canonical config encoding lives in
//! `specfetch_core::canon` (`SimConfig::canonical_hash`), which is
//! stable across processes and compile sessions, unlike `std::hash`.
//!
//! Layout: `<dir>/v1/<bench>-<instrs>-<confighash:016x>.sr`. Bumping
//! either [`specfetch_core::CANON_VERSION`] (config encoding) or
//! [`FORMAT_VERSION`] (file format) strands old entries harmlessly —
//! the `v1` path segment and the header line both change, so stale
//! results are never *read*, merely ignored.
//!
//! Every load is verified end to end (header, full canonical config
//! match — not just the hash — result decode, FNV-1a footer checksum)
//! and any failure quarantines the file (`*.quarantined`) and reports a
//! miss, so a corrupt entry costs one warning and one recompute, never
//! a wrong number or a failed cell.
//! Writes go through a per-process unique temp file + atomic rename:
//! two processes racing on one key both land a complete, valid file,
//! and readers never observe a half-written entry. Failure to write
//! (read-only dir, disk full) is a warning — persistence is an
//! optimisation, and the result is already in hand.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use specfetch_core::{fnv1a, SimConfig, SimResult, SpecfetchError};

use crate::codec::{decode_result, encode_result, json_escape, json_unescape};

/// Version of the store's file format (header line + path segment).
pub const FORMAT_VERSION: u32 = 1;

/// What the store remembers about a grid point: a finished result, or —
/// the negative cache (DESIGN §5j) — a *terminal* failure whose reason
/// replays verbatim as `FAILED(...)` so resumed sweeps skip known-bad
/// points. Interrupted points are never stored; `--retry-failed` makes
/// readers ignore `Failed` entries (a later success overwrites them).
#[derive(Clone, PartialEq, Debug)]
#[allow(clippy::large_enum_variant)] // transient return value, matched immediately
pub enum StoredOutcome {
    /// The point completed with this result.
    Completed(SimResult),
    /// The point failed terminally (retries exhausted) with this reason.
    Failed(String),
}

static DIR: OnceLock<PathBuf> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);

/// Enables the result store, rooted at `dir` (created on first store).
/// Called once by the CLI (`--result-dir`) before any experiment runs.
///
/// # Errors
///
/// [`SpecfetchError::InvalidSpec`] if a store directory is already
/// configured.
pub fn set_dir(dir: PathBuf) -> Result<(), SpecfetchError> {
    DIR.set(dir).map_err(|d| SpecfetchError::InvalidSpec {
        detail: format!("result store directory already set to {}", d.display()),
    })
}

/// The configured store root, if `--result-dir` was given.
pub fn dir() -> Option<&'static Path> {
    DIR.get().map(PathBuf::as_path)
}

/// Lifetime `(hits, stores)` counters for this process — the CLI prints
/// them so resume tests can assert "no completed point reruns".
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), STORES.load(Ordering::Relaxed))
}

fn entry_path(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig) -> PathBuf {
    dir.join(format!("v{FORMAT_VERSION}"))
        .join(format!("{bench}-{instrs}-{:016x}.sr", cfg.canonical_hash()))
}

/// Looks up the stored outcome for one grid point. `None` when the
/// store is not configured, the entry is absent, or it failed
/// verification (in which case it has been quarantined and the caller
/// recomputes).
pub(crate) fn get(bench: &str, instrs: u64, cfg: &SimConfig) -> Option<StoredOutcome> {
    let dir = DIR.get()?;
    get_in(dir, bench, instrs, cfg)
}

/// Persists the result for one grid point (no-op unless configured).
pub(crate) fn put(bench: &str, instrs: u64, cfg: &SimConfig, result: &SimResult) {
    if let Some(dir) = DIR.get() {
        put_in(dir, bench, instrs, cfg, result);
    }
}

/// Persists a terminal failure for one grid point (no-op unless
/// configured) — the negative cache.
pub(crate) fn put_failed(bench: &str, instrs: u64, cfg: &SimConfig, reason: &str) {
    if let Some(dir) = DIR.get() {
        put_failed_in(dir, bench, instrs, cfg, reason);
    }
}

/// [`get`] with an explicit root, so tests drive the disk paths without
/// touching the process-wide configuration.
pub fn get_in(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig) -> Option<StoredOutcome> {
    let path = entry_path(dir, bench, instrs, cfg);
    if !path.exists() {
        return None;
    }
    match load(&path, cfg) {
        Ok(r) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Some(r)
        }
        Err(e) => {
            quarantine(&path, &e.to_string());
            None
        }
    }
}

/// [`put`] with an explicit root (see [`get_in`]).
pub fn put_in(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig, result: &SimResult) {
    write_entry(dir, bench, instrs, cfg, &render(cfg, result));
}

/// [`put_failed`] with an explicit root (see [`get_in`]).
pub fn put_failed_in(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig, reason: &str) {
    write_entry(dir, bench, instrs, cfg, &render_failed(cfg, reason));
}

fn write_entry(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig, text: &str) {
    let path = entry_path(dir, bench, instrs, cfg);
    if let Err(e) = store(&path, text) {
        eprintln!(
            "specfetch: warning: could not persist result {}: {e} (continuing unstored)",
            path.display()
        );
    } else {
        STORES.fetch_add(1, Ordering::Relaxed);
    }
}

fn seal(body: String) -> String {
    format!("{body}checksum={:016x}\n", fnv1a(body.as_bytes()))
}

fn render(cfg: &SimConfig, result: &SimResult) -> String {
    seal(format!(
        "specfetch-result/{FORMAT_VERSION}\ncfg={}\nresult={}\n",
        cfg.canonical_string(),
        encode_result(result)
    ))
}

fn render_failed(cfg: &SimConfig, reason: &str) -> String {
    seal(format!(
        "specfetch-result/{FORMAT_VERSION}\ncfg={}\nfailed={}\n",
        cfg.canonical_string(),
        json_escape(reason)
    ))
}

fn corrupt(path: &Path, detail: impl Into<String>) -> SpecfetchError {
    SpecfetchError::CorruptStoreEntry { path: path.to_path_buf(), detail: detail.into() }
}

/// Reads and fully verifies one store entry. Any structural problem —
/// unreadable file, bad header, checksum mismatch, config mismatch
/// (hash collision or a renamed file), or an undecodable result — is a
/// [`SpecfetchError::CorruptStoreEntry`].
fn load(path: &Path, cfg: &SimConfig) -> Result<StoredOutcome, SpecfetchError> {
    let text = std::fs::read_to_string(path).map_err(|source| SpecfetchError::Io {
        context: format!("opening result store entry {}", path.display()),
        source,
    })?;
    let (body, footer) =
        text.rsplit_once("checksum=").ok_or_else(|| corrupt(path, "missing checksum footer"))?;
    let want = footer.trim_end_matches('\n').trim();
    let got = format!("{:016x}", fnv1a(body.as_bytes()));
    if want != got {
        return Err(corrupt(path, format!("checksum mismatch (footer {want}, computed {got})")));
    }
    let mut lines = body.lines();
    let header = lines.next().unwrap_or_default();
    let expect_header = format!("specfetch-result/{FORMAT_VERSION}");
    if header != expect_header {
        return Err(corrupt(path, format!("bad header {header:?}, expected {expect_header:?}")));
    }
    let cfg_line = lines
        .next()
        .and_then(|l| l.strip_prefix("cfg="))
        .ok_or_else(|| corrupt(path, "missing cfg line"))?;
    // Compare the full canonical string, not just the hash the filename
    // encodes: this catches hash collisions and hand-renamed files.
    if cfg_line != cfg.canonical_string() {
        return Err(corrupt(path, "stored config does not match the requested grid point"));
    }
    let outcome_line = lines.next().ok_or_else(|| corrupt(path, "missing result line"))?;
    if lines.next().is_some() {
        return Err(corrupt(path, "trailing data after result line"));
    }
    if let Some(result_line) = outcome_line.strip_prefix("result=") {
        return decode_result(result_line)
            .map(StoredOutcome::Completed)
            .map_err(|e| corrupt(path, format!("undecodable result: {e}")));
    }
    if let Some(reason) = outcome_line.strip_prefix("failed=") {
        return json_unescape(reason)
            .map(StoredOutcome::Failed)
            .ok_or_else(|| corrupt(path, "undecodable failure reason"));
    }
    Err(corrupt(path, "missing result line"))
}

/// Persists one entry atomically: write to a per-process unique temp
/// file in the same directory, then rename over the final path. Racing
/// writers both produce complete files; the last rename wins and both
/// contents are identical for a deterministic simulator.
fn store(path: &Path, text: &str) -> Result<(), SpecfetchError> {
    let parent = path.parent().ok_or_else(|| corrupt(path, "entry path has no parent"))?;
    std::fs::create_dir_all(parent).map_err(|source| SpecfetchError::Io {
        context: format!("creating result store directory {}", parent.display()),
        source,
    })?;
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = parent.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("entry")
    ));
    std::fs::write(&tmp, text).map_err(|source| SpecfetchError::Io {
        context: format!("writing result store entry {}", tmp.display()),
        source,
    })?;
    std::fs::rename(&tmp, path).map_err(|source| {
        let _ = std::fs::remove_file(&tmp);
        SpecfetchError::Io {
            context: format!("publishing result store entry {}", path.display()),
            source,
        }
    })
}

/// Moves a bad entry out of the way (to `<file>.quarantined`) so the
/// caller recomputes, keeping the corpse for post-mortems.
fn quarantine(path: &Path, detail: &str) {
    let parked = {
        let mut os = path.as_os_str().to_owned();
        os.push(".quarantined");
        PathBuf::from(os)
    };
    let outcome = match std::fs::rename(path, &parked) {
        Ok(()) => format!("quarantined to {}", parked.display()),
        Err(_) => match std::fs::remove_file(path) {
            Ok(()) => "removed".to_owned(),
            Err(e) => format!("could not be moved aside ({e})"),
        },
    };
    eprintln!(
        "specfetch: warning: result store entry {} failed verification ({detail}); {outcome}; \
         recomputing",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfetch_core::Simulator;
    use specfetch_synth::suite::Benchmark;
    use specfetch_trace::PathSource;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("specfetch-result-store-{}-{tag}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(classify: bool) -> (SimConfig, SimResult) {
        let b = Benchmark::by_name("li").unwrap();
        let mut cfg = SimConfig::paper_baseline();
        cfg.classify = classify;
        let w = b.workload().unwrap();
        let r = Simulator::new(cfg).run(w.executor(b.path_seed()).take_instrs(4_000));
        (cfg, r)
    }

    #[test]
    fn round_trip_and_miss_on_other_keys() {
        let dir = scratch("rt");
        let (cfg, r) = point(true);
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), None, "cold store must miss");
        put_in(&dir, "li", 4_000, &cfg, &r);
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), Some(StoredOutcome::Completed(r)));
        // Different bench, window, or config: all misses.
        assert_eq!(get_in(&dir, "tex", 4_000, &cfg), None);
        assert_eq!(get_in(&dir, "li", 5_000, &cfg), None);
        let mut other = cfg;
        other.miss_penalty = cfg.miss_penalty + 1;
        assert_eq!(get_in(&dir, "li", 4_000, &other), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_entries_round_trip_and_are_overwritten_by_success() {
        let dir = scratch("neg");
        let (cfg, r) = point(true);
        put_failed_in(&dir, "li", 4_000, &cfg, "timeout after 30s");
        assert_eq!(
            get_in(&dir, "li", 4_000, &cfg),
            Some(StoredOutcome::Failed("timeout after 30s".to_owned())),
            "negative entries replay their reason verbatim"
        );
        // A later success (e.g. under --retry-failed) overwrites the
        // negative entry.
        put_in(&dir, "li", 4_000, &cfg, &r);
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), Some(StoredOutcome::Completed(r)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_reasons_survive_escaping() {
        let dir = scratch("negesc");
        let (cfg, _) = point(false);
        let nasty = "panicked:\n \"quote\" \\ tab\t";
        put_failed_in(&dir, "li", 4_000, &cfg, nasty);
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), Some(StoredOutcome::Failed(nasty.to_owned())));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_quarantined_and_misses() {
        let dir = scratch("trunc");
        let (cfg, r) = point(false);
        put_in(&dir, "li", 4_000, &cfg, &r);
        let path = entry_path(&dir, "li", 4_000, &cfg);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert_eq!(get_in(&dir, "li", 4_000, &cfg), None, "truncated entry must miss");
        let parked = {
            let mut os = path.as_os_str().to_owned();
            os.push(".quarantined");
            PathBuf::from(os)
        };
        assert!(parked.exists(), "the bad file must be kept for post-mortems");
        assert!(!path.exists(), "the bad file must be moved out of the way");

        // Self-heal: recompute + re-store lands a fresh valid entry.
        put_in(&dir, "li", 4_000, &cfg, &r);
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), Some(StoredOutcome::Completed(r)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_is_caught_by_the_checksum() {
        let dir = scratch("flip");
        let (cfg, r) = point(false);
        put_in(&dir, "li", 4_000, &cfg, &r);
        let path = entry_path(&dir, "li", 4_000, &cfg);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a digit inside the result line (keeps the file structurally
        // valid — only the checksum can catch it).
        let idx = bytes.windows(7).position(|w| w == b"cycles=").unwrap() + 7;
        bytes[idx] = if bytes[idx] == b'9' { b'8' } else { bytes[idx] + 1 };
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), None, "flipped byte must miss");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_for_a_different_config_is_rejected_even_with_matching_name() {
        // Simulate a hash collision / hand-renamed file: a valid entry for
        // config A placed at config B's path must not serve B.
        let dir = scratch("collide");
        let (cfg, r) = point(false);
        let mut other = cfg;
        other.max_unresolved = cfg.max_unresolved + 1;
        put_in(&dir, "li", 4_000, &cfg, &r);
        std::fs::rename(entry_path(&dir, "li", 4_000, &cfg), entry_path(&dir, "li", 4_000, &other))
            .unwrap();
        assert_eq!(get_in(&dir, "li", 4_000, &other), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_format_version_is_ignored_not_trusted() {
        let dir = scratch("future");
        let (cfg, r) = point(false);
        put_in(&dir, "li", 4_000, &cfg, &r);
        let path = entry_path(&dir, "li", 4_000, &cfg);
        // Rewrite as a "version 2" file with a correct checksum: the
        // header check must still reject it.
        let body = std::fs::read_to_string(&path)
            .unwrap()
            .rsplit_once("checksum=")
            .unwrap()
            .0
            .replacen("specfetch-result/1", "specfetch-result/2", 1);
        std::fs::write(&path, format!("{body}checksum={:016x}\n", fnv1a(body.as_bytes()))).unwrap();
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn racing_writers_both_land_valid_entries() {
        let dir = scratch("race");
        let (cfg, r) = point(true);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| put_in(&dir, "li", 4_000, &cfg, &r));
            }
        });
        assert_eq!(get_in(&dir, "li", 4_000, &cfg), Some(StoredOutcome::Completed(r)));
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.join("v1"))
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().into_string().ok())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_store_is_a_warning_not_an_error() {
        let dir = scratch("rofs");
        let blocking = dir.join("blocked");
        std::fs::write(&blocking, b"not a directory").unwrap();
        let (cfg, r) = point(false);
        // put into a path whose parent is a file: create_dir_all fails,
        // warn-only — must not panic or error.
        put_in(&blocking.join("sub"), "li", 4_000, &cfg, &r);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
