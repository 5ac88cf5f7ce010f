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
//! A second entry kind, the **path entry**, keeps one Table 2 row per
//! `(benchmark, window)`: the path's [`TraceStats`] and the image's
//! static footprint. Table 2 runs no timing model, so the row needs no
//! config in its key, and a warm run serves it without recording,
//! interpreting or generating the workload.
//!
//! Layout: `<dir>/v1/<bench>-<instrs>-<confighash:016x>.sr` for results
//! and `<dir>/v1/path/<bench>-<instrs>.sr` for path entries. Bumping
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
use specfetch_trace::TraceStats;

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

/// What the store remembers about a benchmark's correct path at one
/// window: the measured columns of its Table 2 row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PathEntry {
    /// Dynamic path statistics over the window.
    pub stats: TraceStats,
    /// Static code footprint of the image, bytes.
    pub footprint_bytes: u64,
}

static DIR: OnceLock<PathBuf> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static PATH_HITS: AtomicU64 = AtomicU64::new(0);
static PATH_STORES: AtomicU64 = AtomicU64::new(0);

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

/// Lifetime `(hits, stores)` counters of path entries, kept apart from
/// [`stats`] so the result counters still count grid points only.
pub fn path_stats() -> (u64, u64) {
    (PATH_HITS.load(Ordering::Relaxed), PATH_STORES.load(Ordering::Relaxed))
}

fn entry_path(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig) -> PathBuf {
    dir.join(format!("v{FORMAT_VERSION}"))
        .join(format!("{bench}-{instrs}-{:016x}.sr", cfg.canonical_hash()))
}

fn path_entry_path(dir: &Path, bench: &str, instrs: u64) -> PathBuf {
    dir.join(format!("v{FORMAT_VERSION}")).join("path").join(format!("{bench}-{instrs}.sr"))
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
    fetch(&entry_path(dir, bench, instrs, cfg), &HITS, |path| load(path, cfg))
}

/// The path entry for `bench` at `instrs` under `dir`. `None` when it is
/// absent or failed verification (then it has been quarantined).
pub fn get_path_in(dir: &Path, bench: &str, instrs: u64) -> Option<PathEntry> {
    fetch(&path_entry_path(dir, bench, instrs), &PATH_HITS, |path| load_path(path, bench, instrs))
}

/// Loads one entry if it exists, counting a hit on `hits`; a failed
/// load quarantines the file and misses.
fn fetch<T>(
    path: &Path,
    hits: &AtomicU64,
    load: impl FnOnce(&Path) -> Result<T, SpecfetchError>,
) -> Option<T> {
    if !path.exists() {
        return None;
    }
    match load(path) {
        Ok(v) => {
            hits.fetch_add(1, Ordering::Relaxed);
            Some(v)
        }
        Err(e) => {
            quarantine(path, &e.to_string());
            None
        }
    }
}

/// [`put`] with an explicit root (see [`get_in`]).
pub fn put_in(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig, result: &SimResult) {
    publish(&entry_path(dir, bench, instrs, cfg), &render(cfg, result), &STORES);
}

/// [`put_failed`] with an explicit root (see [`get_in`]).
pub fn put_failed_in(dir: &Path, bench: &str, instrs: u64, cfg: &SimConfig, reason: &str) {
    publish(&entry_path(dir, bench, instrs, cfg), &render_failed(cfg, reason), &STORES);
}

/// Persists the path entry for `bench` at `instrs` under `dir`.
pub fn put_path_in(dir: &Path, bench: &str, instrs: u64, entry: &PathEntry) {
    let text = seal(format!(
        "{}\n{}\npath={}\n",
        path_header(),
        path_key(bench, instrs),
        encode_path(entry)
    ));
    publish(&path_entry_path(dir, bench, instrs), &text, &PATH_STORES);
}

fn publish(path: &Path, text: &str, stores: &AtomicU64) {
    if let Err(e) = store(path, text) {
        eprintln!(
            "specfetch: warning: could not persist result {}: {e} (continuing unstored)",
            path.display()
        );
    } else {
        stores.fetch_add(1, Ordering::Relaxed);
    }
}

fn seal(body: String) -> String {
    format!("{body}checksum={:016x}\n", fnv1a(body.as_bytes()))
}

fn result_header() -> String {
    format!("specfetch-result/{FORMAT_VERSION}")
}

fn path_header() -> String {
    format!("specfetch-path/{FORMAT_VERSION}")
}

fn path_key(bench: &str, instrs: u64) -> String {
    format!("bench={bench} instrs={instrs}")
}

fn render(cfg: &SimConfig, result: &SimResult) -> String {
    seal(format!(
        "{}\ncfg={}\nresult={}\n",
        result_header(),
        cfg.canonical_string(),
        encode_result(result)
    ))
}

fn render_failed(cfg: &SimConfig, reason: &str) -> String {
    seal(format!(
        "{}\ncfg={}\nfailed={}\n",
        result_header(),
        cfg.canonical_string(),
        json_escape(reason)
    ))
}

/// The keys of a `path=` line, in order.
const PATH_KEYS: [&str; 10] =
    ["instrs", "br", "cond", "taken", "jumps", "calls", "rets", "ind", "lines32", "static"];

/// Renders a [`PathEntry`] as one deterministic `key=value` line.
fn encode_path(p: &PathEntry) -> String {
    // Exhaustive destructuring, as in `codec::encode_result`: a new
    // field is a compile error here until the line learns it.
    let PathEntry {
        stats:
            TraceStats {
                instrs,
                branches,
                cond_branches,
                taken_conds,
                jumps,
                calls,
                returns,
                indirects,
                touched_lines_32b,
            },
        footprint_bytes,
    } = *p;
    let values = [
        instrs,
        branches,
        cond_branches,
        taken_conds,
        jumps,
        calls,
        returns,
        indirects,
        touched_lines_32b,
        footprint_bytes,
    ];
    let terms: Vec<String> =
        PATH_KEYS.iter().zip(values).map(|(k, v)| format!("{k}={v}")).collect();
    terms.join(" ")
}

/// Parses an [`encode_path`] line: every key, in order, exactly once.
/// The error names the first missing, extra, reordered or non-integer
/// term.
fn decode_path(s: &str) -> Result<PathEntry, String> {
    let mut terms = s.split_ascii_whitespace();
    let mut values = [0u64; PATH_KEYS.len()];
    for (key, slot) in PATH_KEYS.iter().zip(&mut values) {
        let term = terms.next().ok_or_else(|| format!("missing key {key:?}"))?;
        let value = term
            .strip_prefix(key)
            .and_then(|t| t.strip_prefix('='))
            .ok_or_else(|| format!("bad term {term:?} (expected {key}=<n>)"))?;
        *slot = value.parse().map_err(|_| format!("bad integer {value:?} for key {key:?}"))?;
    }
    if let Some(extra) = terms.next() {
        return Err(format!("trailing term {extra:?}"));
    }
    let [instrs, branches, cond_branches, taken_conds, jumps, calls, returns, indirects, touched_lines_32b, footprint_bytes] =
        values;
    Ok(PathEntry {
        stats: TraceStats {
            instrs,
            branches,
            cond_branches,
            taken_conds,
            jumps,
            calls,
            returns,
            indirects,
            touched_lines_32b,
        },
        footprint_bytes,
    })
}

fn corrupt(path: &Path, detail: impl Into<String>) -> SpecfetchError {
    SpecfetchError::CorruptStoreEntry { path: path.to_path_buf(), detail: detail.into() }
}

/// Reads one entry, checks its checksum footer and its `header` line,
/// and returns the body after the header.
fn read_sealed(path: &Path, header: &str) -> Result<String, SpecfetchError> {
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
    let (first, rest) = body.split_once('\n').unwrap_or((body, ""));
    if first != header {
        return Err(corrupt(path, format!("bad header {first:?}, expected {header:?}")));
    }
    Ok(rest.to_owned())
}

/// Reads and fully verifies one store entry. Any structural problem —
/// unreadable file, bad header, checksum mismatch, config mismatch
/// (hash collision or a renamed file), or an undecodable result — is a
/// [`SpecfetchError::CorruptStoreEntry`].
fn load(path: &Path, cfg: &SimConfig) -> Result<StoredOutcome, SpecfetchError> {
    let body = read_sealed(path, &result_header())?;
    let mut lines = body.lines();
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

/// Reads and fully verifies one path entry: checksum, header, the full
/// `(bench, instrs)` key (a renamed file must not serve another key),
/// and the stats line.
fn load_path(path: &Path, bench: &str, instrs: u64) -> Result<PathEntry, SpecfetchError> {
    let body = read_sealed(path, &path_header())?;
    let mut lines = body.lines();
    if lines.next() != Some(path_key(bench, instrs).as_str()) {
        return Err(corrupt(path, "stored key does not match the requested benchmark and window"));
    }
    let line = lines
        .next()
        .and_then(|l| l.strip_prefix("path="))
        .ok_or_else(|| corrupt(path, "missing path line"))?;
    if lines.next().is_some() {
        return Err(corrupt(path, "trailing data after path line"));
    }
    decode_path(line).map_err(|e| corrupt(path, format!("undecodable path entry: {e}")))
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
    use specfetch_trace::{PathSource, TraceStats};
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

    fn path_point() -> PathEntry {
        let b = Benchmark::by_name("li").unwrap();
        let w = b.workload().unwrap();
        let stats = TraceStats::from_source(&mut w.executor(b.path_seed()).take_instrs(4_000));
        PathEntry { stats, footprint_bytes: w.program().footprint_bytes() }
    }

    fn parked(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_owned();
        os.push(".quarantined");
        PathBuf::from(os)
    }

    #[test]
    fn path_entries_round_trip_beside_the_result_entries() {
        let dir = scratch("path-rt");
        let p = path_point();
        assert_eq!(get_path_in(&dir, "li", 4_000), None, "cold store must miss");
        put_path_in(&dir, "li", 4_000, &p);
        assert_eq!(get_path_in(&dir, "li", 4_000), Some(p));
        assert_eq!(get_path_in(&dir, "tex", 4_000), None);
        assert_eq!(get_path_in(&dir, "li", 5_000), None);
        let text = std::fs::read_to_string(path_entry_path(&dir, "li", 4_000)).unwrap();
        assert!(text.starts_with("specfetch-path/1\nbench=li instrs=4000\npath=instrs=4000 "));
        // The subdirectory keeps path entries out of `v1/*.sr` listings.
        let top: Vec<_> = std::fs::read_dir(dir.join("v1"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sr"))
            .collect();
        assert!(top.is_empty(), "path entries leaked into v1/: {top:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_line_round_trips_and_rejects_malformed_lines() {
        let p = path_point();
        let line = encode_path(&p);
        assert_eq!(decode_path(&line).unwrap(), p, "round trip diverged for {line:?}");
        let (head, last) = line.rsplit_once(' ').unwrap();
        for bad in [
            head.to_owned(),
            format!("{line} extra=1"),
            format!("{last} {head}"),
            line.replacen("br=", "br=x", 1),
            line.replacen("cond=", "cnd=", 1),
        ] {
            assert!(decode_path(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bad_path_entries_are_quarantined_and_miss() {
        let dir = scratch("path-bad");
        let p = path_point();
        let path = path_entry_path(&dir, "li", 4_000);
        let must_miss = |what: &str| {
            assert_eq!(get_path_in(&dir, "li", 4_000), None, "{what} entry must miss");
            assert!(parked(&path).exists(), "{what}: the bad file must be kept");
            assert!(!path.exists(), "{what}: the bad file must be moved out of the way");
            std::fs::remove_file(parked(&path)).unwrap();
        };

        put_path_in(&dir, "li", 4_000, &p);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        must_miss("truncated");

        put_path_in(&dir, "li", 4_000, &p);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.windows(3).position(|w| w == b"br=").unwrap() + 3;
        bytes[idx] = if bytes[idx] == b'9' { b'8' } else { bytes[idx] + 1 };
        std::fs::write(&path, &bytes).unwrap();
        must_miss("checksum-flipped");

        // Valid entries for another key, renamed onto this one.
        for (bench, instrs) in [("tex", 4_000), ("li", 4_001)] {
            put_path_in(&dir, bench, instrs, &p);
            std::fs::rename(path_entry_path(&dir, bench, instrs), &path).unwrap();
            must_miss(&format!("{bench}-{instrs}"));
        }

        // Self-heal: the recomputed entry lands and serves.
        put_path_in(&dir, "li", 4_000, &p);
        assert_eq!(get_path_in(&dir, "li", 4_000), Some(p));
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
