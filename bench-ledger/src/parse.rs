//! Readers for what the measured program leaves behind: `/proc` status
//! files, its `[result-store]` diagnostics line, and report text.

/// `VmHWM` (peak resident set, KiB) from a `/proc/<pid>/status` text.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix("VmHWM:")?.trim();
        rest.strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The parent pid from a `/proc/<pid>/stat` text. The command name in
/// parentheses may itself contain spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn stat_ppid(stat: &str) -> Option<u32> {
    let after = &stat[stat.rfind(')')? + 1..];
    after.split_whitespace().nth(1)?.parse().ok()
}

/// `(hits, stores)` from the `[result-store] hits=H stores=S` line
/// `specfetch-repro` prints to stderr when a result store is configured.
pub fn result_store_counts(stderr: &str) -> Option<(u64, u64)> {
    stderr.lines().rev().find_map(|l| {
        let rest = l.trim().strip_prefix("[result-store]")?;
        let mut hits = None;
        let mut stores = None;
        for term in rest.split_whitespace() {
            match term.split_once('=') {
                Some(("hits", v)) => hits = v.parse().ok(),
                Some(("stores", v)) => stores = v.parse().ok(),
                _ => {}
            }
        }
        Some((hits?, stores?))
    })
}

/// The prerequisite paths of a Cargo dep-info (`<binary>.d`) file: every
/// source the binary was built from. Spaces inside paths are escaped as
/// `\ `.
pub fn dep_info_paths(text: &str) -> Vec<String> {
    let Some(first) = text.lines().next() else { return Vec::new() };
    // The target ends at the first ": " that is not inside an escape.
    let Some(colon) = first.find(": ") else { return Vec::new() };
    let deps = first[colon + 2..].replace("\\ ", "\u{0}");
    deps.split_whitespace().map(|p| p.replace('\u{0}', " ")).collect()
}

/// The first line where `actual` departs from `expected`, as
/// `(1-based line number, expected line, actual line)`; a missing line
/// reads as `<end of output>`. `None` when the texts are equal.
pub fn first_diff(expected: &str, actual: &str) -> Option<(usize, String, String)> {
    if expected == actual {
        return None;
    }
    let mut e = expected.split('\n');
    let mut a = actual.split('\n');
    let mut n = 0;
    loop {
        n += 1;
        match (e.next(), a.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => {
                let show = |l: Option<&str>| l.unwrap_or("<end of output>").to_owned();
                return Some((n, show(x), show(y)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status =
            "Name:\tspecfetch-repro\nVmPeak:\t  300000 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(123_456));
        assert_eq!(vm_hwm_kib("Name:\tzombie\nState:\tZ (zombie)\n"), None);
    }

    #[test]
    fn reads_the_parent_pid_past_odd_command_names() {
        assert_eq!(stat_ppid("4242 (specfetch-repro) S 4100 4242 4100 0"), Some(4100));
        assert_eq!(stat_ppid("77 (a) b) (c) R 12 77 12"), Some(12));
        assert_eq!(stat_ppid("garbage"), None);
    }

    #[test]
    fn reads_the_result_store_line() {
        let err = "[journal] d/journal/run-1.wal\n[table7 done in 0.0s]\n\n\
                   [result-store] hits=352 stores=0\n";
        assert_eq!(result_store_counts(err), Some((352, 0)));
        assert_eq!(result_store_counts("[result-store] hits=0 stores=352"), Some((0, 352)));
        assert_eq!(result_store_counts("no store configured\n"), None);
        assert_eq!(result_store_counts("[result-store] hits=x stores=1"), None);
    }

    #[test]
    fn reads_dep_info_prerequisites() {
        let d = "/t/release/specfetch-repro: /r/crates/core/src/lib.rs /r/my\\ dir/a.rs\n\n\
                 /r/crates/core/src/lib.rs:\n";
        assert_eq!(dep_info_paths(d), ["/r/crates/core/src/lib.rs", "/r/my dir/a.rs"]);
        assert!(dep_info_paths("").is_empty());
    }

    #[test]
    fn first_diff_names_the_line() {
        assert_eq!(first_diff("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_diff("a\nb\nc", "a\nB\nc"), Some((2, "b".into(), "B".into())));
        assert_eq!(first_diff("a\nb", "a"), Some((2, "b".into(), "<end of output>".into())));
    }
}
