//! Enforcement of the workspace invariants against the real tree, plus
//! self-tests that seed one violation per rule class in synthetic trees
//! and assert the scanner catches exactly it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tidy::{
    blocking_confinement, check_all, error_hygiene, exit_confinement, layering, lock_order,
    net_confinement, oracle_capability, panic_audit, signal_confinement, spawn_confinement,
    wire_kind_symmetry, Violation, ALLOWLIST_FILE, LOCK_ORDER_FILE,
};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

fn committed_allowlist(root: &Path) -> String {
    fs::read_to_string(root.join(ALLOWLIST_FILE)).expect("committed allowlist is readable")
}

fn render(v: &[Violation]) -> String {
    v.iter().map(|x| format!("  {x}\n")).collect()
}

// ---------------------------------------------------------------------
// Enforcement on the real workspace
// ---------------------------------------------------------------------

#[test]
fn workspace_passes_every_tidy_rule() {
    let root = workspace_root();
    let allowlist = committed_allowlist(&root);
    let v = check_all(&root, &allowlist);
    assert!(v.is_empty(), "tidy violations:\n{}", render(&v));
}

#[test]
fn the_scanner_actually_saw_the_workspace() {
    // Guard against a silently wrong root: the rules must run over a
    // tree that contains the known library sources, or "no violations"
    // would be vacuous.
    let root = workspace_root();
    assert!(root.join("crates/core/src/engine/gate.rs").is_file());
    assert!(root.join("crates/experiments/src/runner.rs").is_file());
    assert!(root.join("src/lib.rs").is_file());
}

// ---------------------------------------------------------------------
// Self-tests on synthetic trees
// ---------------------------------------------------------------------

/// A unique per-test scratch tree under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("specfetch-tidy-{}-{tag}-{n}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn seed(root: &Path, rel: &str, content: &str) {
    let path = root.join(rel);
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("seed parent dir");
    }
    fs::write(&path, content).expect("seed file");
}

#[test]
fn seeded_unwrap_in_library_code_is_flagged_with_its_line() {
    let root = scratch("panic");
    seed(&root, "crates/cache/src/lib.rs", "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n");
    let v = panic_audit(&root, "");
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert_eq!(
        (v[0].rule, v[0].file.as_str(), v[0].line),
        ("panic-audit", "crates/cache/src/lib.rs", 2)
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn allowlisted_sites_pass_and_the_ratchet_only_shrinks() {
    let root = scratch("ratchet");
    seed(
        &root,
        "crates/trace/src/x.rs",
        "pub fn f(v: Option<u8>) -> u8 {\n    v.expect(\"m\")\n}\n",
    );
    // Exact count: clean.
    assert!(panic_audit(&root, "crates/trace/src/x.rs: 1").is_empty());
    // Understated count: the new site is a regression.
    let v = panic_audit(&root, "# none yet\n");
    assert_eq!(v.len(), 1);
    // Overstated count: the entry is stale and must ratchet down.
    let v = panic_audit(&root, "crates/trace/src/x.rs: 2");
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert!(v[0].detail.contains("stale"), "{}", v[0]);
    // Entry for a file with no sites at all: also stale.
    let v = panic_audit(&root, "crates/trace/src/x.rs: 1\ncrates/trace/src/gone.rs: 3");
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert!(v[0].detail.contains("stale"), "{}", v[0]);
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn unwrap_inside_cfg_test_modules_and_bins_is_exempt() {
    let root = scratch("exempt");
    seed(
        &root,
        "crates/cache/src/lib.rs",
        "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
         Some(1).unwrap();\n    }\n}\n",
    );
    seed(&root, "crates/experiments/src/bin/tool.rs", "fn main() {\n    Some(1).unwrap();\n}\n");
    seed(&root, "crates/cache/src/doc.rs", "// a comment saying .unwrap() is bad\npub fn g() {}\n");
    let v = panic_audit(&root, "");
    assert!(v.is_empty(), "{}", render(&v));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn a_file_behind_an_out_of_line_cfg_test_mod_is_test_code() {
    let body = "pub fn f() {\n    Some(1).unwrap();\n}\n";
    let root = scratch("out-of-line-test");
    seed(&root, "crates/cache/src/lib.rs", "pub fn g() {}\n\n#[cfg(test)]\nmod x;\n");
    seed(&root, "crates/cache/src/x.rs", body);
    seed(&root, "crates/cache/src/x/nested.rs", body);
    let v = panic_audit(&root, "");
    assert!(v.is_empty(), "{}", render(&v));
    fs::remove_dir_all(&root).expect("cleanup");

    let root = scratch("out-of-line-live");
    seed(&root, "crates/cache/src/lib.rs", "pub fn g() {}\n\nmod x;\n");
    seed(&root, "crates/cache/src/x.rs", body);
    let v = panic_audit(&root, "");
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert_eq!((v[0].file.as_str(), v[0].line), ("crates/cache/src/x.rs", 2));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn oracle_tokens_outside_the_gate_are_flagged_and_inside_are_not() {
    let root = scratch("oracle");
    let token = concat!("Oracle", "Gate");
    seed(&root, "crates/core/src/engine/gate.rs", &format!("pub struct {token};\n"));
    seed(&root, "crates/core/src/lib.rs", &format!("pub use engine::{token};\n"));
    assert!(oracle_capability(&root).is_empty());

    let probe = concat!("on_wrong", "_path");
    seed(
        &root,
        "crates/trace/src/peek.rs",
        &format!("pub fn sneak(g: &{token}) -> bool {{\n    g.{probe}()\n}}\n"),
    );
    let v = oracle_capability(&root);
    assert_eq!(v.len(), 2, "one per token occurrence:\n{}", render(&v));
    assert!(v
        .iter()
        .all(|x| x.rule == "oracle-capability" && x.file == "crates/trace/src/peek.rs"));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn layering_back_edges_are_flagged_in_manifests_and_sources() {
    let root = scratch("layers");
    // Manifest back-edge: isa must depend on nothing.
    seed(
        &root,
        "crates/isa/Cargo.toml",
        "[package]\nname = \"specfetch-isa\"\n\n[dependencies]\nspecfetch-core.workspace = true\n",
    );
    // Source back-edge: trace reaching into experiments.
    seed(&root, "crates/trace/Cargo.toml", "[package]\nname = \"specfetch-trace\"\n");
    seed(
        &root,
        "crates/trace/src/lib.rs",
        "use specfetch_experiments::RunOptions;\npub fn f(_: RunOptions) {}\n",
    );
    let v = layering(&root);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(v.iter().any(|x| x.file == "crates/isa/Cargo.toml" && x.detail.contains("core")));
    assert!(v
        .iter()
        .any(|x| x.file == "crates/trace/src/lib.rs" && x.detail.contains("experiments")));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn a_crate_missing_from_the_layer_table_is_flagged() {
    let root = scratch("unlisted");
    seed(&root, "crates/extra/Cargo.toml", "[package]\nname = \"specfetch-extra\"\n");
    seed(&root, "crates/cache/Cargo.toml", "[package]\nname = \"specfetch-cache\"\n");
    // A directory without a manifest is not a crate.
    seed(&root, "crates/notes/README.md", "scratch\n");
    let v = layering(&root);
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert_eq!(v[0].file, "crates/extra/Cargo.toml");
    assert!(v[0].detail.contains("`extra`"), "{}", render(&v));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn forward_edges_and_dev_dependencies_are_allowed() {
    let root = scratch("dag-ok");
    seed(
        &root,
        "crates/core/Cargo.toml",
        "[package]\nname = \"specfetch-core\"\n\n[dependencies]\nspecfetch-isa.workspace = true\n\
         specfetch-cache.workspace = true\n\n[dev-dependencies]\nspecfetch-synth.workspace = true\n",
    );
    seed(
        &root,
        "crates/core/src/lib.rs",
        "use specfetch_isa::Addr;\nuse specfetch_synth::Workload;\npub fn f(_: Addr, _: Workload) {}\n",
    );
    assert!(layering(&root).is_empty(), "{}", render(&layering(&root)));

    // But synth as a *runtime* dependency of core is a back-edge.
    seed(
        &root,
        "crates/core/Cargo.toml",
        "[package]\nname = \"specfetch-core\"\n\n[dependencies]\nspecfetch-synth.workspace = true\n",
    );
    let v = layering(&root);
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert!(v[0].detail.contains("synth"));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn string_error_apis_in_typed_crates_are_flagged() {
    let root = scratch("hygiene");
    seed(
        &root,
        "crates/core/src/api.rs",
        "pub fn parse(s: &str) -> Result<u8, String> {\n    s.parse().map_err(|_| \"no\".into())\n}\n",
    );
    // Multi-line signatures are accumulated to the opening brace.
    seed(
        &root,
        "crates/experiments/src/multi.rs",
        "pub fn long(\n    input: &str,\n) -> Result<Vec<u8>, String>\n{\n    Err(input.into())\n}\n",
    );
    // Exempt: a String *payload* (not error), a private fn, and bin/.
    seed(
        &root,
        "crates/core/src/fine.rs",
        "pub fn name() -> Result<String, u8> {\n    Ok(String::new())\n}\n\
         fn private() -> Result<u8, String> {\n    Ok(0)\n}\n",
    );
    seed(
        &root,
        "crates/experiments/src/bin/tool.rs",
        "fn parse() -> Result<u8, String> {\n    Ok(1)\n}\nfn main() {}\n",
    );
    let v = error_hygiene(&root);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(v.iter().any(|x| x.file == "crates/core/src/api.rs" && x.line == 1));
    assert!(v.iter().any(|x| x.file == "crates/experiments/src/multi.rs" && x.line == 1));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn process_termination_outside_bins_and_the_fault_module_is_flagged() {
    let root = scratch("exit");
    let exit = concat!("std::process::", "exit(2)");
    let abort = concat!("std::process::", "abort()");
    // Allowed: a bin entry point and the fault-injection module.
    seed(&root, "crates/experiments/src/bin/tool.rs", &format!("fn main() {{\n    {exit};\n}}\n"));
    seed(
        &root,
        "crates/experiments/src/fault.rs",
        &format!("pub(crate) fn abort_process() -> ! {{\n    {abort}\n}}\n"),
    );
    assert!(exit_confinement(&root).is_empty(), "{}", render(&exit_confinement(&root)));

    // Flagged: library code deciding to kill the process on its own.
    seed(
        &root,
        "crates/core/src/engine.rs",
        &format!("pub fn bail() {{\n    {exit};\n}}\npub fn die() {{\n    {abort}\n}}\n"),
    );
    let v = exit_confinement(&root);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(v
        .iter()
        .all(|x| x.rule == "exit-confinement" && x.file == "crates/core/src/engine.rs"));
    assert_eq!((v[0].line, v[1].line), (2, 5));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn signal_handlers_outside_bins_are_flagged() {
    let root = scratch("signals");
    let call = concat!("sig", "nal(2, handler as usize)");
    let action = concat!("libc::sig", "action(15, &act, std::ptr::null_mut())");
    // Allowed: a bin entry point installing the handlers.
    seed(
        &root,
        "crates/experiments/src/bin/tool.rs",
        &format!("fn main() {{\n    unsafe {{ {call} }};\n}}\n"),
    );
    assert!(signal_confinement(&root).is_empty(), "{}", render(&signal_confinement(&root)));

    // Flagged: library code declaring or installing handlers — even a
    // bare extern declaration of the C binding counts.
    seed(
        &root,
        "crates/experiments/src/supervise.rs",
        &format!(
            "extern \"C\" {{\n    fn {};\n}}\npub fn hook() {{\n    unsafe {{ {action} }};\n}}\n",
            concat!("sig", "nal(signum: i32, handler: usize) -> usize")
        ),
    );
    let v = signal_confinement(&root);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(
        v.iter()
            .all(|x| x.rule == "signal-confinement"
                && x.file == "crates/experiments/src/supervise.rs")
    );
    assert_eq!((v[0].line, v[1].line), (2, 5));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn sockets_outside_the_service_crate_are_flagged() {
    let root = scratch("net");
    let listener = concat!("std::net::Tcp", "Listener::bind(addr)");
    let stream = concat!("Tcp", "Stream::connect(addr)");
    // Allowed: the service crate's library tree and bin entry points.
    seed(
        &root,
        "crates/service/src/http.rs",
        &format!("pub fn serve(addr: &str) {{\n    let _ = {listener};\n}}\n"),
    );
    seed(
        &root,
        "crates/experiments/src/bin/tool.rs",
        &format!("fn main() {{\n    let _ = {stream};\n}}\n"),
    );
    assert!(net_confinement(&root).is_empty(), "{}", render(&net_confinement(&root)));

    // Flagged: a simulation layer opening connections of its own —
    // both path-qualified and imported forms.
    seed(
        &root,
        "crates/core/src/phone_home.rs",
        &format!(
            "pub fn upload(addr: &str) {{\n    let _ = {listener};\n}}\n\
             pub fn dial(addr: &str) {{\n    let _ = {stream};\n}}\n",
        ),
    );
    let v = net_confinement(&root);
    assert_eq!(v.len(), 3, "two tokens on line 2, one on line 5:\n{}", render(&v));
    assert!(v
        .iter()
        .all(|x| x.rule == "net-confinement" && x.file == "crates/core/src/phone_home.rs"));
    assert_eq!((v[0].line, v[1].line, v[2].line), (2, 2, 5));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn lock_order_contradictions_are_flagged_and_cycles_reported() {
    let root = scratch("locks");
    let order = "a: alpha().lock()\nb: beta().lock()\n";
    // Consistent nesting: a before b.
    seed(
        &root,
        "crates/core/src/fine.rs",
        "pub fn one() {\n    let _a = alpha().lock();\n    let _b = beta().lock();\n}\n",
    );
    assert!(lock_order(&root, order).is_empty(), "{}", render(&lock_order(&root, order)));

    // A second function takes them in the reverse order: the pairwise
    // check flags the later-ranked-first acquisition, and the observed
    // pairs now form a cycle.
    seed(
        &root,
        "crates/core/src/backwards.rs",
        "pub fn two() {\n    let _b = beta().lock();\n    let _a = alpha().lock();\n}\n",
    );
    let v = lock_order(&root, order);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(v.iter().all(|x| x.rule == "lock-order"));
    assert!(
        v.iter().any(|x| x.file == "crates/core/src/backwards.rs"
            && x.line == 3
            && x.detail.contains("acquired after")),
        "{}",
        render(&v)
    );
    assert!(v.iter().any(|x| x.detail.contains("a -> b -> a")), "{}", render(&v));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn lock_scopes_reset_at_function_boundaries_and_bad_order_lines_surface() {
    let root = scratch("locks-span");
    let order = "a: alpha().lock()\nb: beta().lock()\n";
    // b in one function, a in the next: separate scopes, no ordering.
    seed(
        &root,
        "crates/core/src/split.rs",
        "pub fn first() {\n    let _b = beta().lock();\n}\n\
         pub fn second() {\n    let _a = alpha().lock();\n}\n",
    );
    assert!(lock_order(&root, order).is_empty(), "{}", render(&lock_order(&root, order)));

    let v = lock_order(&root, "a alpha().lock()\n");
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert!(v[0].detail.contains("bad lock-order line"), "{}", v[0]);
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn the_committed_lock_order_actually_sees_the_workspace_locks() {
    // Reversing the committed class ranks must produce violations on
    // the real tree (the controller holds its state mutex while
    // joining its drivers) — otherwise a clean run would be vacuous.
    let root = workspace_root();
    let committed =
        fs::read_to_string(root.join(LOCK_ORDER_FILE)).expect("committed lock order is readable");
    assert!(lock_order(&root, &committed).is_empty());
    let reversed: Vec<&str> =
        committed.lines().filter(|l| !l.trim_start().starts_with('#')).rev().collect();
    let v = lock_order(&root, &reversed.join("\n"));
    assert!(!v.is_empty(), "a reversed order must contradict the observed nesting");
}

#[test]
fn blocking_calls_outside_the_supervised_modules_are_flagged() {
    let root = scratch("blocking");
    let body = "pub fn wait(rx: &Receiver<u8>, r: &mut impl BufRead, s: &mut String) {\n    \
                let _ = rx.recv();\n    \
                std::thread::sleep(Duration::from_secs(1));\n    \
                let _ = r.read_line(s);\n}\n";
    // Allowed: the worker module owns supervision around its waits.
    seed(&root, "crates/experiments/src/worker.rs", body);
    assert!(blocking_confinement(&root).is_empty(), "{}", render(&blocking_confinement(&root)));

    // Flagged: the same calls loose in a simulation crate.
    seed(&root, "crates/core/src/stall.rs", body);
    let v = blocking_confinement(&root);
    assert_eq!(v.len(), 3, "{}", render(&v));
    assert!(v.iter().all(|x| x.rule == "blocking-confinement" && x.file.contains("stall")));
    assert_eq!((v[0].line, v[1].line, v[2].line), (2, 3, 4));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn wire_kind_vocabulary_must_stay_symmetric_per_file() {
    let root = scratch("wire");
    // Symmetric: every encoded kind has a decode arm (one same-line,
    // one in a match block) and vice versa.
    seed(
        &root,
        "crates/experiments/src/pipe.rs",
        "pub fn enc() -> String {\n    \
             format!(\"{{\\\"kind\\\":\\\"hello\\\"}}\")\n}\n\
         pub fn enc2() -> String {\n    \
             \"{\\\"kind\\\":\\\"done\\\"}\".to_owned()\n}\n\
         pub fn dec(line: &str) -> bool {\n    \
             field(line, \"kind\").as_deref() == Some(\"hello\")\n}\n\
         pub fn dec2(line: &str) -> u8 {\n    \
             match field(line, \"kind\").as_deref() {\n        \
                 Some(\"done\") => 1,\n        _ => 0,\n    }\n}\n",
    );
    assert!(wire_kind_symmetry(&root).is_empty(), "{}", render(&wire_kind_symmetry(&root)));

    // Asymmetric: `ping` is emitted but never parsed, `pong` parsed
    // but never emitted.
    seed(
        &root,
        "crates/experiments/src/drift.rs",
        "pub fn enc() -> String {\n    \
             \"{\\\"kind\\\":\\\"ping\\\"}\".to_owned()\n}\n\
         pub fn dec(line: &str) -> u8 {\n    \
             match field(line, \"kind\").as_deref() {\n        \
                 Some(\"pong\") => 1,\n        _ => 0,\n    }\n}\n",
    );
    let v = wire_kind_symmetry(&root);
    assert_eq!(v.len(), 2, "{}", render(&v));
    assert!(v.iter().all(|x| x.rule == "wire-kind" && x.file.contains("drift")));
    assert!(v.iter().any(|x| x.detail.contains("\"ping\" is encoded but never decoded")));
    assert!(v.iter().any(|x| x.detail.contains("\"pong\" is decoded but never encoded")));
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn detached_spawns_outside_the_pools_are_flagged() {
    let root = scratch("spawn");
    let body = "pub fn bg(f: impl FnOnce() + Send + 'static) {\n    std::thread::spawn(f);\n}\n";
    // Allowed: the HTTP layer's connection handlers.
    seed(&root, "crates/service/src/http.rs", body);
    // Scoped spawns are structurally joined and exempt everywhere.
    seed(
        &root,
        "crates/core/src/scoped.rs",
        "pub fn fan(xs: &[u8]) {\n    std::thread::scope(|s| {\n        \
         for _ in xs {\n            s.spawn(|| {});\n        }\n    });\n}\n",
    );
    assert!(spawn_confinement(&root).is_empty(), "{}", render(&spawn_confinement(&root)));

    seed(&root, "crates/synth/src/bg.rs", body);
    let v = spawn_confinement(&root);
    assert_eq!(v.len(), 1, "{}", render(&v));
    assert_eq!(
        (v[0].rule, v[0].file.as_str(), v[0].line),
        ("spawn-confinement", "crates/synth/src/bg.rs", 2)
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn check_all_aggregates_every_rule_class() {
    let root = scratch("all");
    seed(&root, "crates/cache/src/lib.rs", "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n");
    seed(
        &root,
        "crates/isa/Cargo.toml",
        "[package]\nname = \"specfetch-isa\"\n\n[dependencies]\nspecfetch-trace.workspace = true\n",
    );
    seed(
        &root,
        "crates/core/src/api.rs",
        &format!(
            "pub fn bad(g: &{}) -> Result<u8, String> {{\n    Err(String::new())\n}}\n",
            concat!("Oracle", "Gate")
        ),
    );
    seed(
        &root,
        "crates/synth/src/quit.rs",
        &format!("pub fn quit() {{\n    {}\n}}\n", concat!("std::process::", "abort()")),
    );
    seed(
        &root,
        "crates/trace/src/hooks.rs",
        &format!("pub fn hook() {{\n    unsafe {{ {} }};\n}}\n", concat!("sig", "nal(2, 0)")),
    );
    seed(
        &root,
        "crates/bpred/src/beacon.rs",
        &format!(
            "pub fn beacon(addr: &str) {{\n    let _ = {};\n}}\n",
            concat!("std::net::Udp", "Socket::bind(addr)")
        ),
    );
    seed(&root, LOCK_ORDER_FILE, "a: alpha().lock()\nb: beta().lock()\n");
    seed(
        &root,
        "crates/cache/src/order.rs",
        "pub fn two() {\n    let _b = beta().lock();\n    let _a = alpha().lock();\n}\n",
    );
    seed(
        &root,
        "crates/cache/src/stall.rs",
        "pub fn wait(rx: &Receiver<u8>) -> u8 {\n    rx.recv().unwrap_or(0)\n}\n",
    );
    seed(
        &root,
        "crates/bpred/src/drift.rs",
        "pub fn enc() -> String {\n    \"{\\\"kind\\\":\\\"ping\\\"}\".to_owned()\n}\n",
    );
    seed(
        &root,
        "crates/isa/src/bg.rs",
        "pub fn bg(f: impl FnOnce() + Send + 'static) {\n    std::thread::spawn(f);\n}\n",
    );
    let v = check_all(&root, "");
    let rules: Vec<&str> = v.iter().map(|x| x.rule).collect();
    for rule in [
        "panic-audit",
        "oracle-capability",
        "layering",
        "error-hygiene",
        "exit-confinement",
        "signal-confinement",
        "net-confinement",
        "lock-order",
        "blocking-confinement",
        "wire-kind",
        "spawn-confinement",
    ] {
        assert!(rules.contains(&rule), "missing {rule} in: {}", render(&v));
    }
    fs::remove_dir_all(&root).expect("cleanup");
}
