//! End-to-end tests of the `specfetch-repro` binary: argument
//! validation, exit codes, fault injection, and the on-disk result store.

use std::path::PathBuf;
use std::process::{Command, Output};

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
        std::env::temp_dir().join(format!("specfetch-repro-cli-{}-{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

#[test]
fn unknown_experiment_is_rejected_up_front_with_the_valid_ids() {
    let out = repro(&["--experiment", "table99"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = stderr(&out);
    assert!(err.contains("unknown experiment \"table99\""), "stderr: {err}");
    assert!(err.contains("valid ids:"), "stderr: {err}");
    for id in ["table2", "table7", "figure4", "ablation-bus"] {
        assert!(err.contains(id), "stderr must list {id}: {err}");
    }
    assert!(stdout(&out).is_empty(), "nothing may run before validation");
}

#[test]
fn unknown_argument_and_bad_inject_grammar_exit_2() {
    let out = repro(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown argument"));

    for bad in
        ["point=table3", "point=table3:x,panic", "point=table3:1,explode", "chaos=2000@1,err"]
    {
        let out = repro(&["--experiment", "table3", "--inject", bad]);
        assert_eq!(out.status.code(), Some(2), "--inject {bad:?} must be a usage error");
        assert!(stdout(&out).is_empty(), "--inject {bad:?} must not run anything");
    }
}

#[test]
fn injected_panic_fails_one_cell_and_the_exit_code_while_the_rest_renders() {
    // table3 point 2 is doduc's 32K run: exactly one derived column.
    let out =
        repro(&["--experiment", "table3", "--instrs", "2000", "--inject", "point=table3:2,panic"]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1, at the end");
    let text = stdout(&out);
    assert_eq!(text.matches("FAILED(injected panic)").count(), 1, "exactly one cell fails: {text}");
    assert!(text.contains("Average"), "the rest of the table still renders: {text}");
    assert!(text.contains("doduc") && text.contains("porky"), "all rows render: {text}");
    assert!(stderr(&out).contains("1 failed cell(s)"), "stderr: {}", stderr(&out));
}

#[test]
fn injected_error_is_typed_and_isolated() {
    let out =
        repro(&["--experiment", "table3", "--instrs", "2000", "--inject", "point=table3:0,err"]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    // Point 0 is doduc's depth-4 baseline, which feeds four columns.
    assert_eq!(text.matches("FAILED(injected err)").count(), 4, "{text}");
    assert!(text.contains("porky"), "other rows still render");
}

#[test]
fn injected_slowdown_does_not_fail_anything() {
    let out =
        repro(&["--experiment", "table2", "--instrs", "2000", "--inject", "point=table2:0,slow"]);
    assert_eq!(out.status.code(), Some(0), "slow is not a failure: {}", stderr(&out));
    assert!(!stdout(&out).contains("FAILED"));
}

#[test]
fn injection_into_one_experiment_leaves_the_others_alone() {
    let out = repro(&[
        "--experiment",
        "extras",
        "--instrs",
        "1000",
        "--inject",
        "point=ablation-assoc:1,panic",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert_eq!(text.matches("FAILED(injected panic)").count(), 3, "one assoc row = 3 cells");
    for id in ["ablation-prefetch", "ablation-bpred", "ablation-penalty", "ablation-bus"] {
        assert!(text.contains(&format!("== {id}")), "{id} must still render");
    }
}

#[test]
fn sweep_runs_a_user_defined_grid() {
    let out =
        repro(&["--sweep", "policy=Res,Pess depth=1,4 bench=li metric=ispi", "--instrs", "2000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    for label in ["Res/1", "Res/4", "Pess/1", "Pess/4"] {
        assert!(text.contains(label), "column {label} must render: {text}");
    }
    assert!(text.contains("li"), "{text}");
}

#[test]
fn sweep_typos_exit_2_with_a_hint_before_anything_runs() {
    let out = repro(&["--sweep", "polcy=Res"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(stderr(&out).contains("did you mean \"policy\"?"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may run before validation");

    let out = repro(&["--sweep", "policy=Rez"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("did you mean \"Res\"?"), "{}", stderr(&out));
}

#[test]
fn sweep_and_experiment_are_mutually_exclusive() {
    let out = repro(&["--sweep", "depth=1", "--experiment", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("mutually exclusive"), "{}", stderr(&out));
}

#[test]
fn sweep_cells_are_fault_isolated() {
    let out = repro(&[
        "--sweep",
        "depth=1,2 bench=li,gcc",
        "--instrs",
        "2000",
        "--inject",
        "point=sweep:1,panic",
    ]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1");
    let text = stdout(&out);
    assert_eq!(text.matches("FAILED(injected panic)").count(), 1, "{text}");
    assert!(text.contains("gcc"), "other rows still render: {text}");
}

#[test]
fn injected_panic_is_isolated_at_the_lockstep_window() {
    // Every grid group runs as one config-lockstep batch: one panicking
    // point costs one FAILED cell while its sibling lanes, and the other
    // benchmark's batch, complete and render.
    let out = repro(&[
        "--sweep",
        "policy=Res,Dyn bench=li,gcc",
        "--instrs",
        "2000",
        "--inject",
        "point=sweep:2,panic",
    ]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1 under lockstep");
    let text = stdout(&out);
    assert_eq!(text.matches("FAILED(injected panic)").count(), 1, "exactly one cell: {text}");
    for bench in ["li", "gcc"] {
        let row = text.lines().find(|l| l.starts_with(bench)).expect("both rows render");
        let rendered = row.split_whitespace().skip(1).filter(|c| c.parse::<f64>().is_ok());
        let failed = usize::from(row.contains("FAILED"));
        assert_eq!(rendered.count() + failed, 2, "every other cell renders: {row}");
    }
}

#[test]
fn removed_replay_toggles_are_unknown_arguments() {
    for flag in [
        &["--no-trace-cache"][..],
        &["--no-predict-cache"][..],
        &["--no-lockstep"][..],
        &["--no-result-store"][..],
        &["--overlay-min", "0"][..],
        &["--trace-dir", "traces"][..],
    ] {
        let out = repro(&[&["--experiment", "table2", "--instrs", "2000"][..], flag].concat());
        assert_eq!(out.status.code(), Some(2), "{flag:?} must be a usage error");
        assert!(stderr(&out).contains("unknown argument"), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{flag:?} must not run anything");
    }
}

#[test]
fn the_full_report_matches_the_small_window_golden() {
    // Every experiment at 2000 instructions, byte for byte: the lockstep
    // path at a small window, and (in debug builds) the engine's GHR
    // cross-check over all of it.
    let out = repro(&["--experiment", "all", "--instrs", "2000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let (got, want) = (stdout(&out), include_str!("golden/all_2000.txt"));
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    assert!(got == want, "report drifted from the golden at line {first_diff:?}");
}

#[test]
fn the_ablations_match_their_golden() {
    // The ablations are the only report bytes that run target
    // prefetching, the stream buffer and prefetching on a pipelined bus.
    let out = repro(&["--experiment", "extras", "--instrs", "20000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let (got, want) = (stdout(&out), include_str!("golden/extras_20000.txt"));
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    assert!(got == want, "ablations drifted from the golden at line {first_diff:?}");
}

#[test]
fn analyze_verifies_every_benchmark_and_matches_the_golden_table() {
    let out = repro(&["--analyze"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let golden = include_str!("golden/analyze.txt");
    assert_eq!(text.trim_end(), golden.trim_end(), "analyze table drifted from the golden");
    assert!(!text.contains("FAILED"), "{text}");
    assert!(stderr(&out).is_empty(), "clean analysis must not write to stderr");
}

#[test]
fn analyze_single_benchmark_prints_one_row() {
    let out = repro(&["--analyze", "--benchmark", "li"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("li"), "{text}");
    assert!(!text.contains("gcc"), "only the requested benchmark may appear: {text}");
}

#[test]
fn analyze_corrupt_target_exits_1_with_typed_diagnostics() {
    let out = repro(&["--analyze", "--corrupt-target", "li", "--benchmark", "li"]);
    assert_eq!(out.status.code(), Some(1), "a failing image must exit 1");
    let text = stdout(&out);
    assert!(text.contains("FAILED(transfer at"), "verdict carries the diagnostic: {text}");
    let err = stderr(&out);
    assert!(err.contains("error: li:"), "per-issue diagnostics on stderr: {err}");
    assert!(err.contains("failed static analysis"), "{err}");
}

#[test]
fn analyze_usage_errors_exit_2_before_anything_runs() {
    let out = repro(&["--analyze", "--benchmark", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown benchmark"), "{}", stderr(&out));
    assert!(stderr(&out).contains("li"), "valid names are listed: {}", stderr(&out));

    let out = repro(&["--analyze", "--experiment", "table3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("mutually exclusive"), "{}", stderr(&out));

    let out = repro(&["--benchmark", "li"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("only applies to --analyze"), "{}", stderr(&out));

    let out = repro(&["--analyze", "--corrupt-target", "nonesuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown benchmark"), "{}", stderr(&out));
}

#[test]
fn corrupted_benchmark_renders_a_failed_analysis_cell_in_a_sweep() {
    let base = [
        "--sweep",
        "policy=Res bench=li,gcc metric=ispi",
        "--instrs",
        "2000",
        "--corrupt-target",
        "li",
    ];
    // Sharded too: the parent's planner is the only gate, since a
    // `--worker` child never holds the hook.
    for extra in [&[][..], &["--workers", "1"]] {
        let out = repro(&[&base[..], extra].concat());
        assert_eq!(out.status.code(), Some(1), "an analysis failure is a failed cell {extra:?}");
        let text = stdout(&out);
        assert!(text.contains("FAILED(analysis:"), "li's cell fails preflight: {text}");
        assert!(text.contains("gcc"), "gcc still simulates: {text}");
        assert!(!text.contains("gcc	FAILED"), "gcc must not fail: {text}");
    }
}

#[test]
fn a_preflight_failure_is_not_stored() {
    // The store key cannot see the hook: a negative entry written under
    // it would fail li's clean image in every later run.
    let dir = scratch("preflight-unstored");
    let base =
        ["--sweep", "policy=Res bench=li,gcc metric=ispi", "--instrs", "2000", "--result-dir"];
    let args = [&base[..], &[dir.to_str().unwrap()]].concat();
    let hooked = repro(&[&args[..], &["--corrupt-target", "li"]].concat());
    assert_eq!(hooked.status.code(), Some(1), "{}", stderr(&hooked));
    assert!(stdout(&hooked).contains("li       FAILED(analysis:"), "{}", stdout(&hooked));
    assert_eq!(store_stats(&stderr(&hooked)), (0, 1), "only gcc's result is stored");

    let clean = repro(&args);
    assert_eq!(clean.status.code(), Some(0), "{}", stderr(&clean));
    assert!(!stdout(&clean).contains("FAILED"), "li simulates: {}", stdout(&clean));
    assert_eq!(store_stats(&stderr(&clean)), (1, 1), "gcc hits, li simulates");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A `--corrupt-target` verdict belongs to the run that set the hook:
/// the hook is part of the journal's run key, so a `--resume` without it
/// simulates the clean image, while one that keeps it replays the failure.
#[test]
fn a_resume_without_the_hook_does_not_replay_its_verdict() {
    for (tag, extra) in [("in-process", &[][..]), ("workers", &["--workers", "2"][..])] {
        let dir = scratch(&format!("hook-resume-{tag}"));
        let sweep = ["--sweep", "policy=Res bench=li,gcc metric=ispi", "--instrs", "2000"];
        let args = [&sweep[..], &["--result-dir", dir.to_str().unwrap()], extra].concat();
        let hook = ["--corrupt-target", "li"];
        let resume = ["--resume"];

        let hooked = repro(&[&args[..], &hook].concat());
        assert_eq!(hooked.status.code(), Some(1), "{tag}: {}", stderr(&hooked));
        assert!(stdout(&hooked).contains("li       FAILED(analysis:"), "{}", stdout(&hooked));

        let kept = repro(&[&args[..], &hook, &resume].concat());
        assert_eq!(kept.status.code(), Some(1), "{tag}: {}", stderr(&kept));
        assert!(stdout(&kept).contains("li       FAILED(analysis:"), "{}", stdout(&kept));

        let resumed = repro(&[&args[..], &resume].concat());
        assert_eq!(resumed.status.code(), Some(0), "{tag}: {}", stderr(&resumed));
        assert!(stdout(&resumed).contains("li       1.514"), "{}", stdout(&resumed));
        assert_eq!(store_stats(&stderr(&resumed)), (1, 1), "{tag}: gcc hits, li simulates");

        let plain = repro(&args);
        assert_eq!(plain.status.code(), Some(0), "{tag}: {}", stderr(&plain));
        assert_eq!(stdout(&plain), stdout(&resumed), "{tag}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_warm_replay_serves_a_corrupt_targets_hits() {
    // Preflight gates simulation, not lookup: a stored result came from
    // the real image, and the hook corrupts only the analysis copy.
    let dir = scratch("warm-corrupt");
    let args = ["--experiment", "all", "--instrs", "2000", "--result-dir", dir.to_str().unwrap()];
    let cold = repro(&args);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    let (_, stores) = store_stats(&stderr(&cold));
    assert!(stores > 0, "a cold run must populate the store");

    let warm = repro(&[&args[..], &["--corrupt-target", "li"]].concat());
    assert_eq!(warm.status.code(), Some(0), "{}", stderr(&warm));
    let (got, want) = (stdout(&warm), include_str!("golden/all_2000.txt"));
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    assert!(got == want, "warm report drifted from the golden at line {first_diff:?}");
    assert_eq!(store_stats(&stderr(&warm)), (stores, 0), "every point replays as a hit");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Parses the `[result-store] hits=H stores=S` stderr line.
fn store_stats(err: &str) -> (u64, u64) {
    let line = err
        .lines()
        .find(|l| l.starts_with("[result-store]"))
        .unwrap_or_else(|| panic!("no [result-store] line in stderr:\n{err}"));
    let field = |key: &str| {
        let tail = line.split(&format!("{key}=")).nth(1).unwrap();
        tail.split_whitespace().next().unwrap().parse::<u64>().unwrap()
    };
    (field("hits"), field("stores"))
}

/// The store's current format directory, `<dir>/v<FORMAT_VERSION>`.
fn format_dir(dir: &std::path::Path) -> PathBuf {
    dir.join(format!("v{}", specfetch_experiments::result_store::FORMAT_VERSION))
}

/// Lists the store's entry files (`*.sr` under its format directory).
fn store_entries(dir: &std::path::Path) -> Vec<PathBuf> {
    std::fs::read_dir(format_dir(dir))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "sr"))
        .collect()
}

#[test]
fn worker_stream_and_store_modes_render_byte_identical_reports() {
    let dir = scratch("modes");
    let dir_s = dir.to_str().unwrap();
    let base = ["--experiment", "table4", "--instrs", "2000"];
    let default = repro(&base);
    assert_eq!(default.status.code(), Some(0), "{}", stderr(&default));
    let golden = stdout(&default);

    let workers = repro(&[&base[..], &["--workers", "2"]].concat());
    assert_eq!(workers.status.code(), Some(0), "{}", stderr(&workers));
    assert_eq!(stdout(&workers), golden, "--workers 2 must not change the report");

    let stream = repro(&[&base[..], &["--stream"]].concat());
    assert_eq!(stream.status.code(), Some(0), "{}", stderr(&stream));
    assert_eq!(stdout(&stream), golden, "--stream must not change the report");
    assert!(stderr(&stream).contains("[row] "), "rows stream to stderr: {}", stderr(&stream));

    let cold = repro(&[&base[..], &["--result-dir", dir_s]].concat());
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    assert_eq!(stdout(&cold), golden, "a cold store must not change the report");
    let (hits, stores) = store_stats(&stderr(&cold));
    assert_eq!(hits, 0, "nothing to hit on a cold store");
    assert!(stores > 0, "a cold run must populate the store");

    let warm = repro(&[&base[..], &["--result-dir", dir_s]].concat());
    assert_eq!(stdout(&warm), golden, "a warm store must not change the report");
    let (hits, re_stores) = store_stats(&stderr(&warm));
    assert_eq!(hits, stores, "every stored point replays as a hit");
    assert_eq!(re_stores, 0, "a warm run recomputes nothing");

    // Sharded: the children only compute, and the parent persists every
    // cell it settles, so its counters see every write.
    let sharded_dir = scratch("modes-sharded");
    let sharded =
        [&base[..], &["--workers", "2", "--result-dir", sharded_dir.to_str().unwrap()]].concat();
    let cold = repro(&sharded);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    assert_eq!(stdout(&cold), golden, "a cold sharded store must not change the report");
    let on_disk = store_entries(&sharded_dir).len() as u64;
    assert!(on_disk > 0, "a cold sharded run must populate the store");
    assert_eq!(store_stats(&stderr(&cold)), (0, on_disk), "stores= counts every entry written");

    let warm = repro(&sharded);
    assert_eq!(stdout(&warm), golden, "a warm sharded store must not change the report");
    assert_eq!(store_stats(&stderr(&warm)), (on_disk, 0), "every entry replays as a hit");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&sharded_dir).unwrap();
}

#[test]
fn table2_replays_its_rows_from_path_entries() {
    let dir = scratch("path-store");
    let args =
        ["--experiment", "table2", "--instrs", "2000", "--result-dir", dir.to_str().unwrap()];
    let cold = repro(&args);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    let path_line = |out: &Output| {
        stderr(out).lines().filter(|l| l.starts_with("[path-store]")).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(path_line(&cold), "[path-store] hits=0 stores=13");
    assert!(stderr(&cold).contains("[result-store] hits=0 stores=0"), "{}", stderr(&cold));
    assert!(store_entries(&dir).is_empty(), "path entries stay out of the top-level *.sr");

    let warm = repro(&args);
    assert_eq!(warm.status.code(), Some(0), "{}", stderr(&warm));
    assert_eq!(stdout(&warm), stdout(&cold), "a warm Table 2 must render the same bytes");
    assert_eq!(path_line(&warm), "[path-store] hits=13 stores=0");

    // Fault guards run before the store lookup, so an injected error
    // still fails its row on a warm store.
    let injected = repro(&[&args[..], &["--inject", "point=table2:0,err"]].concat());
    assert_eq!(injected.status.code(), Some(1), "{}", stderr(&injected));
    let text = stdout(&injected);
    let failed: Vec<&str> = text.lines().filter(|l| l.contains("FAILED(injected err)")).collect();
    assert_eq!(failed.len(), 1, "exactly one row fails: {text}");
    assert!(failed[0].starts_with("doduc"), "point 0 is doduc's row: {text}");
    assert!(text.contains("porky"), "the other rows still render: {text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_interrupted_run_resumes_from_the_store_without_recomputing() {
    let dir = scratch("resume");
    let dir_s = dir.to_str().unwrap();
    let base = ["--experiment", "table3", "--instrs", "2000", "--result-dir", dir_s];

    // Kill the run mid-sweep: points before the abort land in the store,
    // then the process dies without any cleanup pass.
    let killed = repro(&[&base[..], &["--inject", "point=table3:2,abort"]].concat());
    assert!(!killed.status.success(), "the injected abort must kill the run");
    let stored = store_entries(&dir).len() as u64;
    assert!(stored > 0, "completed points must persist before the crash");

    // The resumed run replays every stored point and computes only the rest.
    let resumed = repro(&base);
    assert_eq!(resumed.status.code(), Some(0), "{}", stderr(&resumed));
    let (hits, stores) = store_stats(&stderr(&resumed));
    assert_eq!(hits, stored, "every surviving entry must resume as a hit");
    assert!(stores > 0, "the interrupted remainder must be computed and stored");

    let baseline = repro(&["--experiment", "table3", "--instrs", "2000"]);
    assert_eq!(stdout(&resumed), stdout(&baseline), "resume must not change the report");

    // Fully warm now: a third run recomputes nothing at all.
    let warm = repro(&base);
    let (warm_hits, warm_stores) = store_stats(&stderr(&warm));
    assert_eq!(warm_stores, 0, "no completed point may rerun");
    assert_eq!(warm_hits, hits + stores);
    assert_eq!(stdout(&warm), stdout(&baseline));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_crashing_worker_fails_its_cell_while_siblings_complete() {
    let out = repro(&[
        "--experiment",
        "table4",
        "--instrs",
        "2000",
        "--workers",
        "2",
        "--inject",
        "point=table4:2,abort",
    ]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1: {}", stderr(&out));
    let text = stdout(&out);
    // Point 2 is su2cor's single run, which feeds all five derived columns.
    let failed_rows = text.lines().filter(|l| l.contains("FAILED(worker exited")).count();
    assert_eq!(failed_rows, 1, "exactly one row fails: {text}");
    assert_eq!(text.matches("FAILED(worker exited").count(), 5, "one point = 5 cells: {text}");
    assert!(text.contains("li") && text.contains("gcc"), "sibling rows still render: {text}");
    assert!(stderr(&out).contains("5 failed cell(s)"), "stderr: {}", stderr(&out));
}

#[test]
fn two_processes_racing_on_one_store_agree_and_leave_it_valid() {
    let dir = scratch("race");
    let dir_s = dir.to_str().unwrap();
    let args = ["--experiment", "table4", "--instrs", "1500", "--result-dir", dir_s];
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| repro(&args));
        let b = s.spawn(|| repro(&args));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.status.code(), Some(0), "{}", stderr(&a));
    assert_eq!(b.status.code(), Some(0), "{}", stderr(&b));
    assert_eq!(stdout(&a), stdout(&b), "racing processes must agree");

    // Atomic publication: no torn temp files, nothing quarantined.
    let leftovers: Vec<_> = std::fs::read_dir(format_dir(&dir))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| !n.ends_with(".sr"))
        .collect();
    assert!(leftovers.is_empty(), "only finished entries may remain: {leftovers:?}");

    // Whatever interleaving happened, the store is fully usable afterwards.
    let warm = repro(&args);
    let (hits, stores) = store_stats(&stderr(&warm));
    assert_eq!(stores, 0, "a warm run after the race recomputes nothing");
    assert!(hits > 0);
    assert_eq!(stdout(&warm), stdout(&a));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_store_entry_is_quarantined_and_recomputed() {
    let dir = scratch("store-heal");
    let dir_s = dir.to_str().unwrap();
    let args = ["--experiment", "table4", "--instrs", "1500", "--result-dir", dir_s];
    let cold = repro(&args);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    let entries = store_entries(&dir);
    assert!(!entries.is_empty());

    // Truncate one entry mid-body; the next run must not trust it.
    let victim = &entries[0];
    let bytes = std::fs::read(victim).unwrap();
    std::fs::write(victim, &bytes[..bytes.len() / 2]).unwrap();

    let healed = repro(&args);
    assert_eq!(healed.status.code(), Some(0), "{}", stderr(&healed));
    assert_eq!(stdout(&healed), stdout(&cold), "healing must not change the report");
    let err = stderr(&healed);
    assert!(err.contains("failed verification"), "corruption is reported: {err}");
    assert!(!err.contains("cached trace"), "the warning names the store entry: {err}");
    let mut parked = victim.clone().into_os_string();
    parked.push(".quarantined");
    assert!(PathBuf::from(parked).exists(), "the bad entry is parked, not deleted");
    let (_, stores) = store_stats(&err);
    assert_eq!(stores, 1, "exactly the corrupted point recomputes");
    assert_eq!(std::fs::read(victim).unwrap(), bytes, "the entry is rewritten verbatim");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_mode_is_internal_and_takes_no_experiment_selection() {
    for sel in [&["--worker", "--experiment", "table2"][..], &["--worker", "--analyze"][..]] {
        let out = repro(sel);
        assert_eq!(out.status.code(), Some(2), "{sel:?} must be a usage error");
        assert!(stderr(&out).contains("child-process mode"), "{}", stderr(&out));
    }
}

#[test]
fn list_and_help_exit_cleanly() {
    let out = repro(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("table2") && text.contains("ablation-bus"));

    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("--inject"));
}

/// The machine-readable registry listing is golden: ids, summaries and
/// grid axes in registry order, shared verbatim with `GET /experiments`.
#[test]
fn list_json_matches_the_committed_golden() {
    let out = repro(&["--list", "--json"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(stdout(&out), include_str!("golden/list.json"));
    assert!(stderr(&out).is_empty(), "the listing is stdout-only");

    let out = repro(&["--json"]);
    assert_eq!(out.status.code(), Some(2), "--json without --list is a usage error");
}

/// A CLI sweep journals under the key a served job with the same spec
/// uses (`JobSpec::describe`), so either can resume the other's file.
#[test]
fn a_cli_sweep_journals_under_the_job_spec_key() {
    use specfetch_experiments::{journal, JobSpec};

    let dir = scratch("journal-key");
    let spec = "policy=Res,Pess cache=8K metric=ispi";
    let out = repro(&["--sweep", spec, "--instrs", "2000", "--result-dir", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    let printed = err.lines().find_map(|l| l.strip_prefix("[journal] "));
    let key = journal::run_key(&JobSpec::Sweep(spec.to_owned()).describe(), 2_000);
    let expected = journal::path_for(&dir, key);
    assert_eq!(printed, Some(expected.to_str().unwrap()), "stderr: {err}");
    assert!(expected.is_file());
    std::fs::remove_dir_all(&dir).ok();
}

/// `--quiet` silences status chatter (journal, result-store, timing
/// lines) but not reports, rows, or the failure summary.
#[test]
fn quiet_suppresses_status_chatter_but_not_reports_or_rows() {
    let dir = scratch("quiet");
    let loud = repro(&[
        "--experiment",
        "table2",
        "--instrs",
        "2000",
        "--result-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(loud.status.code(), Some(0));
    let err = stderr(&loud);
    assert!(err.contains("[journal] "), "stderr: {err}");
    assert!(err.contains("[result-store] hits="), "stderr: {err}");
    assert!(err.contains("[table2 done in "), "stderr: {err}");

    let dir2 = scratch("quiet2");
    let quiet = repro(&[
        "--experiment",
        "table2",
        "--instrs",
        "2000",
        "--result-dir",
        dir2.to_str().unwrap(),
        "--quiet",
        "--stream",
    ]);
    assert_eq!(quiet.status.code(), Some(0));
    assert_eq!(stdout(&quiet), stdout(&loud), "reports are not chatter");
    let err = stderr(&quiet);
    assert!(!err.contains("[journal] "), "stderr: {err}");
    assert!(!err.contains("[result-store]"), "stderr: {err}");
    assert!(!err.contains("done in "), "stderr: {err}");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir2).ok();
}

#[test]
fn jobs_without_serve_is_a_usage_error() {
    let out = repro(&["--jobs", "3", "--sweep", "bench=li policy=Res"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--jobs only applies to --serve"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "nothing may run before validation");
}

#[test]
fn a_bench_only_sweep_runs_the_baseline_column() {
    let out = repro(&["--sweep", "bench=li", "--instrs", "2000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("base") && text.contains("li"), "{text}");
}

/// A reader that goes away (`| head`, `| true`) ends the run with the
/// shell's 128+SIGPIPE code, not a panic. The pipe's read end is closed
/// before the child starts, so its first write always fails.
#[test]
fn a_closed_stdout_exits_141_without_a_panic() {
    for args in [&["--sweep", "bench=li policy=Res,Pess", "--instrs", "20000"][..], &["--list"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_specfetch-repro"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawning specfetch-repro");
        assert_eq!(out.status.code(), Some(141), "{args:?}: {}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{args:?}: {}", stderr(&out));
    }
}

/// The lines of an `--explain` bundle, in order.
const BUNDLE_SECTIONS: [&str; 16] = [
    "policy:",
    "instructions:",
    "cycles:",
    "IPC:",
    "ISPI:",
    "  branch_full",
    "  branch ",
    "  force_resolve",
    "  rt_icache",
    "  wrong_icache",
    "  bus",
    "miss rate:",
    "branch events:",
    "bpred:",
    "traffic:",
    "classification:",
];

fn assert_full_bundle(text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), BUNDLE_SECTIONS.len(), "{text}");
    for (line, section) in lines.iter().zip(BUNDLE_SECTIONS) {
        assert!(line.starts_with(section), "expected {section:?}, got {line:?} in:\n{text}");
    }
}

/// Every bundle line prints for any point, classification included:
/// `--explain` always classifies.
#[test]
fn explain_reports_every_section() {
    for (spec, policy) in [
        ("bench=li policy=Res", "Resume"),
        ("bench=li policy=Opt", "Optimistic"),
        ("bench=li policy=dynamic prefetch=stream", "Dynamic"),
    ] {
        let out = repro(&["--explain", spec, "--instrs", "30000"]);
        assert_eq!(out.status.code(), Some(0), "{spec}: {}", stderr(&out));
        let text = stdout(&out);
        assert_full_bundle(&text);
        assert!(text.starts_with(&format!("policy:        {policy}\n")), "{text}");
        assert!(text.lines().any(|l| l == "instructions:  30000"), "{text}");
        let classes = text.lines().last().unwrap_or_default();
        for class in ["BM", "SPo", "SPr", "WP", "TR"] {
            assert!(classes.contains(class), "{class} missing in:\n{text}");
        }
    }
}

/// The explanation of a benchmark point is the sweep cell of the same
/// configuration: one executor runs both.
#[test]
fn explain_ispi_is_the_sweep_cell() {
    let point = "bench=li policy=Res prefetch=nl";
    let explained = repro(&["--explain", point, "--instrs", "20000"]);
    assert_eq!(explained.status.code(), Some(0), "{}", stderr(&explained));
    let text = stdout(&explained);
    let ispi: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("ISPI:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no ISPI line in:\n{text}"));

    let swept = repro(&["--sweep", point, "--instrs", "20000"]);
    assert_eq!(swept.status.code(), Some(0), "{}", stderr(&swept));
    let table = stdout(&swept);
    let row = table.lines().find(|l| l.starts_with("li ")).unwrap_or_default();
    assert_eq!(row.split_whitespace().nth(1), Some(format!("{ispi:.3}").as_str()), "{table}");
}

#[test]
fn explain_shares_the_result_store() {
    let dir = scratch("explain-store");
    let args = ["--explain", "bench=li policy=Pess", "--instrs", "20000", "--result-dir"];
    let args = [&args[..], &[dir.to_str().unwrap()]].concat();
    let cold = repro(&args);
    assert_eq!(cold.status.code(), Some(0), "{}", stderr(&cold));
    assert_eq!(store_stats(&stderr(&cold)), (0, 1));
    let warm = repro(&args);
    assert_eq!(stdout(&warm), stdout(&cold), "a stored point explains identically");
    assert_eq!(store_stats(&stderr(&warm)), (1, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn explain_spec_errors_exit_2_before_anything_runs() {
    for (spec, needle) in [
        ("bench=li policy=Res,Pess", "several values"),
        ("policy=Res", "exactly one of bench="),
        ("bench=li trace=t.sft", "exactly one of bench="),
        ("bench=li metric=ispi", "metric="),
        ("bench=li policy=yolo", "sweep policy \"yolo\" is unknown"),
        ("bench=gccc", "did you mean \"gcc\"?"),
    ] {
        let out = repro(&["--explain", spec]);
        assert_eq!(out.status.code(), Some(2), "{spec:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "{spec:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{spec:?} must not run anything");
    }
    let out = repro(&["--explain", "bench=li", "--instrs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--instrs must be positive"), "{}", stderr(&out));
    let out = repro(&["--explain", "bench=li", "--sweep", "policy=Res"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--explain runs one point"), "{}", stderr(&out));
}

#[test]
fn explain_failures_exit_1() {
    let out =
        repro(&["--explain", "bench=li", "--instrs", "2000", "--inject", "point=explain:0,err"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error: li: FAILED(injected err)"), "{}", stderr(&out));
    assert!(stdout(&out).is_empty());

    let out = repro(&["--explain", "trace=/nonexistent/run.sftb"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("error: open /nonexistent/run.sftb: "), "{}", stderr(&out));
}

#[test]
fn explain_replays_a_trace_file_in_either_format() {
    use specfetch_synth::{Workload, WorkloadSpec};

    let w = Workload::generate(&WorkloadSpec::c_like("cli-trace", 3)).unwrap();
    let trace = specfetch_trace::PredictedTrace::record(&mut w.executor(1), 20_000);
    let dir = scratch("explain-trace");
    let (text_path, bin_path) = write_trace_files(&dir, "t", &trace);
    let odd_path = dir.join("t.bin");
    std::fs::copy(&bin_path, &odd_path).unwrap();

    let explain = |path: &std::path::Path| {
        repro(&["--explain", &format!("trace={} policy=Pess", path.display())])
    };
    let text = explain(&text_path);
    assert_eq!(text.status.code(), Some(0), "{}", stderr(&text));
    assert_full_bundle(&stdout(&text));
    assert!(stdout(&text).starts_with("policy:        Pessimistic\n"));
    assert!(stdout(&text).lines().any(|l| l == "instructions:  20000"), "{}", stdout(&text));
    assert_eq!(stdout(&explain(&bin_path)), stdout(&text), "both formats hold one path");

    let odd = explain(&odd_path);
    assert_eq!(odd.status.code(), Some(1));
    assert!(
        stderr(&odd).contains(&format!("unknown trace extension on {}", odd_path.display())),
        "{}",
        stderr(&odd)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Writes `trace` as `<dir>/<name>.sft` and `<dir>/<name>.sftb`.
fn write_trace_files(
    dir: &std::path::Path,
    name: &str,
    trace: &specfetch_trace::PredictedTrace,
) -> (PathBuf, PathBuf) {
    use specfetch_trace::{write_trace_binary, write_trace_text};
    std::fs::create_dir_all(dir).unwrap();
    let (text, binary) = (dir.join(format!("{name}.sft")), dir.join(format!("{name}.sftb")));
    write_trace_text(trace, &mut std::fs::File::create(&text).unwrap()).unwrap();
    write_trace_binary(trace, &mut std::fs::File::create(&binary).unwrap()).unwrap();
    (text, binary)
}

/// A benchmark's path written to a file and explained from it is the
/// benchmark's own point: one trace, one executor.
#[test]
fn explaining_a_suite_trace_file_prints_the_benchmark_point() {
    let dir = scratch("explain-suite-file");
    for name in ["li", "gcc"] {
        let bench = specfetch_synth::suite::Benchmark::by_name(name).unwrap();
        let trace =
            specfetch_experiments::trace_cache::try_predicted_trace(bench, 200_000).unwrap();
        let files = write_trace_files(&dir, name, &trace);
        for policy in ["Pess", "Res", "Opt", "Dec"] {
            let point = |input: String| {
                let out = repro(&[
                    "--explain",
                    &format!("{input} policy={policy}"),
                    "--instrs",
                    "200000",
                ]);
                assert_eq!(out.status.code(), Some(0), "{input} {policy}: {}", stderr(&out));
                stdout(&out)
            };
            let want = point(format!("bench={name}"));
            for file in [&files.0, &files.1] {
                assert_eq!(point(format!("trace={}", file.display())), want, "{policy}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A hand-written trace whose image sits far above 4 GiB words explains
/// to the bundle it printed when files replayed through the
/// per-instruction path.
#[test]
fn explain_pins_a_trace_at_a_high_base() {
    let at = |i: u64| format!("{:#x}", 0x7fff_0000_0000u64 + 4 * i);
    // 0: top; 1: call f; 9: loop back; 10: indirect call; 11: jump top;
    // 20: f, returning at 25; 30: g, with a forward branch at 31 and a
    // return at 35.
    let mut text = format!("SFT1 text\nbase {}\nentry {}\nimage 40\n", at(0), at(0));
    for i in 0..40 {
        text += &match i {
            1 => format!("c {}\n", at(20)),
            9 => format!("b {}\n", at(0)),
            10 => "y\n".into(),
            11 => format!("j {}\n", at(0)),
            25 | 35 => "r\n".into(),
            31 => format!("b {}\n", at(35)),
            _ => "s\n".into(),
        }
    }
    let mut path = Vec::new();
    for i in 0..500 {
        path.push(format!("@ {}", at(2)));
        if i % 5 != 4 {
            path.push("t".into());
            continue;
        }
        path.push("n".into());
        path.push(format!("@ {}", at(30)));
        path.push(if i % 10 == 4 { "t" } else { "n" }.into());
        path.push(format!("@ {}", at(11)));
    }
    text += &format!("path {}\n{}\nend\n", path.len(), path.join("\n"));
    let dir = scratch("explain-high-base");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("high.sft");
    std::fs::write(&file, text).unwrap();

    let out = repro(&["--explain", &format!("trace={} policy=Res", file.display())]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        stdout(&out),
        "policy:        Resume
instructions:  8657
cycles:        2248
IPC:           3.851 (of 4 wide)
ISPI:          0.0387
  branch_full    0.0000
  branch         0.0292
  force_resolve  0.0000
  rt_icache      0.0095
  wrong_icache   0.0000
  bus            0.0000
miss rate:     0.06% correct-path
branch events: 6 misfetch, 15 mispredict, 2 target-mispredict
bpred:         cond 97.49% (583/598), btb hit 97.51%, ret miss 1/599, ind miss 1/99
traffic:       5 fills (4 correct, 1 wrong, 0 prefetch, 0 target)
classification: BM 0.06% SPo 0.00% SPr 0.00% WP 0.01% TR 1.20
"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A file whose records disagree with its image is an error naming the
/// file and the disagreement, not a bundle of the path up to it.
#[test]
fn explaining_a_trace_whose_records_disagree_with_the_image_fails() {
    let dir = scratch("explain-bad-path");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.sft");
    // The call's return needs a successor; the file gives a direction.
    let text = "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 3\nc 0x1008\ns\nr\npath 1\nn\nend\n";
    std::fs::write(&file, text).unwrap();
    let out = repro(&["--explain", &format!("trace={} policy=Res", file.display())]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert_eq!(
        stderr(&out).trim_end(),
        format!(
            "error: parse {}: path record kind mismatch for instruction at 0x1008",
            file.display()
        )
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
