//! The ledger's contract with `BENCHMARK.json`, and a smoke run of the
//! traced in-process path for every workload at tiny windows.

use std::path::PathBuf;

use specfetch_bench_ledger::catalog::{valid_name, END_TO_END, PER_LAYER, WORKLOADS};
use specfetch_bench_ledger::jobs::job_mix;
use specfetch_bench_ledger::json::{parse, Value};
use specfetch_bench_ledger::replay::{
    drive_sweep, paper_scenarios, render_experiments, replay_grid, sweep_scenario, use_store, Plan,
};
use specfetch_bench_ledger::tracer::{coverage, Args, Kind, Tracer};
use specfetch_bench_ledger::SWEEP_SPEC;
use specfetch_experiments::{result_store, trace_cache, EXPERIMENT_IDS};
use specfetch_synth::suite::Benchmark;

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json must stay under 64 KiB");
    parse(&text).unwrap()
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or_else(|| panic!("{key} must be an array"))
}

fn field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} must be a string"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_ledger_emits() {
    let b = benchmark_json();
    let keys: Vec<&String> = b.as_obj().unwrap().keys().collect();
    assert_eq!(
        keys,
        ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        "BENCHMARK.json has exactly the contract's keys"
    );
    let command: Vec<&str> = entries(&b, "command").iter().filter_map(Value::as_str).collect();
    assert_eq!(command, ["bash", "bench-ledger/run.sh"]);
    let paths: Vec<&str> = entries(&b, "paths").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["bench-ledger"]);

    let workloads = entries(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(w.as_obj().unwrap().len(), 2, "a workload has exactly name and why");
        assert_eq!(field(w, "name"), want.name);
        assert_eq!(field(w, "why"), want.why);
        assert!(want.why.len() <= 200 && !want.why.contains('\n'), "{}", want.name);
    }

    let e2e = entries(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (m, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(m.as_obj().unwrap().len(), 4, "{}", want.name);
        assert_eq!(field(m, "name"), want.name);
        assert_eq!(field(m, "unit"), want.unit);
        assert_eq!(field(m, "better"), want.better.as_str());
        assert_eq!(m.get("bound").and_then(Value::as_f64), Some(want.bound));
    }

    let layers = entries(&b, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, want) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(m.as_obj().unwrap().len(), 3, "{}", want.name);
        assert_eq!(field(m, "name"), want.name);
        assert_eq!(field(m, "unit"), want.unit);
        assert_eq!(field(m, "better"), want.better.as_str());
    }

    for name in WORKLOADS.iter().map(|w| w.name).chain(END_TO_END.iter().map(|m| m.name)) {
        assert!(valid_name(name), "{name}");
    }
    for m in &PER_LAYER {
        assert!(valid_name(m.name), "{}", m.name);
    }
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes().all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
    };
    assert!(
        END_TO_END.iter().all(|m| unit_ok(m.unit)) && PER_LAYER.iter().all(|m| unit_ok(m.unit))
    );
    let secs = b.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
}

/// Runs `f` as the traced part of a run and returns its coverage.
fn traced<R>(t: &Tracer, f: impl FnOnce() -> R) -> (R, f64) {
    let start = t.now_us();
    let out = f();
    let wall = t.now_us() - start;
    (out, coverage(&t.spans(), t.main_tid(), wall))
}

/// The traced path of all four workloads in one process (the result
/// store directory is process-wide), each at its own tiny window so no
/// workload finds another's results.
#[test]
fn the_traced_path_covers_every_workload() {
    let store = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ledger-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    std::fs::create_dir_all(&store).unwrap();
    use_store(&store).unwrap();
    specfetch_experiments::diag::set_quiet(true);

    // paper-cold: the grid replay, then the render from the store alone.
    let plan = Plan::new(&paper_scenarios());
    assert_eq!((plan.grid_points, plan.distinct()), (474, 352), "the paper grid's dedup");
    let t = Tracer::new();
    let (text, cov) = traced(&t, || {
        replay_grid(&t, &plan, 3_000, &store).unwrap();
        let (hits, stores) = result_store::stats();
        let text = render_experiments(&t, &EXPERIMENT_IDS, 3_000).unwrap();
        let (hits2, stores2) = result_store::stats();
        assert_eq!((hits2 - hits, stores2 - stores), (352, 0), "the render simulates nothing");
        text
    });
    assert!(cov >= 0.95, "paper-cold coverage {cov}");
    assert!(text.contains("== table7") && !text.contains("FAILED"));
    assert_eq!(t.durations_s("core.lockstep").len(), plan.batches());
    assert_eq!(t.durations_s("store.put").len(), 352);

    // sweep-wide: one wide batch per benchmark.
    let plan = Plan::new(&sweep_scenario(SWEEP_SPEC).unwrap());
    assert_eq!((plan.batches(), plan.distinct()), (13, 13 * 24));
    let t = Tracer::new();
    let (text, cov) = traced(&t, || {
        replay_grid(&t, &plan, 3_100, &store).unwrap();
        drive_sweep(&t, "experiments.render.sweep", SWEEP_SPEC, 3_100).unwrap()
    });
    assert!(cov >= 0.95, "sweep-wide coverage {cov}");
    assert!(text.contains("Custom sweep") && !text.contains("FAILED"));

    // store-warm: fill untraced, then render from the store traced.
    let plan = Plan::new(&paper_scenarios());
    replay_grid(&Tracer::new(), &plan, 3_200, &store).unwrap();
    let t = Tracer::new();
    let (text, cov) = traced(&t, || render_experiments(&t, &EXPERIMENT_IDS, 3_200).unwrap());
    assert!(cov >= 0.95, "store-warm coverage {cov}");
    assert_eq!(t.durations_s("core.lockstep").len(), 0, "a warm render runs no lane");
    assert!(!text.contains("FAILED"));

    // serve-jobs: the in-process half — record once, compute each job.
    let t = Tracer::new();
    let (bodies, cov) = traced(&t, || {
        for b in Benchmark::all() {
            let a = Args { bench: b.name, lanes: 0, instrs: 3_300 };
            t.span(Kind::Layer, "trace.record", a, || trace_cache::shared_trace(b, 3_300));
        }
        let specs = job_mix(1, 5).unwrap();
        specs
            .iter()
            .map(|j| drive_sweep(&t, "service.compute", &j.spec, 3_300).unwrap())
            .collect::<Vec<_>>()
    });
    assert!(cov >= 0.95, "serve-jobs coverage {cov}");
    assert_eq!(bodies.len(), 5);
    assert!(bodies.iter().all(|b| b.contains("Custom sweep") && !b.contains("FAILED")));
    let _ = std::fs::remove_dir_all(&store);
}
