//! Golden regression: each `MissGate` must reproduce the pre-refactor
//! engine's per-benchmark `SimResult` exactly.
//!
//! The gate fixture was generated at commit d88d115 — the last revision
//! where the five paper policies were `match` arms inside
//! `Engine::on_miss` — by running this same harness with
//! `SPECFETCH_REGEN_FIXTURE=1`. Any digest drift means the extracted gates
//! changed simulated behaviour, which the refactor explicitly must not do.
//!
//! The prefetch fixture pins every valid prefetcher combination (next-line,
//! branch-target, both, the stream buffer, stream plus target) under every
//! policy on a one- and a two-slot bus. It was recorded with the same
//! variable at commit ebea2e2, while the prefetchers were still boxed
//! pipeline stages with their own copies of the one-line buffer.
//!
//! The path fixture pins every `SimResult` field, through the result
//! codec, for each case the trace-equivalence suites once compared
//! against a live interpreter: every policy, the sweep axes, the
//! prefetchers and the stream buffer, speculative history, straight-line
//! code on a 1K cache, a trace cut on a transfer and mid-run, the `gcc`
//! and `li` suite paths, the three randomized lockstep grids, and the
//! duplicate and single-lane batches. It was recorded with the same
//! variable at commit 4c51594, while `Simulator::run` still fed the engine
//! one live instruction at a time.

mod common;

use std::fmt::Write as _;

use specfetch::bpred::GhrUpdate;
use specfetch::core::{FetchPolicy, SimConfig, SimResult, Simulator};
use specfetch::experiments::codec::encode_result;
use specfetch::isa::{Addr, DynInstr, ProgramBuilder};
use specfetch::synth::suite::Benchmark;
use specfetch::synth::{Workload, WorkloadSpec};
use specfetch::trace::{PathSource, VecSource};

use common::random_config;

const INSTRS: u64 = 30_000;
const FIXTURE: &str = include_str!("fixtures/gate_results.txt");

const PATH_INSTRS: u64 = 30_000;
const PATH_FIXTURE: &str = include_str!("fixtures/path_results.txt");

const PREFETCH_INSTRS: u64 = 20_000;
const PREFETCH_FIXTURE: &str = include_str!("fixtures/prefetch_results.txt");
const PREFETCH_BENCHES: [&str; 3] = ["gcc", "li", "fpppp"];
/// `(name, next-line, target, stream buffer)`: every combination that
/// `SimConfig::validate` accepts (next-line and the stream buffer exclude
/// each other).
const PREFETCHERS: [(&str, bool, bool, bool); 5] = [
    ("nl", true, false, false),
    ("target", false, true, false),
    ("nl+target", true, true, false),
    ("stream", false, false, true),
    ("stream+target", false, true, true),
];

fn digest(r: &SimResult) -> String {
    format!(
        "cycles={} instrs={} lost={}/{}/{}/{}/{}/{} pht={} btbmf={} btbmp={} \
         mf={} mp={} tmp={} traffic={}/{}/{}/{} pf={}/{}",
        r.cycles,
        r.correct_instrs,
        r.lost.branch_full,
        r.lost.branch,
        r.lost.force_resolve,
        r.lost.rt_icache,
        r.lost.wrong_icache,
        r.lost.bus,
        r.pht_mispredict_slots,
        r.btb_misfetch_slots,
        r.btb_mispredict_slots,
        r.misfetches,
        r.mispredicts,
        r.target_mispredicts,
        r.traffic_demand_correct,
        r.traffic_demand_wrong,
        r.traffic_prefetch,
        r.traffic_target_prefetch,
        r.prefetches_issued(),
        r.prefetch_hits,
    )
}

fn current() -> String {
    let mut out = String::new();
    for bench in Benchmark::all() {
        let w = bench.workload().expect("calibrated specs generate");
        for policy in FetchPolicy::ALL {
            let mut cfg = SimConfig::paper_baseline();
            cfg.policy = policy;
            let r = Simulator::new(cfg).run(w.executor(bench.path_seed()).take_instrs(INSTRS));
            writeln!(out, "{} {} {}", bench.name, policy.short_name(), digest(&r)).unwrap();
        }
    }
    out
}

fn current_prefetch() -> String {
    let mut out = String::new();
    for name in PREFETCH_BENCHES {
        let bench = Benchmark::by_name(name).expect("suite benchmark");
        let w = bench.workload().expect("calibrated specs generate");
        for (pf, prefetch, target_prefetch, stream_buffer) in PREFETCHERS {
            for policy in FetchPolicy::ALL {
                for bus_slots in [1, 2] {
                    let mut cfg = SimConfig::paper_baseline();
                    cfg.policy = policy;
                    cfg.prefetch = prefetch;
                    cfg.target_prefetch = target_prefetch;
                    cfg.stream_buffer = stream_buffer;
                    cfg.bus_slots = bus_slots;
                    let path = w.executor(bench.path_seed()).take_instrs(PREFETCH_INSTRS);
                    let r = Simulator::new(cfg).run(path);
                    let p = policy.short_name();
                    writeln!(out, "{name} {pf} {p} bus={bus_slots} {}", digest(&r)).unwrap();
                }
            }
        }
    }
    out
}

fn current_paths() -> String {
    let mut out = String::new();
    let mut row = |case: &str, r: SimResult| writeln!(out, "{case} {}", encode_result(&r)).unwrap();
    let synth = |spec: WorkloadSpec| Workload::generate(&spec).expect("spec generates");
    let base = SimConfig::paper_baseline();
    let with = |edit: &dyn Fn(&mut SimConfig)| {
        let mut cfg = base;
        edit(&mut cfg);
        cfg
    };

    let w = synth(WorkloadSpec::c_like("ovl", 7));
    for policy in FetchPolicy::ALL {
        let cfg = with(&|c| c.policy = policy);
        row(
            &format!("policy/{}", policy.short_name()),
            run(cfg, w.executor(3).take_instrs(PATH_INSTRS)),
        );
    }

    let w = synth(WorkloadSpec::cpp_like("ovl-axes", 11));
    let axes: [(&str, SimConfig); 4] = [
        (
            "1K-penalty20",
            with(&|c| {
                c.icache.size_bytes = 1024;
                c.miss_penalty = 20;
            }),
        ),
        ("depth1", with(&|c| c.max_unresolved = 1)),
        ("classify", with(&|c| c.classify = true)),
        ("bus2", with(&|c| c.bus_slots = 2)),
    ];
    for (name, cfg) in axes {
        row(&format!("axis/{name}"), run(cfg, w.executor(5).take_instrs(PATH_INSTRS)));
    }

    let w = synth(WorkloadSpec::c_like("ovl-pf", 13));
    let prefetchers: [(&str, SimConfig); 3] = [
        ("nl", with(&|c| c.prefetch = true)),
        (
            "nl+target",
            with(&|c| {
                c.prefetch = true;
                c.target_prefetch = true;
            }),
        ),
        ("stream", with(&|c| c.stream_buffer = true)),
    ];
    for (name, cfg) in prefetchers {
        row(&format!("prefetch/{name}"), run(cfg, w.executor(2).take_instrs(PATH_INSTRS)));
    }

    let w = synth(WorkloadSpec::c_like("ovl-ghr", 17));
    let cfg = with(&|c| c.bpred.ghr_update = GhrUpdate::Speculative);
    row("ghr/speculative", run(cfg, w.executor(4).take_instrs(PATH_INSTRS)));

    let n = 4096;
    let mut b = ProgramBuilder::new(Addr::new(0));
    b.push_seq(n);
    b.set_entry(Addr::new(0));
    let p = b.finish().expect("straight-line image");
    let path: Vec<DynInstr> = (0..n as u64).map(|i| DynInstr::seq(Addr::from_word(i))).collect();
    for policy in FetchPolicy::ALL {
        let cfg = with(&|c| {
            c.policy = policy;
            c.icache.size_bytes = 1024;
        });
        let src = VecSource::new(p.clone(), path.clone());
        row(&format!("straight-1K/{}", policy.short_name()), run(cfg, src));
    }

    // A window that ends on a transfer and one that ends mid-run.
    let w = synth(WorkloadSpec::c_like("ovl-cut", 23));
    let mut full = w.executor(9).take_instrs(8_000);
    let path: Vec<DynInstr> = std::iter::from_fn(|| full.next_instr()).collect();
    for transfer in [true, false] {
        let window = (7_777..8_000).find(|&n| path[n - 1].is_branch() == transfer).unwrap();
        row(&format!("cut/{window}"), run(base, w.executor(9).take_instrs(window as u64)));
    }

    for (name, policy) in
        [("gcc", FetchPolicy::Optimistic), ("gcc", FetchPolicy::Resume), ("li", base.policy)]
    {
        let bench = Benchmark::by_name(name).expect("suite benchmark");
        let w = bench.workload().expect("calibrated specs generate");
        let cfg = with(&|c| c.policy = policy);
        let src = w.executor(bench.path_seed()).take_instrs(50_000);
        row(&format!("suite/{name}/{}", policy.short_name()), run(cfg, src));
    }

    let w = synth(WorkloadSpec::c_like("lockstep", 7));
    let mut rng = 0x5eed_0001u64;
    for round in 0..3 {
        for lane in 0..8 {
            let cfg = random_config(&mut rng);
            let src = w.executor(3).take_instrs(PATH_INSTRS);
            row(&format!("random/{round}/{lane}"), run(cfg, src));
        }
    }
    let w = synth(WorkloadSpec::cpp_like("lockstep-dup", 11));
    row("batch/duplicate", run(base, w.executor(5).take_instrs(PATH_INSTRS)));
    let w = synth(WorkloadSpec::c_like("lockstep-one", 13));
    let cfg = with(&|c| c.policy = FetchPolicy::Resume);
    row("batch/single", run(cfg, w.executor(2).take_instrs(PATH_INSTRS)));
    out
}

fn run(cfg: SimConfig, path: impl PathSource) -> SimResult {
    Simulator::new(cfg).run(path)
}

/// Compares `now` with a committed fixture line by line, or rewrites the
/// fixture when `SPECFETCH_REGEN_FIXTURE` is set.
fn check(now: &str, file: &str, fixture: &str) {
    if std::env::var_os("SPECFETCH_REGEN_FIXTURE").is_some() {
        let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, now).expect("write fixture");
        return;
    }
    for (got, want) in now.lines().zip(fixture.lines()) {
        assert_eq!(got, want, "SimResult drifted from the pre-refactor engine");
    }
    assert_eq!(
        now.lines().count(),
        fixture.lines().count(),
        "fixture row count changed — regenerate deliberately, never casually"
    );
}

#[test]
fn gates_reproduce_pre_refactor_results() {
    check(&current(), "gate_results.txt", FIXTURE);
}

#[test]
fn prefetchers_reproduce_pre_refactor_results() {
    check(&current_prefetch(), "prefetch_results.txt", PREFETCH_FIXTURE);
}

#[test]
fn paths_reproduce_pre_refactor_results() {
    check(&current_paths(), "path_results.txt", PATH_FIXTURE);
}
