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

use std::fmt::Write as _;

use specfetch::core::{FetchPolicy, SimConfig, SimResult, Simulator};
use specfetch::synth::suite::Benchmark;
use specfetch::trace::PathSource;

const INSTRS: u64 = 30_000;
const FIXTURE: &str = include_str!("fixtures/gate_results.txt");

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
        r.prefetches_issued,
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

/// Compares `now` with a committed fixture line by line, or rewrites the
/// fixture when `SPECFETCH_REGEN_FIXTURE` is set.
fn check(now: &str, file: &str, fixture: &str) {
    if std::env::var_os("SPECFETCH_REGEN_FIXTURE").is_some() {
        let path = format!("{}/tests/fixtures/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, now).expect("write fixture");
        return;
    }
    for (got, want) in now.lines().zip(fixture.lines()) {
        assert_eq!(got, want, "SimResult digest drifted from the pre-refactor engine");
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
