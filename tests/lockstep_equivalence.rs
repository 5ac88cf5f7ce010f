//! Lockstep-equivalence determinism: `run_lockstep` must be an invisible
//! *scheduling* optimisation. For any batch of configurations advanced in
//! lockstep over one shared trace, every lane's `SimResult` must be
//! byte-identical to running that configuration alone through
//! `Simulator::run` over the live interpreter the trace was recorded from.
//!
//! The grids here are randomized (deterministically — a tiny LCG, no
//! external crates) across every axis the sweep engine exposes, so the
//! batch mixes policies, cache geometries, speculation depths, bus
//! shapes, prefetchers, and predictor variants in one lane set: exactly
//! the heterogeneity `run_grid` schedules in production.

use std::sync::Arc;

use specfetch_bpred::GhrUpdate;
use specfetch_core::{run_lockstep, FetchPolicy, FrontEnd, SimConfig, Simulator};
use specfetch_synth::{Workload, WorkloadSpec};
use specfetch_trace::{PathSource, PredictedTrace};

/// One workload's correct path: `instrs` instructions from `seed`.
struct Path {
    workload: Workload,
    seed: u64,
    instrs: u64,
}

impl Path {
    fn new(spec: &WorkloadSpec, seed: u64, instrs: u64) -> Path {
        Path { workload: Workload::generate(spec).unwrap(), seed, instrs }
    }

    /// The live interpreter: the reference every lane must match.
    fn live(&self) -> impl PathSource + '_ {
        self.workload.executor(self.seed).take_instrs(self.instrs)
    }

    fn trace(&self) -> Arc<PredictedTrace> {
        Arc::new(PredictedTrace::record(&mut self.live(), u64::MAX))
    }
}

/// Deterministic splitmix64 step — enough randomness to shuffle axis
/// choices, with no dependency and no flaky seeds.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn pick<T: Copy>(rng: &mut u64, choices: &[T]) -> T {
    choices[(next(rng) % choices.len() as u64) as usize]
}

/// A random but always-valid configuration: every axis is drawn from the
/// values the sweep grid exposes, and the one cross-axis constraint
/// (`prefetch` and `stream_buffer` are mutually exclusive) is respected
/// by drawing the prefetcher as a single four-way choice.
fn random_config(rng: &mut u64) -> SimConfig {
    let mut cfg = SimConfig::paper_baseline();
    cfg.policy = pick(rng, &FetchPolicy::ALL);
    cfg.icache.size_bytes = pick(rng, &[4 * 1024, 8 * 1024, 32 * 1024]);
    cfg.icache.assoc = pick(rng, &[1, 2]);
    cfg.miss_penalty = pick(rng, &[5, 10, 20]);
    cfg.max_unresolved = pick(rng, &[1, 2, 4, 8]);
    cfg.bus_slots = pick(rng, &[1, 2]);
    cfg.classify = next(rng).is_multiple_of(2);
    match next(rng) % 4 {
        0 => cfg.prefetch = true,
        1 => cfg.stream_buffer = true,
        2 => cfg.target_prefetch = true,
        _ => {}
    }
    if next(rng).is_multiple_of(2) {
        cfg.bpred.ghr_update = GhrUpdate::Speculative;
    }
    cfg.validate().expect("randomized config must stay valid");
    cfg
}

/// Runs `cfgs` as one lockstep batch over the trace of `path` and demands
/// each lane's result be exactly the live interpreter's result for that
/// configuration.
fn assert_batch_matches_sequential(path: &Path, cfgs: &[SimConfig], what: &str) {
    let fronts: Vec<FrontEnd> =
        cfgs.iter().map(|c| FrontEnd::build(*c).expect("valid config")).collect();
    let outcomes = run_lockstep(&path.trace(), fronts);
    assert_eq!(outcomes.len(), cfgs.len(), "{what}: one outcome per lane");
    for (i, (cfg, outcome)) in cfgs.iter().zip(&outcomes).enumerate() {
        let got = outcome.as_ref().unwrap_or_else(|_| panic!("{what}: lane {i} panicked"));
        let want = Simulator::new(*cfg).run(path.live());
        assert_eq!(got, &want, "{what}: lane {i} ({:?}) diverged from sequential", cfg.policy);
        assert_eq!(
            got.ispi().to_bits(),
            want.ispi().to_bits(),
            "{what}: lane {i} ISPI must be bit-identical"
        );
    }
}

#[test]
fn randomized_grids_match_sequential() {
    let path = Path::new(&WorkloadSpec::c_like("lockstep", 7), 3, 30_000);
    let mut rng = 0x5eed_0001u64;
    for round in 0..3 {
        let cfgs: Vec<SimConfig> = (0..8).map(|_| random_config(&mut rng)).collect();
        assert_batch_matches_sequential(&path, &cfgs, &format!("round {round}"));
    }
}

#[test]
fn duplicate_lanes_agree_with_each_other() {
    // The same configuration twice in one batch must produce the same
    // result in both lanes — lanes share the trace but nothing mutable,
    // so duplicates are the sharpest aliasing probe.
    let path = Path::new(&WorkloadSpec::cpp_like("lockstep-dup", 11), 5, 30_000);
    let cfg = SimConfig::paper_baseline();
    let cfgs = [cfg, cfg, cfg];
    assert_batch_matches_sequential(&path, &cfgs, "duplicates");
}

#[test]
fn single_lane_batch_matches_sequential() {
    // Degenerate batch: the lockstep scheduler with one lane must still
    // be exactly the sequential run (this is what run_grid dispatches
    // for a one-point group).
    let path = Path::new(&WorkloadSpec::c_like("lockstep-one", 13), 2, 30_000);
    let mut cfg = SimConfig::paper_baseline();
    cfg.policy = FetchPolicy::Resume;
    assert_batch_matches_sequential(&path, &[cfg], "single lane");
}

#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn randomized_grids_match_sequential_500k() {
    // The long variant mirrors tests/overlay_equivalence.rs: same
    // assertion, production-scale instruction window, wider batch.
    let path = Path::new(&WorkloadSpec::c_like("lockstep-long", 7), 3, 500_000);
    let mut rng = 0x5eed_0500u64;
    let mut cfgs: Vec<SimConfig> = (0..12).map(|_| random_config(&mut rng)).collect();
    // Pin the full policy axis into the batch on top of the random draw.
    for policy in FetchPolicy::ALL {
        let mut cfg = SimConfig::paper_baseline();
        cfg.policy = policy;
        cfgs.push(cfg);
    }
    assert_batch_matches_sequential(&path, &cfgs, "500k");
}
