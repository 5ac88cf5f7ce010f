//! Lockstep-equivalence determinism: `run_lockstep` must be an invisible
//! *scheduling* optimisation. For any batch of configurations advanced in
//! lockstep over one shared trace, every lane's `SimResult` must be
//! byte-identical to running that configuration as the lone lane of a
//! batch over a fresh recording of the same path.
//!
//! The grids here are randomized (deterministically — a tiny LCG, no
//! external crates) across every axis the sweep engine exposes, so the
//! batch mixes policies, cache geometries, speculation depths, bus
//! shapes, prefetchers, and predictor variants in one lane set: exactly
//! the heterogeneity `run_grid` schedules in production.

mod common;
mod pinned;

use std::sync::Arc;

use specfetch_core::{run_lockstep, FetchPolicy, FrontEnd, SimConfig, SimResult};
use specfetch_synth::{Workload, WorkloadSpec};
use specfetch_trace::{PathSource, PredictedTrace};

use common::random_config;
use pinned::assert_pinned;

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

    /// A fresh recording of the path from its interpreter.
    fn trace(&self) -> Arc<PredictedTrace> {
        let mut live = self.workload.executor(self.seed).take_instrs(self.instrs);
        Arc::new(PredictedTrace::record(&mut live, u64::MAX))
    }

    /// `cfg` as the lone lane of a batch: the reference every lane of a
    /// larger batch must match.
    fn lone(&self, cfg: SimConfig) -> SimResult {
        let fe = FrontEnd::build(cfg).expect("valid config");
        match run_lockstep(&self.trace(), vec![fe]).pop() {
            Some(Ok(result)) => result,
            _ => panic!("the lone lane of {cfg:?} failed"),
        }
    }
}

/// Runs `cfgs` as one lockstep batch over the trace of `path`, demands
/// each lane's result be exactly that configuration's lone-lane result,
/// and returns the lanes' results.
fn assert_batch_matches_sequential(path: &Path, cfgs: &[SimConfig], what: &str) -> Vec<SimResult> {
    let fronts: Vec<FrontEnd> =
        cfgs.iter().map(|c| FrontEnd::build(*c).expect("valid config")).collect();
    let outcomes = run_lockstep(&path.trace(), fronts);
    assert_eq!(outcomes.len(), cfgs.len(), "{what}: one outcome per lane");
    let results: Vec<SimResult> = outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| outcome.unwrap_or_else(|_| panic!("{what}: lane {i} panicked")))
        .collect();
    for (i, (cfg, got)) in cfgs.iter().zip(&results).enumerate() {
        let want = path.lone(*cfg);
        assert_eq!(got, &want, "{what}: lane {i} ({:?}) diverged from sequential", cfg.policy);
        assert_eq!(
            got.ispi().to_bits(),
            want.ispi().to_bits(),
            "{what}: lane {i} ISPI must be bit-identical"
        );
    }
    results
}

#[test]
fn randomized_grids_match_sequential() {
    let path = Path::new(&WorkloadSpec::c_like("lockstep", 7), 3, 30_000);
    let mut rng = 0x5eed_0001u64;
    for round in 0..3 {
        let cfgs: Vec<SimConfig> = (0..8).map(|_| random_config(&mut rng)).collect();
        let results = assert_batch_matches_sequential(&path, &cfgs, &format!("round {round}"));
        for (lane, result) in results.iter().enumerate() {
            assert_pinned(&format!("random/{round}/{lane}"), result);
        }
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
    for result in assert_batch_matches_sequential(&path, &cfgs, "duplicates") {
        assert_pinned("batch/duplicate", &result);
    }
}

#[test]
fn single_lane_batch_matches_sequential() {
    // Degenerate batch: the lockstep scheduler with one lane must still
    // be exactly the sequential run (this is what run_grid dispatches
    // for a one-point group).
    let path = Path::new(&WorkloadSpec::c_like("lockstep-one", 13), 2, 30_000);
    let mut cfg = SimConfig::paper_baseline();
    cfg.policy = FetchPolicy::Resume;
    for result in assert_batch_matches_sequential(&path, &[cfg], "single lane") {
        assert_pinned("batch/single", &result);
    }
}

#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn randomized_grids_match_sequential_500k() {
    // The same assertion at a production-scale instruction window, with
    // a wider batch.
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
