//! `bench-ledger`: the end-to-end and per-layer performance ledger of
//! `specfetch-repro`.
//!
//! Untraced runs drive the release binary as a black box and report what
//! its user sees; traced runs replay the same work in-process through
//! each layer's public API ([`replay`]) with a span around every call
//! ([`tracer`]), so per-layer time is measured by the benchmark, never by
//! instrumentation compiled into the program. This library half holds
//! everything that does no process, socket or thread management of its
//! own; the binary under `src/bin/bench-ledger/` does that.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod calib;
pub mod catalog;
pub mod jobs;
pub mod json;
pub mod parse;
pub mod replay;
pub mod stats;
pub mod tracer;

/// Every workload runs its simulation on one core: the CLI with
/// `--sequential` (`sweep-wide` with one worker process), the server
/// with one job slot, `--sequential`, and one client, and the in-process
/// replay with `par_map` in sequential mode. On a shared two-vCPU host
/// the second vCPU's speed swings by tens of percent from minute to
/// minute, which would swamp any change a single commit makes.
pub const PARALLEL: bool = false;

/// Instructions per benchmark for `paper-cold`: the smallest window the
/// CLI replays through overlays and lockstep batches
/// (`RunOptions::overlay_min_instrs`).
pub const PAPER_WINDOW: u64 = 200_000;

/// The `sweep-wide` grid: 24 configurations over every benchmark.
pub const SWEEP_SPEC: &str =
    "policy=Oracle,Opt,Res,Pess,Dec,Dyn cache=8K,32K penalty=5,20 metric=ispi";

/// Instructions per benchmark for `sweep-wide`.
pub const SWEEP_WINDOW: u64 = 200_000;

/// Instructions per benchmark for `store-warm`.
pub const STORE_WINDOW: u64 = 100_000;

/// Instructions per benchmark of every `serve-jobs` job: small enough
/// that a job computes in well under the server's 25 ms poll period
/// even on a slow host, so its latency does not flip between three and
/// four poll periods with host speed.
pub const JOB_WINDOW: u64 = 50_000;

/// The golden stdout of `paper-cold`.
pub const GOLDEN_PAPER: &str = include_str!("../golden/paper-cold.txt");

/// The golden stdout of `sweep-wide`.
pub const GOLDEN_SWEEP: &str = include_str!("../golden/sweep-wide.txt");

/// The golden stdout of `store-warm` (cold fill and every warm replay).
pub const GOLDEN_STORE: &str = include_str!("../golden/store-warm.txt");
