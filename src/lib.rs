//! # specfetch
//!
//! A trace-driven simulator of **instruction-cache fetch policies under
//! speculative execution**, reproducing *Instruction Cache Fetch Policies
//! for Speculative Execution* (Lee, Baer, Calder & Grunwald, ISCA 1995).
//!
//! When a speculative front end misses in the I-cache before its branches
//! resolve, should it fetch the line? The paper's five answers — Oracle,
//! Optimistic, Resume, Pessimistic, and Decode — are implemented here over
//! a complete substrate built from scratch: a static program-image model
//! that supports *wrong-path* fetch, trace formats, a decoupled
//! BTB + gshare branch architecture, a blocking I-cache with resume and
//! prefetch buffers on a single-transaction bus, and a synthetic workload
//! generator calibrated to the paper's thirteen benchmarks.
//!
//! This crate is a facade: it re-exports the workspace's crates as
//! modules, so `specfetch::core::Simulator` and friends are one `use`
//! away.
//!
//! ## Quickstart
//!
//! Compare two fetch policies on a calibrated benchmark model:
//!
//! ```
//! use specfetch::core::{FetchPolicy, SimConfig, Simulator};
//! use specfetch::synth::suite::Benchmark;
//! use specfetch::trace::PathSource;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let gcc = Benchmark::by_name("gcc").expect("part of the suite");
//! let workload = gcc.workload()?;
//!
//! let mut cfg = SimConfig::paper_baseline();
//! cfg.policy = FetchPolicy::Resume;
//! let sim = Simulator::new(cfg);
//! let result = sim.run(workload.executor(gcc.path_seed()).take_instrs(100_000));
//!
//! println!("Resume ISPI on gcc: {:.2}", result.ispi());
//! assert!(result.ispi() > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! ## Layered crates
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `specfetch-isa` | addresses, instruction kinds, static program images |
//! | [`trace`] | `specfetch-trace` | `PathSource`, replay, `.sft` trace file formats |
//! | [`bpred`] | `specfetch-bpred` | BTB, gshare/bimodal PHTs, RAS, the branch unit |
//! | [`cache`] | `specfetch-cache` | I-cache, bus, resume buffer, next-line prefetcher |
//! | [`synth`] | `specfetch-synth` | synthetic workload generator + 13 calibrated benchmarks |
//! | [`core`] | `specfetch-core` | the fetch-policy engine, ISPI metrics, miss classifier |
//! | [`experiments`] | `specfetch-experiments` | regeneration of every paper table and figure |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use specfetch_bpred as bpred;
pub use specfetch_cache as cache;
pub use specfetch_core as core;
pub use specfetch_experiments as experiments;
pub use specfetch_isa as isa;
pub use specfetch_synth as synth;
pub use specfetch_trace as trace;

/// Convenience re-exports of the types almost every user touches.
pub mod prelude {
    pub use specfetch_core::{
        FetchPolicy, IspiBreakdown, MissClass, SimConfig, SimResult, Simulator,
    };
    pub use specfetch_synth::suite::Benchmark;
    pub use specfetch_synth::{Workload, WorkloadSpec};
    pub use specfetch_trace::{PathSource, PredictedTrace};
}
