//! Typed protocol state machines and a bounded exhaustive model checker
//! for the specfetch execution substrate (DESIGN §5l).
//!
//! The concurrent substrate built in PRs 7–9 — sharded worker processes
//! with heartbeats, the crash-exact sweep journal, the job controller —
//! promises byte-identical results under any interleaving, crash, or
//! cancellation. This crate makes the three protocols behind that
//! promise *explicit*:
//!
//! - [`worker`] — the parent↔child pipe protocol v3, one checksummed
//!   line record per message (hello/heartbeat/cell/done per child
//!   state, with silence, deadline and EOF as first-class events);
//! - [`journal`] — the WAL lifecycle of one grid point
//!   (scheduled → attempts → completed/failed/interrupted) and the
//!   replay projection a `--resume` applies to any WAL prefix;
//! - [`job`] — the controller job lifecycle
//!   (queued/running/draining/done/failed/cancelled).
//!
//! Each protocol is a pure transition function over small `Copy` types,
//! and [`explore`](explore::explore) drives every machine through every
//! event interleaving it declares physically possible — child death,
//! torn WAL tails, duplicate and stale messages, cancellation at every
//! state — asserting that no `(state, event)` pair is unhandled, no
//! non-terminal state deadlocks, and every per-state invariant holds.
//!
//! **The checked model is the shipped code**: `experiments::worker`,
//! `experiments::journal` and `service::controller` dispatch through
//! these same transition functions rather than re-implementing them, so
//! a property the checker proves is a property production has. Like
//! `tidy`, this crate has zero dependencies and sits below everything
//! it verifies.

pub mod explore;
pub mod job;
pub mod journal;
pub mod worker;

pub use explore::{explore, random_walk, Exploration, Machine, ModelError, Step};
pub use job::{job_step, JobEvent, JobMachine, JobPhase, JobState};
pub use journal::{
    event_tag, parse_tag, point_step, replay_of, replay_step, Counters, PointEvent, PointState,
    ReplayClass, SweepEvent, SweepMachine, SweepState, MAX_ATTEMPTS, MODEL_POINTS,
};
pub use worker::{worker_step, DeadReason, WorkerEvent, WorkerMachine, WorkerState};
