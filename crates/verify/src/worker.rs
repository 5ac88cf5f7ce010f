//! The parent↔child worker protocol, v3, as a typed state machine.
//!
//! Every message is one checksummed line record (`kind=… key=value …
//! sum=<fnv1a>`, the `codec` format of `experiments`). One supervised
//! child moves through: handshake (`kind=hello proto=3`),
//! idle between groups, working a dispatched group (heartbeats and
//! per-point `cell` replies), and either `done` (group complete — even
//! with unfilled slots, which stay transient and are retried) or dead
//! (handshake failure, protocol violation, heartbeat silence, group
//! deadline, or a closed pipe).
//!
//! `experiments::worker` drives every child reply through
//! [`worker_step`] — the model below *is* the shipped dispatch logic.
//! The checker additionally drives hostile events production hopes
//! never to see (duplicate cells, out-of-range indices, garbage lines,
//! EOF at every state) and proves each one lands in a defined state.

use crate::explore::{Machine, Step};

/// Why a child is considered dead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DeadReason {
    /// No (or malformed) `hello` before the handshake timeout/EOF.
    Handshake,
    /// A message that violates the wire protocol.
    Protocol,
    /// No heartbeat within the silence window.
    Hung,
    /// The group overran its `point_timeout × group_size` deadline.
    DeadlineExceeded,
    /// stdout closed (child exited or crashed).
    Pipe,
}

/// One child's protocol state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkerState {
    /// Spawned; waiting for `kind=hello proto=3`.
    AwaitingHello,
    /// Handshake done; no group in flight.
    Idle,
    /// A group of `expected` points is in flight; `filled` distinct
    /// cells have arrived.
    Working { expected: u32, filled: u32 },
    /// The child said `done` for the current group. `filled` may be
    /// short of `expected`: unfilled slots keep their transient
    /// pending reason and are retried elsewhere.
    Complete { expected: u32, filled: u32 },
    /// The child is gone; the supervisor fails over.
    Dead(DeadReason),
}

/// One observable event at a child's stdout (or a supervisor timer).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkerEvent {
    /// A well-formed `hello` with the expected protocol version.
    HelloOk,
    /// A first line that is not a well-formed v3 `hello`.
    HelloBad,
    /// The supervisor sends a group of `points` points.
    Dispatch { points: u32 },
    /// A `hb` keep-alive line.
    Heartbeat,
    /// A `cell` reply. `in_range` is `idx < expected`; `duplicate`
    /// means this index was already filled.
    Cell { in_range: bool, duplicate: bool },
    /// The `done` end-of-group marker.
    Done,
    /// The heartbeat silence window elapsed with no line.
    Silence,
    /// The group deadline elapsed.
    Deadline,
    /// stdout reached EOF.
    Eof,
    /// Any other line.
    Garbage,
}

/// The worker protocol transition function — total over every event
/// [`WorkerMachine::events`] enumerates, and the exact dispatch
/// production uses.
#[must_use]
pub fn worker_step(state: &WorkerState, event: &WorkerEvent) -> Step<WorkerState> {
    use WorkerEvent as E;
    use WorkerState as S;
    match (state, event) {
        // Handshake: exactly one line decides; timers and EOF kill.
        (S::AwaitingHello, E::HelloOk) => Step::Next(S::Idle),
        (S::AwaitingHello, E::HelloBad | E::Garbage) => Step::Next(S::Dead(DeadReason::Handshake)),
        (S::AwaitingHello, E::Silence | E::Eof) => Step::Next(S::Dead(DeadReason::Handshake)),

        // Idle / Complete: the slot can take another group. A stray
        // heartbeat between groups is harmless; anything else from the
        // child is a protocol violation.
        (S::Idle | S::Complete { .. }, E::Dispatch { points }) if *points >= 1 => {
            Step::Next(S::Working { expected: *points, filled: 0 })
        }
        (S::Idle | S::Complete { .. }, E::Heartbeat) => Step::Stay,
        (S::Idle | S::Complete { .. }, E::Eof) => Step::Next(S::Dead(DeadReason::Pipe)),
        (S::Idle | S::Complete { .. }, E::Garbage) => Step::Next(S::Dead(DeadReason::Protocol)),

        // Working: the heart of the protocol.
        (S::Working { .. }, E::Heartbeat) => Step::Stay,
        (S::Working { expected, filled }, E::Cell { in_range: true, duplicate: false }) => {
            Step::Next(S::Working { expected: *expected, filled: filled + 1 })
        }
        // A duplicate index re-writes the same slot; the fill count
        // must not advance past `expected`.
        (S::Working { .. }, E::Cell { in_range: true, duplicate: true }) => Step::Stay,
        (S::Working { .. }, E::Cell { in_range: false, .. }) => {
            Step::Next(S::Dead(DeadReason::Protocol))
        }
        (S::Working { expected, filled }, E::Done) => {
            Step::Next(S::Complete { expected: *expected, filled: *filled })
        }
        (S::Working { .. }, E::Silence) => Step::Next(S::Dead(DeadReason::Hung)),
        (S::Working { .. }, E::Deadline) => Step::Next(S::Dead(DeadReason::DeadlineExceeded)),
        (S::Working { .. }, E::Eof) => Step::Next(S::Dead(DeadReason::Pipe)),
        (S::Working { .. }, E::Garbage) => Step::Next(S::Dead(DeadReason::Protocol)),

        // Dead is terminal; nothing arrives after failover.
        _ => Step::Unhandled,
    }
}

/// The bounded worker machine the checker explores: groups of up to
/// `max_points` points (production group sizes are unbounded, but the
/// per-event logic never inspects magnitudes, only `filled < expected`,
/// so 3 points exercise every guard).
pub struct WorkerMachine {
    /// Largest group size to enumerate.
    pub max_points: u32,
}

impl Default for WorkerMachine {
    fn default() -> Self {
        Self { max_points: 3 }
    }
}

impl Machine for WorkerMachine {
    type State = WorkerState;
    type Event = WorkerEvent;

    fn initial(&self) -> Vec<WorkerState> {
        vec![WorkerState::AwaitingHello]
    }

    fn events(&self, state: &WorkerState) -> Vec<WorkerEvent> {
        use WorkerEvent as E;
        match state {
            WorkerState::AwaitingHello => vec![E::HelloOk, E::HelloBad, E::Silence, E::Eof],
            WorkerState::Idle | WorkerState::Complete { .. } => {
                let mut ev = vec![E::Heartbeat, E::Eof, E::Garbage];
                for points in 1..=self.max_points {
                    ev.push(E::Dispatch { points });
                }
                ev
            }
            WorkerState::Working { expected, filled } => {
                let mut ev = vec![
                    E::Heartbeat,
                    E::Cell { in_range: false, duplicate: false },
                    E::Done,
                    E::Silence,
                    E::Deadline,
                    E::Eof,
                    E::Garbage,
                ];
                if filled < expected {
                    ev.push(E::Cell { in_range: true, duplicate: false });
                }
                if *filled > 0 {
                    ev.push(E::Cell { in_range: true, duplicate: true });
                }
                ev
            }
            WorkerState::Dead(_) => Vec::new(),
        }
    }

    fn step(&self, state: &WorkerState, event: &WorkerEvent) -> Step<WorkerState> {
        worker_step(state, event)
    }

    fn is_terminal(&self, state: &WorkerState) -> bool {
        matches!(state, WorkerState::Dead(_))
    }

    fn check(&self, state: &WorkerState) -> Result<(), String> {
        match state {
            WorkerState::Working { expected, filled }
            | WorkerState::Complete { expected, filled } => {
                if filled > expected {
                    return Err(format!("filled {filled} exceeds group size {expected}"));
                }
                if *expected == 0 || *expected > self.max_points {
                    return Err(format!("group size {expected} outside 1..={}", self.max_points));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}
