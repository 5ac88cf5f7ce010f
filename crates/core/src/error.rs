//! The shared error type of the whole simulator stack.
//!
//! Every layer above the ISA model reports failures through
//! [`SpecfetchError`]: trace I/O and corruption ([`TraceError`] wrapped),
//! workload generation, isolated grid-point failures (panics captured by
//! the experiment runner), injected faults, and experiment dispatch.
//! Keeping one enum (with no external dependencies) lets the experiment
//! harness thread a single error type from a failing grid cell all the
//! way to the `specfetch-repro` exit code without stringly-typed
//! intermediaries.

use std::fmt;
use std::io;

use specfetch_isa::CfgReport;
use specfetch_trace::TraceError;

/// Any failure surfaced by the simulation or experiment layers.
///
/// The experiment runner isolates failures per grid point: a cell that
/// fails carries one of these, the rest of the grid completes, and
/// reports render the failed cell as `FAILED(<reason>)` (see
/// [`SpecfetchError::cell_reason`]).
#[derive(Debug)]
pub enum SpecfetchError {
    /// A trace failed to parse, verify, or replay.
    Trace(TraceError),
    /// A calibrated workload failed to generate.
    Workload {
        /// The benchmark whose spec failed.
        bench: String,
        /// Human-readable detail from the generator.
        detail: String,
    },
    /// A generated program failed static CFG verification (the
    /// `--analyze` pass or the pre-simulation preflight).
    Analysis {
        /// The benchmark whose image failed.
        bench: String,
        /// The full typed verification report.
        report: CfgReport,
    },
    /// A user-supplied specification (CLI flag grammar, cache directory,
    /// fault plan) was rejected before anything ran.
    InvalidSpec {
        /// What was wrong with it.
        detail: String,
    },
    /// An I/O failure outside trace parsing (cache directory, file
    /// writes).
    Io {
        /// What was being attempted.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// A grid point panicked; the panic was captured and isolated to its
    /// cell instead of aborting the run.
    PointPanic {
        /// The panic payload, rendered as text.
        reason: String,
    },
    /// A fault deliberately injected by the `--inject` harness.
    Injected {
        /// The injected action (`"err"`, `"panic"`, `"slow"`).
        action: &'static str,
    },
    /// A grid point exceeded its `--point-timeout` deadline. Transient:
    /// the supervisor retries it (with backoff) before rendering the
    /// cell as `FAILED(timeout after Ns)`.
    Timeout {
        /// The configured per-point deadline, in seconds.
        seconds: u64,
    },
    /// The run was interrupted by a shutdown request (SIGINT/SIGTERM)
    /// before this point could finish; the point was drained, not
    /// failed, and a `--resume` rerun will recompute it.
    Interrupted,
    /// The parent and a `--worker` child disagreed about the pipe
    /// protocol version (or the handshake was malformed).
    WorkerProtocol {
        /// What was wrong with the handshake.
        detail: String,
    },
    /// An experiment id that the harness does not know.
    UnknownExperiment {
        /// The unrecognised identifier.
        id: String,
    },
    /// An experiment panicked outside any grid point; the panic was
    /// captured so the remaining experiments still run.
    ExperimentPanic {
        /// The experiment that panicked.
        id: String,
        /// The panic payload, rendered as text.
        reason: String,
    },
}

impl SpecfetchError {
    /// The short reason rendered inside a report's `FAILED(...)` cell.
    ///
    /// Deliberately compact: the full [`fmt::Display`] text goes to
    /// stderr when the failure is captured; the cell only needs enough
    /// to identify the failure class (`injected panic`, `trace: ...`).
    pub fn cell_reason(&self) -> String {
        match self {
            SpecfetchError::Trace(e) => format!("trace: {e}"),
            SpecfetchError::Workload { bench, .. } => format!("workload {bench}"),
            SpecfetchError::Analysis { report, .. } => format!("analysis: {}", report.headline()),
            SpecfetchError::InvalidSpec { .. } => "invalid spec".to_owned(),
            SpecfetchError::Io { context, .. } => format!("io: {context}"),
            SpecfetchError::PointPanic { reason } => reason.clone(),
            SpecfetchError::Injected { action } => format!("injected {action}"),
            SpecfetchError::Timeout { seconds } => format!("timeout after {seconds}s"),
            SpecfetchError::Interrupted => "interrupted".to_owned(),
            SpecfetchError::WorkerProtocol { .. } => "worker protocol mismatch".to_owned(),
            SpecfetchError::UnknownExperiment { id } => format!("unknown experiment {id}"),
            SpecfetchError::ExperimentPanic { reason, .. } => reason.clone(),
        }
    }
}

impl fmt::Display for SpecfetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecfetchError::Trace(e) => write!(f, "trace error: {e}"),
            SpecfetchError::Workload { bench, detail } => {
                write!(f, "workload generation failed for {bench:?}: {detail}")
            }
            SpecfetchError::Analysis { bench, report } => {
                write!(f, "static analysis failed for {bench:?}: {report}")
            }
            SpecfetchError::InvalidSpec { detail } => write!(f, "{detail}"),
            SpecfetchError::Io { context, source } => write!(f, "{context}: {source}"),
            SpecfetchError::PointPanic { reason } => {
                write!(f, "grid point panicked: {reason}")
            }
            SpecfetchError::Injected { action } => write!(f, "injected fault: {action}"),
            SpecfetchError::Timeout { seconds } => {
                write!(f, "grid point exceeded its {seconds}s deadline")
            }
            SpecfetchError::Interrupted => write!(f, "interrupted by shutdown request"),
            SpecfetchError::WorkerProtocol { detail } => {
                write!(f, "worker protocol handshake failed: {detail}")
            }
            SpecfetchError::UnknownExperiment { id } => write!(f, "unknown experiment {id:?}"),
            SpecfetchError::ExperimentPanic { id, reason } => {
                write!(f, "experiment {id} panicked: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecfetchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecfetchError::Trace(e) => Some(e),
            SpecfetchError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<TraceError> for SpecfetchError {
    fn from(e: TraceError) -> Self {
        SpecfetchError::Trace(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> Vec<SpecfetchError> {
        vec![
            SpecfetchError::Trace(TraceError::BadHeader { detail: "nope".into() }),
            SpecfetchError::Workload { bench: "li".into(), detail: "spec".into() },
            SpecfetchError::Analysis {
                bench: "li".into(),
                report: CfgReport {
                    instrs: 1,
                    reachable: 1,
                    conditionals: 0,
                    wrong_path_visited: 0,
                    issues: vec![specfetch_isa::CfgIssue::EntryOutOfImage {
                        entry: specfetch_isa::Addr::new(4),
                    }],
                },
            },
            SpecfetchError::InvalidSpec { detail: "bad --inject".into() },
            SpecfetchError::Io { context: "create dir".into(), source: io::Error::other("d") },
            SpecfetchError::PointPanic { reason: "injected panic".into() },
            SpecfetchError::Injected { action: "err" },
            SpecfetchError::Timeout { seconds: 30 },
            SpecfetchError::Interrupted,
            SpecfetchError::WorkerProtocol { detail: "proto 1 != 2".into() },
            SpecfetchError::UnknownExperiment { id: "table99".into() },
            SpecfetchError::ExperimentPanic { id: "table3".into(), reason: "boom".into() },
        ]
    }

    #[test]
    fn display_and_cell_reason_nonempty_for_all_variants() {
        for e in variants() {
            assert!(!e.to_string().is_empty());
            assert!(!e.cell_reason().is_empty());
        }
    }

    #[test]
    fn panic_cell_reason_is_the_payload() {
        let e = SpecfetchError::PointPanic { reason: "injected panic".into() };
        assert_eq!(e.cell_reason(), "injected panic");
        let e = SpecfetchError::Injected { action: "err" };
        assert_eq!(e.cell_reason(), "injected err");
    }

    #[test]
    fn supervision_cell_reasons_are_stable() {
        assert_eq!(SpecfetchError::Timeout { seconds: 30 }.cell_reason(), "timeout after 30s");
        assert_eq!(SpecfetchError::Interrupted.cell_reason(), "interrupted");
        let e = SpecfetchError::WorkerProtocol { detail: "proto 1 != 2".into() };
        assert!(e.to_string().contains("proto 1 != 2"));
    }

    #[test]
    fn trace_errors_convert_and_chain() {
        let e: SpecfetchError = TraceError::BadHeader { detail: "bad magic".into() }.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("bad magic"));
    }
}
