//! Trace formats and path sources for `specfetch`.
//!
//! The paper gathered its execution paths with ATOM instrumentation and
//! consumed them online. This crate provides the equivalent plumbing:
//!
//! - [`PathSource`]: the simulator's input — a static [`Program`] image plus
//!   a stream of retired correct-path instructions ([`DynInstr`]).
//! - [`PredictedTrace`] / [`PredictedSource`]: record once, replay many —
//!   one compact per-transfer trace of a path, shared by every
//!   configuration that replays it, with the resolve-order conditional
//!   outcome stream alongside (see the [`predicted`](PredictedTrace)
//!   module docs). Because direct control flow is determined by the
//!   image, a path is fully described by its entry point plus a
//!   direction per conditional branch and a successor per return or
//!   indirect transfer; the trace stores only those.
//! - [`read_trace_text`] / [`write_trace_text`] and
//!   [`read_trace_binary`] / [`write_trace_binary`]: the portable `.sft`
//!   trace file formats (human-readable text and compact binary), which
//!   hold the same facts, so traces captured by external tools can be fed
//!   to the simulator. The readers walk the file's records over its image
//!   straight into a [`PredictedTrace`]; [`read_trace_file`] picks between
//!   them by the file's extension.
//! - [`TraceStats`]: the workload-characterisation numbers of the paper's
//!   Table 2 (instruction count, branch mix, taken ratio).
//!
//! [`Program`]: specfetch_isa::Program
//! [`DynInstr`]: specfetch_isa::DynInstr
//!
//! # Examples
//!
//! A two-instruction loop that loops back once, then falls off the image:
//!
//! ```
//! use std::sync::Arc;
//! use specfetch_trace::{read_trace_text, PathSource, PredictedTrace};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let text = "SFT1 text\nbase 0x0\nentry 0x0\nimage 2\ns\nb 0x0\npath 2\nt\nn\nend\n";
//! let trace = Arc::new(read_trace_text(text.as_bytes(), u64::MAX)?);
//! let mut replay = PredictedTrace::source(&trace);
//! let mut pcs = Vec::new();
//! while let Some(d) = replay.next_instr() {
//!     pcs.push(d.pc.raw());
//! }
//! assert_eq!(pcs, vec![0, 4, 0, 4]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod error;
mod file;
mod predicted;
mod source;
mod stats;
mod text;

pub use binary::{read_trace_binary, write_trace_binary};
pub use error::TraceError;
pub use file::{read_trace_file, TraceFileError};
pub use predicted::{DecodeWindow, PredictedSource, PredictedTrace};
pub use source::{PathSource, Take, VecSource};
pub use stats::TraceStats;
pub use text::{read_trace_text, write_trace_text};
