//! Trace formats, replay, and path sources for `specfetch`.
//!
//! The paper gathered its execution paths with ATOM instrumentation and
//! consumed them online. This crate provides the equivalent plumbing:
//!
//! - [`PathSource`]: the simulator's input — a static [`Program`] image plus
//!   a stream of retired correct-path instructions ([`DynInstr`]).
//! - [`Outcome`] / [`Replay`]: a compact representation of a dynamic path.
//!   Because direct control flow is determined by the image, a path is fully
//!   described by its entry point plus one outcome per *data-dependent*
//!   transfer (a taken/not-taken bit per conditional branch, a target per
//!   return or indirect transfer). `Replay` expands that stream back into
//!   `DynInstr`s.
//! - [`read_trace_text`] / [`write_trace_text`] and
//!   [`read_trace_binary`] / [`write_trace_binary`]: the portable `.sft`
//!   trace file formats (human-readable text and compact binary), so traces
//!   captured by external tools can be fed to the simulator.
//!   [`read_trace_file`] picks between them by the file's extension.
//! - [`PredictedTrace`] / [`PredictedSource`]: record once, replay many —
//!   one compact per-transfer trace of a path, recorded in a single pass
//!   and shared by every configuration that replays it, with the
//!   resolve-order conditional outcome stream alongside (see the
//!   [`predicted`](PredictedTrace) module docs).
//! - [`TraceStats`]: the workload-characterisation numbers of the paper's
//!   Table 2 (instruction count, branch mix, taken ratio).
//!
//! # Examples
//!
//! Describe a two-iteration loop by its outcomes and replay it:
//!
//! ```
//! use specfetch_isa::{Addr, InstrKind, ProgramBuilder};
//! use specfetch_trace::{Outcome, PathSource, Replay};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new(Addr::new(0));
//! let top = b.push(InstrKind::Seq);
//! b.push(InstrKind::CondBranch { target: top });
//! b.set_entry(top);
//! let program = b.finish()?;
//!
//! // Loop back once, then fall through (off the image, ending the trace).
//! let outcomes = vec![Outcome::taken(), Outcome::not_taken()];
//! let mut replay = Replay::new(&program, outcomes.into_iter());
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
mod outcome;
mod predicted;
mod replay;
mod source;
mod stats;
mod text;

pub use binary::{read_trace_binary, write_trace_binary};
pub use error::TraceError;
pub use file::{read_trace_file, TraceFileError};
pub use outcome::Outcome;
pub use predicted::{DecodeWindow, PredictedSource, PredictedTrace};
pub use replay::Replay;
pub use source::{PathSource, Take, VecSource};
pub use stats::TraceStats;
pub use text::{read_trace_text, write_trace_text};

use specfetch_isa::{DynInstr, Program};

/// A fully materialised trace: an image plus its outcome stream.
///
/// This is what the file readers return; convert it into a simulator input
/// with [`Trace::into_source`].
///
/// # Examples
///
/// ```
/// use specfetch_isa::{Addr, InstrKind, ProgramBuilder};
/// use specfetch_trace::{Outcome, PathSource, Trace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new(Addr::new(0));
/// let top = b.push(InstrKind::Seq);
/// b.push(InstrKind::CondBranch { target: top });
/// b.set_entry(top);
/// let trace = Trace::new(b.finish()?, vec![Outcome::not_taken()]);
/// let mut source = trace.into_source();
/// assert_eq!(source.next_instr().map(|d| d.pc), Some(Addr::new(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Trace {
    program: Program,
    outcomes: Vec<Outcome>,
}

impl Trace {
    /// Bundles an image with its recorded outcomes.
    pub fn new(program: Program, outcomes: Vec<Outcome>) -> Self {
        Trace { program, outcomes }
    }

    /// The static image.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The recorded data-dependent outcomes, in execution order.
    pub fn outcomes(&self) -> &[Outcome] {
        &self.outcomes
    }

    /// Converts into a replayable [`PathSource`].
    pub fn into_source(self) -> Replay<'static, std::vec::IntoIter<Outcome>> {
        Replay::from_owned(self.program, self.outcomes.into_iter())
    }

    /// Records a trace by draining `source` (at most `max_instrs`
    /// instructions), capturing the outcome stream needed to replay it.
    pub fn record<S: PathSource>(source: &mut S, max_instrs: u64) -> Self {
        let program = source.program().clone();
        let mut outcomes = Vec::new();
        let mut n = 0u64;
        while n < max_instrs {
            let Some(d) = source.next_instr() else { break };
            n += 1;
            if let Some(o) = Outcome::from_dyn(&d) {
                outcomes.push(o);
            }
        }
        Trace { program, outcomes }
    }
}

/// Extracts the outcome stream from a sequence of retired instructions.
///
/// Inverse of [`Replay`]: `replay(program, outcomes_of(path)) == path` for
/// any path that starts at the program entry.
pub fn outcomes_of<'a>(path: impl IntoIterator<Item = &'a DynInstr>) -> Vec<Outcome> {
    path.into_iter().filter_map(Outcome::from_dyn).collect()
}
