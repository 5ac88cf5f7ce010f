//! Trace file errors.

use std::fmt;
use std::io;

use specfetch_isa::Addr;

/// Errors from reading or writing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The file is not a recognised `.sft` trace (bad magic/version).
    BadHeader {
        /// Human-readable detail.
        detail: String,
    },
    /// A malformed record at line (text) or byte offset (binary) `at`.
    Malformed {
        /// Line number (text format) or byte offset (binary format).
        at: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// The binary trace's checksum footer did not match its contents —
    /// the file was corrupted after it was written.
    Checksum {
        /// The checksum computed over the bytes actually read.
        expected: u64,
        /// The checksum stored in the file's footer.
        found: u64,
    },
    /// The program image embedded in the trace failed validation.
    BadImage(specfetch_isa::ProgramBuildError),
    /// A path record sends the walk to a PC outside the program image.
    WalkedOffImage {
        /// The out-of-range PC.
        pc: Addr,
    },
    /// A path record of the wrong kind for the instruction at `pc` (a
    /// direction where a successor was needed, or the reverse).
    RecordMismatch {
        /// The instruction the record was meant for.
        pc: Addr,
    },
    /// The walk fell off the end of the image with path records left.
    RecordsPastEnd {
        /// The image end.
        pc: Addr,
    },
    /// The path runs without records for longer than the image: a loop
    /// of direct transfers that never ends, so the file cannot say how
    /// long the recorded run was.
    EndlessLoop {
        /// The instruction at which the stretch outgrew the image.
        pc: Addr,
    },
    /// The path is longer than `u32::MAX` instructions.
    PathTooLong,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadHeader { detail } => write!(f, "bad trace header: {detail}"),
            TraceError::Malformed { at, detail } => write!(f, "malformed trace at {at}: {detail}"),
            TraceError::Checksum { expected, found } => write!(
                f,
                "trace checksum mismatch: contents hash to {expected:#018x} but footer says \
                 {found:#018x} (file corrupted?)"
            ),
            TraceError::BadImage(e) => write!(f, "invalid program image in trace: {e}"),
            TraceError::WalkedOffImage { pc } => {
                write!(f, "path walked off the program image at {pc}")
            }
            TraceError::RecordMismatch { pc } => {
                write!(f, "path record kind mismatch for instruction at {pc}")
            }
            TraceError::RecordsPastEnd { pc } => {
                write!(f, "path records left when the path reached the image end at {pc}")
            }
            TraceError::EndlessLoop { pc } => write!(
                f,
                "path loops without records at {pc} (a stretch longer than the image never ends)"
            ),
            TraceError::PathTooLong => write!(f, "path exceeds u32::MAX instructions"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::BadImage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<specfetch_isa::ProgramBuildError> for TraceError {
    fn from(e: specfetch_isa::ProgramBuildError) -> Self {
        TraceError::BadImage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_for_all_variants() {
        let errs: Vec<TraceError> = vec![
            TraceError::Io(io::Error::other("boom")),
            TraceError::BadHeader { detail: "nope".into() },
            TraceError::Malformed { at: 3, detail: "bad token".into() },
            TraceError::Checksum { expected: 1, found: 2 },
            TraceError::BadImage(specfetch_isa::ProgramBuildError::Empty),
            TraceError::WalkedOffImage { pc: Addr::new(4) },
            TraceError::RecordMismatch { pc: Addr::new(8) },
            TraceError::RecordsPastEnd { pc: Addr::new(12) },
            TraceError::EndlessLoop { pc: Addr::new(16) },
            TraceError::PathTooLong,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn io_error_converts() {
        let e: TraceError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, TraceError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
