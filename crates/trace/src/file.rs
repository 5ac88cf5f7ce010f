//! Loading a trace file by its extension: `.sft` is the text format,
//! `.sftb` the binary one, and anything else is rejected by name.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};

use crate::{read_trace_binary, read_trace_text, Trace, TraceError};

/// Why [`read_trace_file`] could not load a file. Every variant names
/// the file it is about.
#[derive(Debug)]
pub enum TraceFileError {
    /// The extension is neither `.sft` nor `.sftb`.
    UnknownExtension(PathBuf),
    /// The file could not be opened.
    Open(PathBuf, io::Error),
    /// The contents are not a valid trace in the format the extension
    /// names.
    Parse(PathBuf, TraceError),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::UnknownExtension(path) => {
                write!(f, "unknown trace extension on {} (expected .sft or .sftb)", path.display())
            }
            TraceFileError::Open(path, e) => write!(f, "open {}: {e}", path.display()),
            TraceFileError::Parse(path, e) => write!(f, "parse {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::UnknownExtension(_) => None,
            TraceFileError::Open(_, e) => Some(e),
            TraceFileError::Parse(_, e) => Some(e),
        }
    }
}

/// Reads a whole trace file, choosing the format by extension: `.sft`
/// is text ([`read_trace_text`]) and `.sftb` is binary
/// ([`read_trace_binary`]).
///
/// # Errors
///
/// [`TraceFileError::UnknownExtension`] before touching the file if the
/// extension is neither; otherwise the open or parse failure, tagged
/// with the path.
pub fn read_trace_file(path: &Path) -> Result<Trace, TraceFileError> {
    let binary = match path.extension().and_then(|e| e.to_str()) {
        Some("sft") => false,
        Some("sftb") => true,
        _ => return Err(TraceFileError::UnknownExtension(path.to_owned())),
    };
    let file = File::open(path).map_err(|e| TraceFileError::Open(path.to_owned(), e))?;
    let reader = BufReader::new(file);
    let trace = if binary { read_trace_binary(reader) } else { read_trace_text(reader) };
    trace.map_err(|e| TraceFileError::Parse(path.to_owned(), e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_trace_binary, write_trace_text, Outcome};
    use specfetch_isa::{Addr, InstrKind, ProgramBuilder};

    fn sample() -> Trace {
        let mut b = ProgramBuilder::new(Addr::new(0x40));
        let top = b.push_seq(2);
        b.push(InstrKind::CondBranch { target: top });
        b.set_entry(top);
        Trace::new(b.finish().unwrap(), vec![Outcome::taken(), Outcome::not_taken()])
    }

    #[test]
    fn both_extensions_load_and_others_are_rejected_by_name() {
        let dir = std::env::temp_dir().join(format!("trace-file-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (text, binary, other) = (dir.join("t.sft"), dir.join("t.sftb"), dir.join("t.bin"));
        write_trace_text(&sample(), &mut File::create(&text).unwrap()).unwrap();
        write_trace_binary(&sample(), &mut File::create(&binary).unwrap()).unwrap();
        std::fs::copy(&binary, &other).unwrap();

        assert_eq!(read_trace_file(&text).unwrap(), sample());
        assert_eq!(read_trace_file(&binary).unwrap(), sample());
        let e = read_trace_file(&other).unwrap_err();
        assert!(matches!(e, TraceFileError::UnknownExtension(_)), "{e}");
        assert!(e.to_string().contains("t.bin"), "{e}");
        // Text read as binary: the extension decides, and the error names the file.
        std::fs::copy(&text, &binary).unwrap();
        let e = read_trace_file(&binary).unwrap_err();
        assert!(e.to_string().starts_with(&format!("parse {}: ", binary.display())), "{e}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_file_is_an_open_error() {
        let e = read_trace_file(Path::new("/nonexistent/x.sftb")).unwrap_err();
        assert!(e.to_string().starts_with("open /nonexistent/x.sftb: "), "{e}");
    }
}
