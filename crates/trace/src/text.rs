//! The human-readable `.sft` text trace format.
//!
//! ```text
//! SFT1 text
//! base 0x1000
//! entry 0x1000
//! image 4
//! s              # sequential
//! b 0x1008       # conditional branch, taken target
//! j 0x1000       # jump
//! r              # return   (x = indirect jump, y = indirect call,
//!                #           c <addr> = direct call)
//! path 2
//! t              # conditional taken
//! n              # conditional not taken
//! @ 0x1004       # return/indirect target
//! end
//! ```
//!
//! `#` starts a comment; blank lines are ignored.

use std::io::{BufRead, Write};

use specfetch_isa::{Addr, InstrKind, ProgramBuilder};

use crate::predicted::{FileWalk, Record};
use crate::{PredictedTrace, TraceError};

/// Serialises a trace in the text format: its image, then one path
/// record per data-dependent transfer.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_trace_text<W: Write>(trace: &PredictedTrace, w: &mut W) -> Result<(), TraceError> {
    let p = trace.program();
    writeln!(w, "SFT1 text")?;
    writeln!(w, "base {}", p.base())?;
    writeln!(w, "entry {}", p.entry())?;
    writeln!(w, "image {}", p.len())?;
    for (_, kind) in p.iter() {
        match kind {
            InstrKind::Seq => writeln!(w, "s")?,
            InstrKind::CondBranch { target } => writeln!(w, "b {target}")?,
            InstrKind::Jump { target } => writeln!(w, "j {target}")?,
            InstrKind::Call { target } => writeln!(w, "c {target}")?,
            InstrKind::Return => writeln!(w, "r")?,
            InstrKind::IndirectJump => writeln!(w, "x")?,
            InstrKind::IndirectCall => writeln!(w, "y")?,
        }
    }
    writeln!(w, "path {}", trace.record_count())?;
    for record in trace.records() {
        match record {
            Record::Taken(true) => writeln!(w, "t")?,
            Record::Taken(false) => writeln!(w, "n")?,
            Record::Target(target) => writeln!(w, "@ {target}")?,
        }
    }
    writeln!(w, "end")?;
    Ok(())
}

struct Lines<R> {
    reader: R,
    line_no: u64,
    buf: String,
    /// The current meaningful line's byte range in `buf`.
    span: std::ops::Range<usize>,
}

impl<R: BufRead> Lines<R> {
    /// Advances to the next meaningful line (comments stripped, blanks
    /// skipped); `false` at the end of the file.
    fn advance(&mut self) -> Result<bool, TraceError> {
        loop {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                return Ok(false);
            }
            self.line_no += 1;
            let text = &self.buf[..self.buf.find('#').unwrap_or(self.buf.len())];
            let (start, end) = (text.len() - text.trim_start().len(), text.trim_end().len());
            if start < end {
                self.span = start..end;
                return Ok(true);
            }
        }
    }

    /// The current meaningful line and its number.
    fn current(&self) -> (u64, &str) {
        (self.line_no, &self.buf[self.span.clone()])
    }

    /// The next meaningful line; at the end of the file, a malformed-trace
    /// error `missing` at the last line read.
    fn require(&mut self, missing: &str) -> Result<(u64, &str), TraceError> {
        if !self.advance()? {
            return Err(malformed(self.line_no, missing));
        }
        Ok(self.current())
    }
}

fn malformed(at: u64, detail: impl Into<String>) -> TraceError {
    TraceError::Malformed { at, detail: detail.into() }
}

fn parse_addr(at: u64, tok: &str) -> Result<Addr, TraceError> {
    let raw = if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse::<u64>()
    }
    .map_err(|_| malformed(at, format!("bad address {tok:?}")))?;
    if raw % specfetch_isa::INSTR_BYTES != 0 {
        return Err(malformed(at, format!("misaligned address {tok:?}")));
    }
    Ok(Addr::new(raw))
}

fn expect_kv(line: (u64, &str), key: &str) -> Result<Addr, TraceError> {
    let (at, s) = line;
    let rest = s
        .strip_prefix(key)
        .ok_or_else(|| malformed(at, format!("expected `{key} <addr>`, got {s:?}")))?;
    parse_addr(at, rest.trim())
}

/// Parses a trace in the text format, walking its path from the image's
/// entry for at most `max_instrs` instructions.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure, a bad header, a malformed record,
/// an image that fails [`ProgramBuilder::finish`] validation, or path
/// records that disagree with the image.
pub fn read_trace_text<R: BufRead>(
    reader: R,
    max_instrs: u64,
) -> Result<PredictedTrace, TraceError> {
    let mut lines = Lines { reader, line_no: 0, buf: String::new(), span: 0..0 };

    if !lines.advance()? {
        return Err(TraceError::BadHeader { detail: "empty file".into() });
    }
    let (at, header) = lines.current();
    if header != "SFT1 text" {
        return Err(TraceError::BadHeader { detail: format!("line {at}: got {header:?}") });
    }

    let base = {
        let line = lines.require("missing base")?;
        expect_kv(line, "base")?
    };
    let entry = {
        let line = lines.require("missing entry")?;
        expect_kv(line, "entry")?
    };

    let (at, image_hdr) = lines.require("missing image")?;
    let count: usize = image_hdr
        .strip_prefix("image")
        .and_then(|r| r.trim().parse().ok())
        .ok_or_else(|| malformed(at, format!("expected `image <count>`, got {image_hdr:?}")))?;

    let mut builder = ProgramBuilder::new(base);
    for _ in 0..count {
        let (at, s) = lines.require("truncated image")?;
        let mut parts = s.split_whitespace();
        let Some(op) = parts.next() else {
            return Err(malformed(at, "blank instruction record"));
        };
        let arg = parts.next();
        if parts.next().is_some() {
            return Err(malformed(at, format!("trailing tokens in {s:?}")));
        }
        let kind = match (op, arg) {
            ("s", None) => InstrKind::Seq,
            ("b", Some(a)) => InstrKind::CondBranch { target: parse_addr(at, a)? },
            ("j", Some(a)) => InstrKind::Jump { target: parse_addr(at, a)? },
            ("c", Some(a)) => InstrKind::Call { target: parse_addr(at, a)? },
            ("r", None) => InstrKind::Return,
            ("x", None) => InstrKind::IndirectJump,
            ("y", None) => InstrKind::IndirectCall,
            _ => return Err(malformed(at, format!("bad instruction record {s:?}"))),
        };
        builder.push(kind);
    }
    builder.set_entry(entry);
    let program = builder.finish()?;

    let (at, path_hdr) = lines.require("missing path")?;
    let n_records: u64 = path_hdr
        .strip_prefix("path")
        .and_then(|r| r.trim().parse().ok())
        .ok_or_else(|| malformed(at, format!("expected `path <count>`, got {path_hdr:?}")))?;

    let mut walk = FileWalk::new(program, max_instrs);
    for _ in 0..n_records {
        let (at, s) = lines.require("truncated path")?;
        walk.push(match s {
            "t" => Record::Taken(true),
            "n" => Record::Taken(false),
            _ => {
                let rest = s
                    .strip_prefix('@')
                    .ok_or_else(|| malformed(at, format!("bad path record {s:?}")))?;
                Record::Target(parse_addr(at, rest.trim())?)
            }
        });
    }

    let (at, end) = lines.require("missing end marker")?;
    if end != "end" {
        return Err(malformed(at, format!("expected `end`, got {end:?}")));
    }

    walk.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Every instruction kind; the path loops once, leaves through the
    /// call, the indirect jump and the indirect call, and stops at the
    /// conditional it reaches with no records left.
    const SAMPLE: &str = "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 7\ns\nb 0x1000\nc 0x1014\n\
                          x\nj 0x1000\nr\ny\npath 5\nt\nn\n@ 0x100c\n@ 0x1018\n@ 0x1000\nend\n";

    fn read(text: &str) -> Result<PredictedTrace, TraceError> {
        read_trace_text(Cursor::new(text), u64::MAX)
    }

    #[test]
    fn the_path_is_walked_from_the_image_and_written_back_unchanged() {
        let t = read(SAMPLE).unwrap();
        assert_eq!((t.len(), t.cond_count(), t.record_count()), (9, 2, 5));
        let mut buf = Vec::new();
        write_trace_text(&t, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), SAMPLE);
        let capped = read_trace_text(Cursor::new(SAMPLE), 3).unwrap();
        assert_eq!((capped.len(), capped.record_count()), (3, 1));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let noisy =
            SAMPLE.lines().map(|l| format!("{l}  # trailing comment\n\n")).collect::<String>();
        assert_eq!(read(&noisy).unwrap(), read(SAMPLE).unwrap());
    }

    #[test]
    fn rejects_bad_magic() {
        let e = read("SFT9 text\n").unwrap_err();
        assert!(matches!(e, TraceError::BadHeader { .. }));
    }

    #[test]
    fn rejects_empty_file() {
        let e = read("").unwrap_err();
        assert!(matches!(e, TraceError::BadHeader { .. }));
    }

    #[test]
    fn rejects_bad_instruction_record() {
        let e = read("SFT1 text\nbase 0x0\nentry 0x0\nimage 1\nz\npath 0\nend\n").unwrap_err();
        assert!(matches!(e, TraceError::Malformed { .. }));
    }

    #[test]
    fn rejects_misaligned_address() {
        let e = read("SFT1 text\nbase 0x2\n").unwrap_err();
        assert!(matches!(e, TraceError::Malformed { .. }));
    }

    #[test]
    fn counts_far_past_the_end_of_the_file_are_malformed_not_allocated() {
        for text in [
            "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 1\ns\npath 99999999999999\n",
            "SFT1 text\nbase 0x1000\nentry 0x1000\nimage 99999999999999\ns\n",
        ] {
            let e = read(text).unwrap_err();
            assert!(matches!(e, TraceError::Malformed { .. }), "{e}");
        }
    }

    #[test]
    fn a_file_that_ends_inside_a_section_names_its_last_line() {
        for (text, at, detail) in [
            ("SFT1 text\n", 1, "missing base"),
            ("SFT1 text\nbase 0x0\n", 2, "missing entry"),
            ("SFT1 text\nbase 0x0\nentry 0x0\n", 3, "missing image"),
            ("SFT1 text\nbase 0x0\nentry 0x0\nimage 3\ns\ns\n", 6, "truncated image"),
            ("SFT1 text\nbase 0x0\nentry 0x0\nimage 1\ns\n\n# cut\n", 7, "missing path"),
            ("SFT1 text\nbase 0x0\nentry 0x0\nimage 1\ns\npath 2\nt\n", 7, "truncated path"),
            ("SFT1 text\nbase 0x0\nentry 0x0\nimage 1\ns\npath 0\n", 6, "missing end marker"),
        ] {
            match read(text).unwrap_err() {
                TraceError::Malformed { at: got, detail: d } => {
                    assert_eq!((got, d.as_str()), (at, detail), "{text:?}");
                }
                e => panic!("{text:?}: {e}"),
            }
        }
    }

    #[test]
    fn rejects_dangling_branch_target() {
        let e =
            read("SFT1 text\nbase 0x0\nentry 0x0\nimage 1\nb 0x100\npath 0\nend\n").unwrap_err();
        assert!(matches!(e, TraceError::BadImage(_)));
    }
}
