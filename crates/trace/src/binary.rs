//! The compact `.sftb` binary trace format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "SFTB"              4 bytes
//! version u16 = 2
//! base    u64
//! entry   u64
//! n_image u64
//! image records:
//!     opcode u8   0=seq 1=bcond 2=jmp 3=call 4=ret 5=ijmp 6=icall
//!     target u64  (opcodes 1..=3 only)
//! n_path  u64
//! path records:
//!     tag u8      0=not-taken 1=taken 2=indirect
//!     target u64  (tag 2 only)
//! checksum u64    (version >= 2: FNV-1a 64 over every preceding byte)
//! ```
//!
//! The checksum footer (new in version 2) lets readers distinguish a
//! structurally-plausible-but-corrupted file from a valid one: bit flips
//! that survive the structural checks (a perturbed aligned target, a
//! flipped taken bit) still fail verification, and truncation is caught
//! by the missing footer. Version-1 files (no footer) are still read;
//! versions from the future are rejected with a typed error so an old
//! build never misinterprets a newer layout.

use std::io::{Read, Write};

use specfetch_isa::{Addr, InstrKind, ProgramBuilder, INSTR_BYTES};

use crate::predicted::{FileWalk, Record};
use crate::{PredictedTrace, TraceError};

const MAGIC: &[u8; 4] = b"SFTB";
/// The version this build writes.
const VERSION: u16 = 2;
/// The newest version this build can read.
const MAX_READ_VERSION: u16 = 2;

/// Running FNV-1a 64-bit hash — the checksum of the `.sftb` footer.
/// In-repo (no external deps), byte-order independent, and cheap enough
/// to fold into streaming reads and writes.
#[derive(Copy, Clone, Debug)]
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// A writer that folds everything written through it into a checksum.
struct HashWriter<W> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> Write for HashWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hash.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Serialises a trace in the binary format (version 2: with a checksum
/// footer): its image, then one path record per data-dependent transfer.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_trace_binary<W: Write>(trace: &PredictedTrace, w: &mut W) -> Result<(), TraceError> {
    let mut w = HashWriter { inner: w, hash: Fnv64::new() };
    let p = trace.program();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&p.base().raw().to_le_bytes())?;
    w.write_all(&p.entry().raw().to_le_bytes())?;
    w.write_all(&(p.len() as u64).to_le_bytes())?;
    for (_, kind) in p.iter() {
        match kind {
            InstrKind::Seq => w.write_all(&[0])?,
            InstrKind::CondBranch { target } => {
                w.write_all(&[1])?;
                w.write_all(&target.raw().to_le_bytes())?;
            }
            InstrKind::Jump { target } => {
                w.write_all(&[2])?;
                w.write_all(&target.raw().to_le_bytes())?;
            }
            InstrKind::Call { target } => {
                w.write_all(&[3])?;
                w.write_all(&target.raw().to_le_bytes())?;
            }
            InstrKind::Return => w.write_all(&[4])?,
            InstrKind::IndirectJump => w.write_all(&[5])?,
            InstrKind::IndirectCall => w.write_all(&[6])?,
        }
    }
    w.write_all(&(trace.record_count() as u64).to_le_bytes())?;
    for record in trace.records() {
        match record {
            Record::Taken(false) => w.write_all(&[0])?,
            Record::Taken(true) => w.write_all(&[1])?,
            Record::Target(target) => {
                w.write_all(&[2])?;
                w.write_all(&target.raw().to_le_bytes())?;
            }
        }
    }
    // The footer is the hash of everything before it, written raw.
    let sum = w.hash.finish();
    w.inner.write_all(&sum.to_le_bytes())?;
    Ok(())
}

struct Cursor<R> {
    reader: R,
    offset: u64,
    hash: Fnv64,
}

impl<R: Read> Cursor<R> {
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let mut buf = [0u8; N];
        self.reader.read_exact(&mut buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Malformed { at: self.offset, detail: "unexpected end of file".into() }
            } else {
                TraceError::Io(e)
            }
        })?;
        self.offset += N as u64;
        self.hash.update(&buf);
        Ok(buf)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.bytes::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        Ok(u16::from_le_bytes(self.bytes::<2>()?))
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.bytes::<8>()?))
    }

    fn addr(&mut self) -> Result<Addr, TraceError> {
        let at = self.offset;
        let raw = self.u64()?;
        if raw % INSTR_BYTES != 0 {
            return Err(TraceError::Malformed {
                at,
                detail: format!("misaligned address {raw:#x}"),
            });
        }
        Ok(Addr::new(raw))
    }

    /// Reads the raw (unhashed) checksum footer and verifies it against
    /// the running hash of everything read so far.
    fn verify_footer(&mut self) -> Result<(), TraceError> {
        let expected = self.hash.finish();
        let mut buf = [0u8; 8];
        self.reader.read_exact(&mut buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TraceError::Malformed { at: self.offset, detail: "missing checksum footer".into() }
            } else {
                TraceError::Io(e)
            }
        })?;
        let found = u64::from_le_bytes(buf);
        if found != expected {
            return Err(TraceError::Checksum { expected, found });
        }
        Ok(())
    }
}

/// Parses a trace in the binary format, walking its path from the
/// image's entry for at most `max_instrs` instructions.
///
/// Accepts version 1 (no checksum footer, the original layout) and
/// version 2 (checksum-verified); rejects newer versions with
/// [`TraceError::BadHeader`] rather than guessing at their layout. The
/// whole file is read and its checksum verified before a path that
/// disagrees with the image is reported, so a corrupted file reads as
/// corrupted.
///
/// # Errors
///
/// Returns [`TraceError`] on I/O failure, a bad magic/version, a truncated
/// or malformed record, a checksum mismatch, an invalid embedded image,
/// or path records that disagree with the image.
pub fn read_trace_binary<R: Read>(
    reader: R,
    max_instrs: u64,
) -> Result<PredictedTrace, TraceError> {
    let mut c = Cursor { reader, offset: 0, hash: Fnv64::new() };

    let magic: [u8; 4] = c.bytes()?;
    if &magic != MAGIC {
        return Err(TraceError::BadHeader { detail: format!("bad magic {magic:?}") });
    }
    let version = c.u16()?;
    if version == 0 || version > MAX_READ_VERSION {
        return Err(TraceError::BadHeader {
            detail: format!(
                "unsupported trace version {version} (this build reads 1..={MAX_READ_VERSION})"
            ),
        });
    }

    let base = c.addr()?;
    let entry = c.addr()?;
    let n_image = c.u64()?;

    let mut builder = ProgramBuilder::new(base);
    for _ in 0..n_image {
        let at = c.offset;
        let kind = match c.u8()? {
            0 => InstrKind::Seq,
            1 => InstrKind::CondBranch { target: c.addr()? },
            2 => InstrKind::Jump { target: c.addr()? },
            3 => InstrKind::Call { target: c.addr()? },
            4 => InstrKind::Return,
            5 => InstrKind::IndirectJump,
            6 => InstrKind::IndirectCall,
            op => {
                return Err(TraceError::Malformed { at, detail: format!("bad opcode {op}") });
            }
        };
        builder.push(kind);
    }
    builder.set_entry(entry);
    let program = builder.finish()?;

    let n_path = c.u64()?;
    let mut walk = FileWalk::new(program, max_instrs);
    for _ in 0..n_path {
        let at = c.offset;
        walk.push(match c.u8()? {
            0 => Record::Taken(false),
            1 => Record::Taken(true),
            2 => Record::Target(c.addr()?),
            tag => {
                return Err(TraceError::Malformed { at, detail: format!("bad path tag {tag}") });
            }
        });
    }

    if version >= 2 {
        c.verify_footer()?;
    }

    walk.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{read_trace_text, write_trace_text};

    /// Every instruction kind, image[1] a conditional; the path loops
    /// once and leaves through the call and both indirect transfers.
    fn sample_trace() -> PredictedTrace {
        let text = "SFT1 text\nbase 0x2000\nentry 0x2000\nimage 7\ns\nb 0x2000\nc 0x2014\nx\n\
                    j 0x2000\nr\ny\npath 5\nt\nn\n@ 0x200c\n@ 0x2018\n@ 0x2000\nend\n";
        read_trace_text(text.as_bytes(), u64::MAX).unwrap()
    }

    fn read(bytes: &[u8]) -> Result<PredictedTrace, TraceError> {
        read_trace_binary(bytes, u64::MAX)
    }

    fn encoded() -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace_binary(&sample_trace(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace_binary(&t, &mut buf).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!(back, t);
        let mut again = Vec::new();
        write_trace_binary(&back, &mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn binary_is_smaller_than_text() {
        let t = sample_trace();
        let mut bin = Vec::new();
        let mut txt = Vec::new();
        write_trace_binary(&t, &mut bin).unwrap();
        write_trace_text(&t, &mut txt).unwrap();
        assert!(bin.len() < txt.len());
    }

    #[test]
    fn rejects_bad_magic() {
        let e = read(b"NOPE").unwrap_err();
        assert!(matches!(e, TraceError::BadHeader { .. }));
    }

    #[test]
    fn rejects_version_from_the_future() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SFTB");
        buf.extend_from_slice(&9u16.to_le_bytes());
        let e = read(&buf).unwrap_err();
        let TraceError::BadHeader { detail } = &e else { panic!("wrong variant: {e}") };
        assert!(detail.contains("version 9"), "{detail}");
    }

    #[test]
    fn rejects_version_zero() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SFTB");
        buf.extend_from_slice(&0u16.to_le_bytes());
        assert!(matches!(read(&buf), Err(TraceError::BadHeader { .. })));
    }

    #[test]
    fn reads_legacy_version_1_without_footer() {
        // A minimal v1 file, as the pre-checksum writer produced it:
        // one Seq instruction, no outcomes, no footer.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SFTB");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // base
        buf.extend_from_slice(&0u64.to_le_bytes()); // entry
        buf.extend_from_slice(&1u64.to_le_bytes()); // n_image
        buf.push(0); // Seq
        buf.extend_from_slice(&0u64.to_le_bytes()); // n_path
        let t = read(&buf).unwrap();
        assert_eq!(t.program().len(), 1);
        assert_eq!((t.len(), t.record_count()), (1, 0));
    }

    #[test]
    fn counts_far_past_the_end_of_the_file_are_malformed_not_allocated() {
        for (n_image, n_path) in [(1, u64::MAX), (u64::MAX, 0)] {
            let mut buf = Vec::new();
            buf.extend_from_slice(b"SFTB");
            buf.extend_from_slice(&2u16.to_le_bytes());
            buf.extend_from_slice(&0u64.to_le_bytes()); // base
            buf.extend_from_slice(&0u64.to_le_bytes()); // entry
            buf.extend_from_slice(&n_image.to_le_bytes());
            buf.push(0); // Seq
            buf.extend_from_slice(&n_path.to_le_bytes());
            let e = read(&buf).unwrap_err();
            assert!(matches!(e, TraceError::Malformed { .. }), "{e}");
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        let buf = encoded();
        // Any strict prefix must fail (never panic, never succeed) —
        // including the prefix that is only missing the checksum footer.
        for cut in 0..buf.len() {
            let r = read(&buf[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly parsed");
        }
    }

    #[test]
    fn rejects_flipped_checksum_byte() {
        let mut buf = encoded();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let e = read(&buf).unwrap_err();
        assert!(matches!(e, TraceError::Checksum { .. }), "wrong variant: {e}");
    }

    #[test]
    fn rejects_structurally_valid_payload_corruption() {
        // Flip bit 3 (+8) in a target address: stays 4-aligned, so the
        // structural checks pass and only the checksum catches it.
        let mut buf = encoded();
        // First CondBranch target starts after magic(4)+ver(2)+base(8)+
        // entry(8)+n_image(8)+opcode(1)+opcode(1) = 32.
        buf[32] ^= 0x08;
        let e = read(&buf).unwrap_err();
        assert!(matches!(e, TraceError::Checksum { .. }), "wrong variant: {e}");
    }

    #[test]
    fn rejects_bad_opcode() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SFTB");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // base
        buf.extend_from_slice(&0u64.to_le_bytes()); // entry
        buf.extend_from_slice(&1u64.to_le_bytes()); // n_image
        buf.push(99); // bad opcode
        let e = read(&buf).unwrap_err();
        assert!(matches!(e, TraceError::Malformed { .. }));
    }

    #[test]
    fn rejects_misaligned_base() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SFTB");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes()); // misaligned base
        let e = read(&buf).unwrap_err();
        assert!(matches!(e, TraceError::Malformed { .. }));
    }
}
