//! The immutable static code image and its builder.

use std::fmt;

use crate::{Addr, InstrKind, INSTR_BYTES};

/// An immutable static program image.
///
/// A `Program` is a contiguous array of instructions starting at a base
/// address, plus an entry point. It answers the one question wrong-path
/// walking needs in O(1): *what instruction is at this PC?*
///
/// Construct one with [`ProgramBuilder`].
///
/// # Examples
///
/// ```
/// use specfetch_isa::{Addr, InstrKind, ProgramBuilder};
///
/// # fn main() -> Result<(), specfetch_isa::ProgramBuildError> {
/// let mut b = ProgramBuilder::new(Addr::new(0));
/// let entry = b.push(InstrKind::Seq);
/// b.push(InstrKind::Jump { target: entry });
/// b.set_entry(entry);
/// let p = b.finish()?;
/// assert!(p.contains(Addr::new(4)));
/// assert!(!p.contains(Addr::new(8)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    base: Addr,
    entry: Addr,
    pub(crate) instrs: Vec<InstrKind>,
}

impl Program {
    /// The instruction at `pc`, or `None` if `pc` is outside the image.
    pub fn fetch(&self, pc: Addr) -> Option<InstrKind> {
        if pc < self.base {
            return None;
        }
        let idx = (pc.raw() - self.base.raw()) / INSTR_BYTES;
        self.instrs.get(idx as usize).copied()
    }

    /// Does the image contain `pc`?
    pub fn contains(&self, pc: Addr) -> bool {
        self.fetch(pc).is_some()
    }

    /// The lowest instruction address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The execution entry point.
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Is the image empty? (Never true for a built [`Program`]; kept for
    /// API completeness.)
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// The code footprint in bytes (what determines cache pressure).
    pub fn footprint_bytes(&self) -> u64 {
        self.instrs.len() as u64 * INSTR_BYTES
    }

    /// One-past-the-last instruction address.
    pub fn end(&self) -> Addr {
        Addr::new(self.base.raw() + self.footprint_bytes())
    }

    /// Iterates over `(pc, kind)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, InstrKind)> + '_ {
        let base = self.base;
        self.instrs
            .iter()
            .enumerate()
            .map(move |(i, &k)| (Addr::new(base.raw() + i as u64 * INSTR_BYTES), k))
    }

    /// Count of static control-transfer instructions.
    pub fn static_branch_count(&self) -> usize {
        self.instrs.iter().filter(|k| k.is_branch()).count()
    }

    /// A copy of the image with the instruction at `at` replaced,
    /// bypassing [`ProgramBuilder::finish`] validation, or `None` if `at`
    /// lies outside the image.
    ///
    /// This deliberately skips the target-containment checks so the
    /// static CFG verifier (and its tests, and the `repro
    /// --corrupt-target` diagnostics hook) can construct structurally
    /// broken images on purpose. Simulation code must never call it.
    #[must_use]
    pub fn with_instr_unchecked(&self, at: Addr, kind: InstrKind) -> Option<Program> {
        if at < self.base {
            return None;
        }
        let idx = ((at.raw() - self.base.raw()) / INSTR_BYTES) as usize;
        let mut instrs = self.instrs.clone();
        *instrs.get_mut(idx)? = kind;
        Some(Program { base: self.base, entry: self.entry, instrs })
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("base", &self.base)
            .field("entry", &self.entry)
            .field("len", &self.instrs.len())
            .field("branches", &self.static_branch_count())
            .finish()
    }
}

/// Error returned by [`ProgramBuilder::finish`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramBuildError {
    /// The image has no instructions.
    Empty,
    /// No entry point was set with [`ProgramBuilder::set_entry`].
    NoEntry,
    /// The entry point lies outside the image.
    EntryOutOfRange {
        /// The offending entry address.
        entry: Addr,
    },
    /// A direct transfer at `at` targets an address outside the image.
    TargetOutOfRange {
        /// The branch address.
        at: Addr,
        /// Its out-of-range target.
        target: Addr,
    },
}

impl fmt::Display for ProgramBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramBuildError::Empty => write!(f, "program image is empty"),
            ProgramBuildError::NoEntry => write!(f, "no entry point set"),
            ProgramBuildError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry} is outside the image")
            }
            ProgramBuildError::TargetOutOfRange { at, target } => {
                write!(f, "branch at {at} targets {target} outside the image")
            }
        }
    }
}

impl std::error::Error for ProgramBuildError {}

/// Incrementally builds a [`Program`].
///
/// Instructions are appended at consecutive addresses starting from the
/// base. Forward branches whose destinations are not yet known can be
/// emitted with a placeholder target and patched later via
/// [`ProgramBuilder::patch_target`].
///
/// # Examples
///
/// A forward conditional branch patched once its destination is known:
///
/// ```
/// use specfetch_isa::{Addr, InstrKind, ProgramBuilder};
///
/// # fn main() -> Result<(), specfetch_isa::ProgramBuildError> {
/// let mut b = ProgramBuilder::new(Addr::new(0));
/// let branch = b.push(InstrKind::CondBranch { target: Addr::new(0) });
/// b.push(InstrKind::Seq);
/// let join = b.push(InstrKind::Seq);
/// b.patch_target(branch, join);
/// b.set_entry(Addr::new(0));
/// let p = b.finish()?;
/// assert_eq!(p.fetch(branch), Some(InstrKind::CondBranch { target: join }));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    base: Addr,
    entry: Option<Addr>,
    instrs: Vec<InstrKind>,
}

impl ProgramBuilder {
    /// Starts an image whose first instruction will live at `base`.
    pub fn new(base: Addr) -> Self {
        ProgramBuilder { base, entry: None, instrs: Vec::new() }
    }

    /// The address the *next* pushed instruction will receive.
    pub fn next_addr(&self) -> Addr {
        Addr::new(self.base.raw() + self.instrs.len() as u64 * INSTR_BYTES)
    }

    /// Appends one instruction; returns its address.
    pub fn push(&mut self, kind: InstrKind) -> Addr {
        let at = self.next_addr();
        self.instrs.push(kind);
        at
    }

    /// Appends `n` sequential (non-branch) instructions; returns the address
    /// of the first one (equal to [`Self::next_addr`] before the call).
    pub fn push_seq(&mut self, n: usize) -> Addr {
        let first = self.next_addr();
        self.instrs.extend(std::iter::repeat_n(InstrKind::Seq, n));
        first
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Sets the execution entry point.
    pub fn set_entry(&mut self, entry: Addr) {
        self.entry = Some(entry);
    }

    /// Rewrites the target of the direct transfer at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is outside the image or the instruction there carries
    /// no static target (it is `Seq`, a return, or indirect) — both are
    /// builder-logic bugs, not recoverable conditions.
    pub fn patch_target(&mut self, at: Addr, target: Addr) {
        let idx = ((at.raw() - self.base.raw()) / INSTR_BYTES) as usize;
        let Some(slot) = self.instrs.get_mut(idx) else {
            panic!("patch address {at} outside image");
        };
        match slot {
            InstrKind::CondBranch { target: t }
            | InstrKind::Jump { target: t }
            | InstrKind::Call { target: t } => *t = target,
            other => panic!("instruction at {at} ({other}) has no patchable target"),
        }
    }

    /// Validates and freezes the image.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramBuildError`] if the image is empty, the entry point
    /// is missing or out of range, or any direct transfer targets an address
    /// outside the image.
    pub fn finish(self) -> Result<Program, ProgramBuildError> {
        if self.instrs.is_empty() {
            return Err(ProgramBuildError::Empty);
        }
        let entry = self.entry.ok_or(ProgramBuildError::NoEntry)?;
        let program = Program { base: self.base, entry, instrs: self.instrs };
        if !program.contains(entry) {
            return Err(ProgramBuildError::EntryOutOfRange { entry });
        }
        for (at, kind) in program.iter() {
            if let Some(target) = kind.static_target() {
                if !program.contains(target) {
                    return Err(ProgramBuildError::TargetOutOfRange { at, target });
                }
            }
        }
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let entry = b.push_seq(3);
        b.push(InstrKind::CondBranch { target: entry });
        b.set_entry(entry);
        b.finish().unwrap()
    }

    #[test]
    fn fetch_in_and_out_of_range() {
        let p = tiny();
        assert_eq!(p.fetch(Addr::new(0x1000)), Some(InstrKind::Seq));
        assert_eq!(
            p.fetch(Addr::new(0x100c)),
            Some(InstrKind::CondBranch { target: Addr::new(0x1000) })
        );
        assert_eq!(p.fetch(Addr::new(0x1010)), None);
        assert_eq!(p.fetch(Addr::new(0xffc)), None);
    }

    #[test]
    fn geometry() {
        let p = tiny();
        assert_eq!(p.len(), 4);
        assert_eq!(p.footprint_bytes(), 16);
        assert_eq!(p.base(), Addr::new(0x1000));
        assert_eq!(p.end(), Addr::new(0x1010));
        assert_eq!(p.entry(), Addr::new(0x1000));
        assert_eq!(p.static_branch_count(), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn iter_yields_addresses_in_order() {
        let p = tiny();
        let addrs: Vec<_> = p.iter().map(|(a, _)| a.raw()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1004, 0x1008, 0x100c]);
    }

    #[test]
    fn builder_next_addr_tracks_pushes() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        assert_eq!(b.next_addr(), Addr::new(0));
        b.push(InstrKind::Seq);
        assert_eq!(b.next_addr(), Addr::new(4));
        b.push_seq(2);
        assert_eq!(b.next_addr(), Addr::new(12));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn empty_image_is_an_error() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.set_entry(Addr::new(0));
        assert_eq!(b.finish().unwrap_err(), ProgramBuildError::Empty);
    }

    #[test]
    fn missing_entry_is_an_error() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push(InstrKind::Seq);
        assert_eq!(b.finish().unwrap_err(), ProgramBuildError::NoEntry);
    }

    #[test]
    fn entry_out_of_range_is_an_error() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push(InstrKind::Seq);
        b.set_entry(Addr::new(0x100));
        assert!(matches!(b.finish().unwrap_err(), ProgramBuildError::EntryOutOfRange { .. }));
    }

    #[test]
    fn dangling_target_is_an_error() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push(InstrKind::Jump { target: Addr::new(0x4000) });
        b.set_entry(Addr::new(0));
        assert!(matches!(b.finish().unwrap_err(), ProgramBuildError::TargetOutOfRange { .. }));
    }

    #[test]
    fn patch_target_rewrites() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let j = b.push(InstrKind::Jump { target: Addr::new(0) });
        let dest = b.push(InstrKind::Seq);
        b.patch_target(j, dest);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        assert_eq!(p.fetch(j), Some(InstrKind::Jump { target: dest }));
    }

    #[test]
    #[should_panic]
    fn patch_non_branch_panics() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        let s = b.push(InstrKind::Seq);
        b.patch_target(s, Addr::new(0));
    }

    #[test]
    fn with_instr_unchecked_replaces_without_validation() {
        let p = tiny();
        let bad = Addr::new(0xdead_0000);
        let q = p.with_instr_unchecked(Addr::new(0x1004), InstrKind::Jump { target: bad }).unwrap();
        assert_eq!(q.fetch(Addr::new(0x1004)), Some(InstrKind::Jump { target: bad }));
        // The rest of the image and the entry are untouched.
        assert_eq!(q.entry(), p.entry());
        assert_eq!(q.fetch(Addr::new(0x1000)), p.fetch(Addr::new(0x1000)));
        assert!(p.with_instr_unchecked(Addr::new(0x2000), InstrKind::Seq).is_none());
        assert!(p.with_instr_unchecked(Addr::new(0x0ffc), InstrKind::Seq).is_none());
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ProgramBuildError> = vec![
            ProgramBuildError::Empty,
            ProgramBuildError::NoEntry,
            ProgramBuildError::EntryOutOfRange { entry: Addr::new(4) },
            ProgramBuildError::TargetOutOfRange { at: Addr::new(0), target: Addr::new(8) },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
