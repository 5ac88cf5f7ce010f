//! The immutable static code image and its builder.

use std::fmt;

use crate::{Addr, InstrKind, INSTR_BYTES};

/// Bits of an instruction word below the kind class: the payload.
const CLASS_SHIFT: u32 = 29;
/// Mask of an instruction word's payload.
const PAYLOAD: u32 = (1 << CLASS_SHIFT) - 1;

/// Kind classes, in the top three bits of an instruction word.
const SEQ: u32 = 0;
const COND: u32 = 1;
const JUMP: u32 = 2;
const CALL: u32 = 3;
const RETURN: u32 = 4;
const IND_JUMP: u32 = 5;
const IND_CALL: u32 = 6;
/// The escape class: the payload indexes [`Program::wide`].
const WIDE: u32 = 7;

/// An immutable static program image.
///
/// A `Program` is a contiguous array of instructions starting at a base
/// address, plus an entry point. It answers the one question wrong-path
/// walking needs in O(1): *what instruction is at this PC?*
///
/// # Layout
///
/// Every instruction is one `u32` word: its kind class in the top three
/// bits and, for a direct transfer, its static target in the low 29 bits
/// as a word offset from the base. [`Program::fetch`] and
/// [`Program::iter`] decode words on the fly, so an image costs 4 bytes
/// per instruction. A target below the base or 2²⁹ or more words above
/// it (only an unvalidated image such as
/// [`Program::with_instr_unchecked`] builds one, or an image of 2 GiB)
/// escapes: its word holds the escape class and an index into a side
/// table of whole [`InstrKind`]s. Every `InstrKind` therefore round-trips
/// exactly.
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
#[derive(Clone)]
pub struct Program {
    base: Addr,
    entry: Addr,
    /// One encoded instruction per word (see the layout above).
    words: Vec<u32>,
    /// The escaped instructions, indexed by their words' payloads.
    wide: Vec<InstrKind>,
}

impl Program {
    /// An image at `base` with no instructions yet.
    fn empty(base: Addr) -> Self {
        Program { base, entry: base, words: Vec::new(), wide: Vec::new() }
    }

    /// The instruction at `pc`, or `None` if `pc` is outside the image.
    #[inline]
    pub fn fetch(&self, pc: Addr) -> Option<InstrKind> {
        let idx = pc.raw().checked_sub(self.base.raw())? / INSTR_BYTES;
        self.words.get(idx as usize).map(|&w| self.decode(w))
    }

    /// The instruction with index `i` (its address is `base + 4·i`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn kind_at(&self, i: usize) -> InstrKind {
        self.decode(self.words[i])
    }

    /// Does the image contain `pc`?
    pub fn contains(&self, pc: Addr) -> bool {
        pc >= self.base && pc < self.end()
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
        self.words.len()
    }

    /// Is the image empty? (Never true for a built [`Program`]; kept for
    /// API completeness.)
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The code footprint in bytes (what determines cache pressure).
    pub fn footprint_bytes(&self) -> u64 {
        self.words.len() as u64 * INSTR_BYTES
    }

    /// Heap footprint of the encoded image: 4 bytes per instruction, plus
    /// the escape table.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u32>()
            + self.wide.capacity() * std::mem::size_of::<InstrKind>()
    }

    /// One-past-the-last instruction address.
    pub fn end(&self) -> Addr {
        Addr::new(self.base.raw() + self.footprint_bytes())
    }

    /// Iterates over `(pc, kind)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, InstrKind)> + '_ {
        let base = self.base.word_index();
        self.words
            .iter()
            .enumerate()
            .map(move |(i, &w)| (Addr::from_word(base + i as u64), self.decode(w)))
    }

    /// Count of static control-transfer instructions.
    pub fn static_branch_count(&self) -> usize {
        self.words.iter().filter(|&&w| w >> CLASS_SHIFT != SEQ).count()
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
        if !self.contains(at) {
            return None;
        }
        let idx = ((at.raw() - self.base.raw()) / INSTR_BYTES) as usize;
        let mut program = self.clone();
        program.words[idx] = program.encode(kind);
        Some(program)
    }

    /// Decodes one instruction word.
    #[inline]
    fn decode(&self, w: u32) -> InstrKind {
        // Most words are sequential: testing for them before the class
        // dispatch measured about 10% faster interpretation.
        if w == 0 {
            return InstrKind::Seq;
        }
        let target = Addr::from_word(self.base.word_index() + u64::from(w & PAYLOAD));
        match w >> CLASS_SHIFT {
            SEQ => InstrKind::Seq,
            COND => InstrKind::CondBranch { target },
            JUMP => InstrKind::Jump { target },
            CALL => InstrKind::Call { target },
            RETURN => InstrKind::Return,
            IND_JUMP => InstrKind::IndirectJump,
            IND_CALL => InstrKind::IndirectCall,
            _ => self.escaped(w),
        }
    }

    /// Decodes a word of the escape class.
    #[cold]
    fn escaped(&self, w: u32) -> InstrKind {
        self.wide[(w & PAYLOAD) as usize]
    }

    /// Encodes `kind` as one instruction word, escaping it into the side
    /// table if its target does not fit the payload.
    fn encode(&mut self, kind: InstrKind) -> u32 {
        let class = match kind {
            InstrKind::Seq => SEQ,
            InstrKind::CondBranch { .. } => COND,
            InstrKind::Jump { .. } => JUMP,
            InstrKind::Call { .. } => CALL,
            InstrKind::Return => RETURN,
            InstrKind::IndirectJump => IND_JUMP,
            InstrKind::IndirectCall => IND_CALL,
        };
        let Some(target) = kind.static_target() else {
            return class << CLASS_SHIFT;
        };
        match target.word_index().checked_sub(self.base.word_index()) {
            Some(offset) if offset <= u64::from(PAYLOAD) => class << CLASS_SHIFT | offset as u32,
            _ => {
                let slot = self.wide.len();
                assert!(slot <= PAYLOAD as usize, "too many escaped instructions");
                self.wide.push(kind);
                WIDE << CLASS_SHIFT | slot as u32
            }
        }
    }
}

/// Two images are equal when they hold the same instructions at the same
/// addresses with the same entry, however their escapes are numbered.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
            && self.entry == other.entry
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

impl Eq for Program {}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("base", &self.base)
            .field("entry", &self.entry)
            .field("len", &self.words.len())
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
    /// The image so far, encoded as it grows; its entry is set at
    /// [`ProgramBuilder::finish`].
    image: Program,
    entry: Option<Addr>,
}

impl ProgramBuilder {
    /// Starts an image whose first instruction will live at `base`.
    pub fn new(base: Addr) -> Self {
        ProgramBuilder { image: Program::empty(base), entry: None }
    }

    /// The address the *next* pushed instruction will receive.
    pub fn next_addr(&self) -> Addr {
        self.image.end()
    }

    /// Appends one instruction; returns its address.
    pub fn push(&mut self, kind: InstrKind) -> Addr {
        let at = self.next_addr();
        let w = self.image.encode(kind);
        self.image.words.push(w);
        at
    }

    /// Appends `n` sequential (non-branch) instructions; returns the address
    /// of the first one (equal to [`Self::next_addr`] before the call).
    pub fn push_seq(&mut self, n: usize) -> Addr {
        let first = self.next_addr();
        let words = &mut self.image.words;
        words.resize(words.len() + n, SEQ << CLASS_SHIFT);
        first
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
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
        let Some(kind) = self.image.fetch(at) else {
            panic!("patch address {at} outside image");
        };
        let patched = match kind {
            InstrKind::CondBranch { .. } => InstrKind::CondBranch { target },
            InstrKind::Jump { .. } => InstrKind::Jump { target },
            InstrKind::Call { .. } => InstrKind::Call { target },
            other => panic!("instruction at {at} ({other}) has no patchable target"),
        };
        let idx = ((at.raw() - self.image.base.raw()) / INSTR_BYTES) as usize;
        self.image.words[idx] = self.image.encode(patched);
    }

    /// Validates and freezes the image.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramBuildError`] if the image is empty, the entry point
    /// is missing or out of range, or any direct transfer targets an address
    /// outside the image.
    pub fn finish(self) -> Result<Program, ProgramBuildError> {
        let mut program = self.image;
        if program.is_empty() {
            return Err(ProgramBuildError::Empty);
        }
        let entry = self.entry.ok_or(ProgramBuildError::NoEntry)?;
        if !program.contains(entry) {
            return Err(ProgramBuildError::EntryOutOfRange { entry });
        }
        program.entry = entry;
        for (at, kind) in program.iter() {
            if let Some(target) = kind.static_target() {
                if !program.contains(target) {
                    return Err(ProgramBuildError::TargetOutOfRange { at, target });
                }
            }
        }
        program.words.shrink_to_fit();
        program.wide.shrink_to_fit();
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
    fn every_kind_round_trips_through_its_word() {
        // Targets at the base, in the image, at the largest offset the
        // 29-bit payload holds, and escaping: below the base or past the
        // payload.
        let last = 0x1000 + (1 << 31) - 4;
        let targets = [0x1000, 0x100c, last, 0x0ffc, 0, last + 4, 0xdead_0000, !3];
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let mut want = vec![InstrKind::Seq, InstrKind::Return];
        want.extend([InstrKind::IndirectJump, InstrKind::IndirectCall]);
        for t in targets.map(Addr::new) {
            want.extend([
                InstrKind::CondBranch { target: t },
                InstrKind::Jump { target: t },
                InstrKind::Call { target: t },
            ]);
        }
        for &k in &want {
            b.push(k);
        }
        let kinds: Vec<InstrKind> = b.image.iter().map(|(_, k)| k).collect();
        assert_eq!(kinds, want);
        assert_eq!(b.image.wide.len(), 5 * 3, "five targets escape");
    }

    #[test]
    fn an_image_costs_four_bytes_per_instruction() {
        let p = tiny();
        assert_eq!(p.heap_bytes(), 4 * p.len());
        let q = p.with_instr_unchecked(Addr::new(0x1004), InstrKind::Jump { target: Addr::new(0) });
        let q = q.unwrap();
        assert!(q.heap_bytes() >= 4 * q.len() + std::mem::size_of::<InstrKind>(), "one escape");
    }

    #[test]
    fn patching_re_encodes_and_equality_ignores_escape_numbering() {
        // A target patched out of range and back leaves a stale escape
        // entry; the image still equals one built directly.
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let j = b.push(InstrKind::Jump { target: Addr::new(0) });
        b.push(InstrKind::Seq);
        b.patch_target(j, Addr::new(0x1004));
        b.set_entry(Addr::new(0x1000));
        let patched = b.finish().unwrap();
        assert_eq!(patched.fetch(j), Some(InstrKind::Jump { target: Addr::new(0x1004) }));

        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        b.push(InstrKind::Jump { target: Addr::new(0x1004) });
        b.push(InstrKind::Seq);
        b.set_entry(Addr::new(0x1000));
        let direct = b.finish().unwrap();
        assert_eq!(patched, direct);
        let other = direct.with_instr_unchecked(j, InstrKind::Jump { target: Addr::new(0x1000) });
        assert_ne!(other.unwrap(), direct);
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
