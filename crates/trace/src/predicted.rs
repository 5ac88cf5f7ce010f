//! Record once, replay many: one compact trace of a correct path, shared
//! by every configuration that replays it.
//!
//! The paper's evaluation is a large cross-product: 13 benchmarks × 5
//! policies × several sweep axes, every cell consuming the *same*
//! correct-path stream under a different front end. [`PredictedTrace`]
//! records one interpretation in a single pass, and any number of
//! [`PredictedSource`] cursors replay it concurrently, each handing the
//! engine the same shared [`Program`] image.
//!
//! # Layout
//!
//! Retired streams are *successor-consistent*: `next_pc` of instruction
//! `i` equals `pc` of instruction `i + 1` (the engine's redirect logic
//! depends on this, and [`PredictedTrace::record`] asserts it). Between
//! two control transfers the path is straight-line code, and a transfer's
//! kind and static target are the image's instruction at its PC. So the
//! trace stores only what the image cannot tell:
//!
//! - the PC of the first instruction, and the instruction count;
//! - per control transfer, in trace order, its trace index (`at`,
//!   4 bytes);
//! - per conditional, its direction: one bit of the resolve-order
//!   bitstream below;
//! - per return or indirect transfer, its actual successor (4 bytes). A
//!   direct transfer's successor is its target when taken and its
//!   fall-through when not.
//!
//! PCs are stored as word offsets from the image base, so an image may
//! sit anywhere in the address space.
//!
//! A walk reads the transfer at its PC from the image, then its
//! direction or successor from the trace. Instruction `idx` after
//! transfer `k - 1` sits at `succ(k-1) + 4·(idx − at[k-1] − 1)`, and the
//! sequential run starting there is `at[k] − idx` long. That is 4 bytes
//! per transfer, 4 more per return or indirect transfer, and nothing per
//! sequential instruction: about 5 bytes per transfer at the suite's
//! branch mixes.
//!
//! The conditional direction stream doubles as the *predictor-outcome*
//! layer: under resolve-time history update the global history register
//! is a pure function of this stream, so an engine replaying the trace
//! can assert its live predictor state against
//! `specfetch_bpred::OutcomeReplay` independently of cache timing. (Fetch-time predictor state — BTB/RAS contents, speculative
//! history — is deliberately *not* precomputed: it depends on wrong-path
//! fetch volume and therefore on cache geometry; see DESIGN.md.)
//!
//! A trace file holds the same facts: the image, then one record per
//! conditional (its direction) and per return or indirect transfer (its
//! successor). [`crate::read_trace_text`] and [`crate::read_trace_binary`]
//! feed those records to one walk here, which follows the image from its
//! entry and builds the trace directly; the writers emit them back from
//! the trace.
//!
//! The trace depends on the path alone — no cache or predictor parameters
//! — so one `Arc<PredictedTrace>` serves every grid point of a benchmark.
//! Each engine walks it with its own [`PredictedSource`], whose
//! [`PredictedSource::run_len`] tells the engine how many upcoming
//! instructions need no branch machinery.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use specfetch_isa::{Addr, DynInstr, InstrKind, ProgramBuilder};
//! use specfetch_trace::{PathSource, PredictedTrace, VecSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new(Addr::new(0));
//! let top = b.push(InstrKind::Seq);
//! b.push(InstrKind::CondBranch { target: top });
//! b.set_entry(top);
//! let program = b.finish()?;
//! let path = vec![
//!     DynInstr::seq(Addr::new(0)),
//!     DynInstr::branch(Addr::new(4), InstrKind::CondBranch { target: top }, true, top),
//!     DynInstr::seq(Addr::new(0)),
//! ];
//! let mut live = VecSource::new(program, path.clone());
//! let trace = Arc::new(PredictedTrace::record(&mut live, u64::MAX));
//!
//! // Replays (any number, on any thread) reproduce the stream exactly.
//! let mut replay = PredictedTrace::source(&trace);
//! for want in &path {
//!     assert_eq!(replay.next_instr().as_ref(), Some(want));
//! }
//! assert!(replay.next_instr().is_none());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use specfetch_isa::{Addr, DynInstr, InstrKind, Program};

use crate::{PathSource, TraceError};

/// One recorded correct path, stored per control transfer.
///
/// Created by [`PredictedTrace::record`]; replayed by any number of
/// [`PredictedSource`]s (see [`PredictedTrace::source`]). See the
/// [module docs](self) for the layout and the reconstruction argument.
#[derive(Clone, PartialEq, Debug)]
pub struct PredictedTrace {
    program: Arc<Program>,
    /// Word index of the image base; `first` and `succ` are offsets
    /// from it.
    base: u64,
    /// Number of recorded instructions.
    len: usize,
    /// Word offset of the first instruction.
    first: u32,
    /// Per transfer, in trace order: its trace index.
    at: Vec<u32>,
    /// Per return or indirect transfer, in trace order: word offset of
    /// its actual successor.
    succ: Vec<u32>,
    /// Conditional direction bits in resolve order (= trace order),
    /// packed 64 per word.
    cond_taken: Vec<u64>,
    /// Number of conditionals in the trace.
    n_conds: usize,
}

impl PredictedTrace {
    /// Drains `source` (at most `max_instrs` instructions) in one pass
    /// into a trace that replays the identical [`DynInstr`] stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream cannot be replayed from the trace and the
    /// image: it is not successor-consistent (an instruction that does not
    /// start where its predecessor said fetch goes next, or a non-transfer
    /// that does not fall through), a transfer's kind differs from the
    /// image's instruction at its PC, an unconditional transfer is not
    /// taken, or a direct transfer does not go to its target when taken
    /// and to its fall-through when not. Also panics if the instruction
    /// count exceeds `u32::MAX`, or a PC lies below the image base or
    /// `u32::MAX` words or more above it.
    pub fn record<P: PathSource>(source: &mut P, max_instrs: u64) -> Self {
        let mut trace = PredictedTrace::empty(source.shared_program());
        let mut expect: Option<Addr> = None;
        while (trace.len as u64) < max_instrs {
            let Some(d) = source.next_instr() else { break };
            if expect.is_none() {
                trace.first = trace.offset(d.pc);
            } else if expect != Some(d.pc) {
                inconsistent(
                    &d,
                    "does not start where its predecessor went (not successor-consistent)",
                );
            }
            expect = Some(d.next_pc);
            assert!(trace.len < u32::MAX as usize, "trace exceeds u32 instruction indices");
            if !d.kind.is_branch() {
                if d.taken || d.next_pc != d.pc.next() {
                    inconsistent(&d, "is not a transfer but does not fall through");
                }
            } else if trace.program.fetch(d.pc) != Some(d.kind) {
                inconsistent(&d, "differs from the image's instruction at its PC");
            } else if d.kind.is_unconditional() && !d.taken {
                inconsistent(&d, "is unconditional but not taken");
            } else if d
                .kind
                .static_target()
                .is_some_and(|target| d.next_pc != if d.taken { target } else { d.pc.next() })
            {
                inconsistent(&d, "is direct but misses its target or fall-through");
            }
            trace.push(d.kind, d.taken, d.next_pc);
        }
        trace.shrink();
        trace
    }

    /// A trace of no instructions, starting at the image's entry.
    fn empty(program: Arc<Program>) -> Self {
        let mut trace = PredictedTrace {
            base: program.base().word_index(),
            first: 0,
            program,
            len: 0,
            at: Vec::new(),
            succ: Vec::new(),
            cond_taken: Vec::new(),
            n_conds: 0,
        };
        trace.first = trace.offset(trace.program.entry());
        trace
    }

    /// Word offset of `pc` from the image base.
    #[inline]
    fn offset(&self, pc: Addr) -> u32 {
        pc.word_index()
            .checked_sub(self.base)
            .and_then(|w| u32::try_from(w).ok())
            .unwrap_or_else(|| panic!("{pc} is outside the image's u32 word offsets"))
    }

    /// Appends the next instruction, already checked against the image:
    /// its kind, direction and successor.
    #[inline]
    fn push(&mut self, kind: InstrKind, taken: bool, next_pc: Addr) {
        let idx = self.len as u32;
        self.len += 1;
        if !kind.is_branch() {
            return;
        }
        self.at.push(idx);
        if kind.static_target().is_none() {
            let succ = self.offset(next_pc);
            self.succ.push(succ);
        } else if kind.is_conditional() {
            if self.n_conds.is_multiple_of(64) {
                self.cond_taken.push(0);
            }
            if let Some(w) = self.cond_taken.last_mut() {
                *w |= u64::from(taken) << (self.n_conds % 64);
            }
            self.n_conds += 1;
        }
    }

    fn shrink(&mut self) {
        self.at.shrink_to_fit();
        self.succ.shrink_to_fit();
        self.cond_taken.shrink_to_fit();
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The trace itself. Kept for the benchmark ledger, which still asks
    /// for the recording underneath an overlay.
    pub fn base(&self) -> &Self {
        self
    }

    /// The shared static image.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Number of conditional branches in the trace.
    pub fn cond_count(&self) -> usize {
        self.n_conds
    }

    /// Number of data-dependent transfers in the trace (conditionals,
    /// returns and indirect transfers): one path record each in a trace
    /// file.
    pub fn record_count(&self) -> usize {
        self.n_conds + self.succ.len()
    }

    /// The trace's path records in trace order: a conditional's
    /// direction, or a return's or indirect transfer's successor.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let mut walk = self.head();
        std::iter::from_fn(move || loop {
            walk.skip(walk.run_end - walk.idx);
            let d = walk.peek(self)?;
            walk.step(self);
            if d.kind.is_conditional() {
                return Some(Record::Taken(d.taken));
            }
            if d.kind.static_target().is_none() {
                return Some(Record::Target(d.next_pc));
            }
        })
    }

    /// Direction of the `k`-th conditional (resolve order).
    #[inline]
    pub fn cond_taken(&self, k: usize) -> bool {
        debug_assert!(k < self.n_conds, "conditional ordinal out of range");
        self.cond_taken[k / 64] >> (k % 64) & 1 == 1
    }

    /// Heap footprint of the trace (excluding the shared image).
    pub fn heap_bytes(&self) -> usize {
        self.at.capacity() * std::mem::size_of::<u32>()
            + self.succ.capacity() * std::mem::size_of::<u32>()
            + self.cond_taken.capacity() * std::mem::size_of::<u64>()
    }

    /// A fresh replay cursor at the head of a shared trace.
    pub fn source(trace: &Arc<PredictedTrace>) -> PredictedSource {
        PredictedSource { walk: trace.head(), trace: Arc::clone(trace) }
    }

    /// Number of transfers in `start..end`.
    pub fn branches_in(&self, start: usize, end: usize) -> usize {
        let before = |idx: usize| self.at.partition_point(|&a| (a as usize) < idx);
        before(end).saturating_sub(before(start))
    }

    /// Materialises instructions `start..end` into a [`DecodeWindow`].
    /// `start_ord` must be the number of transfers before `start`
    /// (callers advance it with [`PredictedTrace::branches_in`]).
    ///
    /// The walk to `start` begins at the head of the trace, a step per
    /// run: only the benchmark ledger's decode probe calls this.
    pub fn decode_window(&self, start: usize, end: usize, start_ord: usize) -> DecodeWindow {
        debug_assert_eq!(start_ord, self.branches_in(0, start), "window ordinal out of sync");
        let end = end.min(self.len);
        let mut walk = self.head();
        while walk.idx < start {
            match walk.run_end.min(start) - walk.idx {
                0 => walk.step(self),
                n => walk.skip(n),
            }
        }
        let mut instrs = Vec::with_capacity(end.saturating_sub(start));
        while walk.idx < end {
            match walk.run_end.min(end) - walk.idx {
                0 => {
                    instrs.push(self.transfer(&walk));
                    walk.step(self);
                }
                n => {
                    let pc = walk.pc.word_index();
                    instrs.extend((pc..pc + n as u64).map(|w| DynInstr::seq(Addr::from_word(w))));
                    walk.skip(n);
                }
            }
        }
        DecodeWindow { start, instrs }
    }

    /// A walk at the head of the trace.
    fn head(&self) -> Walk {
        let pc = Addr::from_word(self.base + u64::from(self.first));
        Walk { idx: 0, ord: 0, cond: 0, ind: 0, pc, run_end: self.transfer_at(0) }
    }

    /// Trace index of the `ord`-th transfer, or [`PredictedTrace::len`]
    /// when the trace has no more transfers.
    #[inline]
    fn transfer_at(&self, ord: usize) -> usize {
        self.at.get(ord).map_or(self.len, |&a| a as usize)
    }

    /// Rebuilds the transfer `walk` stands at: its kind and static target
    /// from the image, its direction and successor from the trace.
    #[inline]
    fn transfer(&self, walk: &Walk) -> DynInstr {
        let pc = walk.pc;
        let kind = self.program.fetch(pc).unwrap_or(InstrKind::Seq);
        debug_assert!(kind.is_branch(), "recorded transfer at {pc} is no transfer in the image");
        let (taken, next_pc) = match kind.static_target() {
            Some(target) => {
                let taken = !kind.is_conditional() || self.cond_taken(walk.cond);
                (taken, if taken { target } else { pc.next() })
            }
            None => (true, Addr::from_word(self.base + u64::from(self.succ[walk.ind]))),
        };
        DynInstr { pc, kind, taken, next_pc }
    }
}

/// The panic of [`PredictedTrace::record`] on a stream it cannot replay,
/// kept out of the recording loop.
#[cold]
#[inline(never)]
fn inconsistent(d: &DynInstr, what: &str) -> ! {
    panic!("stream cannot be replayed from its trace and image: {d} {what}")
}

/// One record of a trace file's path section.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Record {
    /// A conditional branch's direction: `true` if taken.
    Taken(bool),
    /// A return's or indirect transfer's successor.
    Target(Addr),
}

/// Builds a [`PredictedTrace`] from an image and a trace file's path
/// records, fed one at a time as a reader decodes them.
///
/// The walk follows the image from its entry: sequential instructions
/// and direct transfers advance by themselves, each conditional takes a
/// direction record, and each return or indirect transfer a successor
/// record. It stops at `max_instrs` instructions (later records are
/// read but not walked), at a data-dependent transfer once the records
/// have run out, or at the end of the image. Anything else is a
/// [`TraceError`]: a record of the wrong kind, a successor outside the
/// image, records left at the image end, a stretch without records
/// longer than the image (which can only be a loop that never ends) or
/// more than `u32::MAX` instructions. The first error sticks, so a
/// reader can finish the file (and check its checksum) before reporting
/// it.
pub(crate) struct FileWalk {
    trace: PredictedTrace,
    pc: Addr,
    max_instrs: u64,
    /// Instructions walked since the last record.
    stretch: usize,
    error: Option<TraceError>,
}

impl FileWalk {
    pub(crate) fn new(program: Program, max_instrs: u64) -> Self {
        let pc = program.entry();
        let trace = PredictedTrace::empty(Arc::new(program));
        FileWalk { trace, pc, max_instrs, stretch: 0, error: None }
    }

    /// Walks to the next data-dependent transfer and applies `record`
    /// there.
    pub(crate) fn push(&mut self, record: Record) {
        if self.error.is_none() {
            self.error = self.walk(Some(record)).err();
        }
    }

    /// Walks on without records to where the path ends.
    pub(crate) fn finish(mut self) -> Result<PredictedTrace, TraceError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.walk(None)?;
        self.trace.shrink();
        Ok(self.trace)
    }

    fn walk(&mut self, record: Option<Record>) -> Result<(), TraceError> {
        let program = Arc::clone(&self.trace.program);
        while (self.trace.len as u64) < self.max_instrs {
            let pc = self.pc;
            // The entry, direct targets and walked successors all lie in
            // the image, so only a fall-through reaches past it: its end.
            let Some(kind) = program.fetch(pc) else {
                return match record {
                    Some(_) => Err(TraceError::RecordsPastEnd { pc }),
                    None => Ok(()),
                };
            };
            // (direction, successor, whether the record was used)
            let (taken, next, used) = match (kind, record) {
                (InstrKind::Seq, _) => (false, pc.next(), false),
                (InstrKind::Jump { target } | InstrKind::Call { target }, _) => {
                    (true, target, false)
                }
                (_, None) => return Ok(()),
                (InstrKind::CondBranch { target }, Some(Record::Taken(taken))) => {
                    (taken, if taken { target } else { pc.next() }, true)
                }
                (
                    InstrKind::Return | InstrKind::IndirectJump | InstrKind::IndirectCall,
                    Some(Record::Target(target)),
                ) => {
                    if !program.contains(target) {
                        return Err(TraceError::WalkedOffImage { pc: target });
                    }
                    (true, target, true)
                }
                (_, Some(_)) => return Err(TraceError::RecordMismatch { pc }),
            };
            if self.trace.len == u32::MAX as usize {
                return Err(TraceError::PathTooLong);
            }
            self.trace.push(kind, taken, next);
            self.pc = next;
            if used {
                self.stretch = 0;
                return Ok(());
            }
            self.stretch += 1;
            if self.stretch > program.len() {
                return Err(TraceError::EndlessLoop { pc });
            }
        }
        Ok(())
    }
}

/// A position in a [`PredictedTrace`]: the walk a [`PredictedSource`]
/// and [`PredictedTrace::decode_window`] share.
#[derive(Clone, Debug)]
struct Walk {
    /// Trace index of the next instruction.
    idx: usize,
    /// Number of transfers before `idx`.
    ord: usize,
    /// Number of conditionals before `idx`.
    cond: usize,
    /// Number of returns and indirect transfers before `idx`.
    ind: usize,
    /// PC of instruction `idx`.
    pc: Addr,
    /// Trace index of transfer `ord` (`len` when none is left).
    run_end: usize,
}

impl Walk {
    #[inline]
    fn peek(&self, trace: &PredictedTrace) -> Option<DynInstr> {
        if self.idx < self.run_end {
            Some(DynInstr::seq(self.pc))
        } else {
            (self.idx < trace.len).then(|| trace.transfer(self))
        }
    }

    #[inline]
    fn skip(&mut self, n: usize) {
        debug_assert!(n <= self.run_end - self.idx, "skip crosses a transfer");
        self.idx += n;
        self.pc = Addr::from_word(self.pc.word_index() + n as u64);
    }

    #[inline]
    fn step(&mut self, trace: &PredictedTrace) {
        if self.idx < self.run_end {
            self.skip(1);
        } else if self.idx < trace.len {
            let d = trace.transfer(self);
            if d.kind.is_conditional() {
                self.cond += 1;
            } else if d.kind.static_target().is_none() {
                self.ind += 1;
            }
            self.pc = d.next_pc;
            self.idx += 1;
            self.ord += 1;
            self.run_end = trace.transfer_at(self.ord);
        }
    }
}

/// A replay cursor over a shared [`PredictedTrace`].
///
/// Besides the [`PathSource`] contract it exposes the walk itself:
/// [`PredictedSource::peek`], [`PredictedSource::run_len`],
/// [`PredictedSource::skip`] and [`PredictedSource::step`]. The cursor
/// carries the PC of its position and the index of the next transfer, so
/// a sequential instruction reads no trace memory at all.
#[derive(Clone, Debug)]
pub struct PredictedSource {
    trace: Arc<PredictedTrace>,
    walk: Walk,
}

impl PredictedSource {
    /// The trace this cursor walks.
    pub fn trace(&self) -> &Arc<PredictedTrace> {
        &self.trace
    }

    /// Trace index of the next instruction.
    #[inline]
    pub fn position(&self) -> usize {
        self.walk.idx
    }

    /// The next instruction, without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<DynInstr> {
        self.walk.peek(&self.trace)
    }

    /// Number of non-transfer instructions from the cursor to the next
    /// transfer (or the end of the trace); zero at a transfer.
    #[inline]
    pub fn run_len(&self) -> usize {
        self.walk.run_end - self.walk.idx
    }

    /// Steps past `n` non-transfer instructions (`n <= run_len()`).
    #[inline]
    pub fn skip(&mut self, n: usize) {
        self.walk.skip(n);
    }

    /// Steps past the next instruction, whatever its kind.
    #[inline]
    pub fn step(&mut self) {
        self.walk.step(&self.trace);
    }
}

impl PathSource for PredictedSource {
    fn program(&self) -> &Program {
        self.trace.program()
    }

    fn shared_program(&self) -> Arc<Program> {
        Arc::clone(self.trace.program())
    }

    fn next_instr(&mut self) -> Option<DynInstr> {
        let d = self.peek()?;
        self.step();
        Some(d)
    }
}

/// A contiguous pre-materialised window of a [`PredictedTrace`]: the
/// instructions of `start..start + len`, decoded in one pass. Only the
/// benchmark ledger's decode probe builds one; lanes decode from the
/// trace directly.
#[derive(Clone, PartialEq, Debug)]
pub struct DecodeWindow {
    start: usize,
    instrs: Vec<DynInstr>,
}

impl DecodeWindow {
    /// The instruction at trace index `idx`, if the window covers it.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&DynInstr> {
        self.instrs.get(idx.wrapping_sub(self.start))
    }

    /// First trace index covered.
    pub fn start(&self) -> usize {
        self.start
    }

    /// One past the last trace index covered.
    pub fn end(&self) -> usize {
        self.start + self.instrs.len()
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the window covers nothing.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSource;
    use specfetch_isa::ProgramBuilder;

    /// entry: seq; call f; seq×3; bcond->entry; jump entry; (f): seq; ret;
    /// ijump; (g): bcond->h; (h): jump g — the conditional at g targets its
    /// own fall-through.
    fn program() -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let entry = b.push(InstrKind::Seq);
        let call = b.push(InstrKind::Call { target: Addr::new(0x1000) });
        b.push_seq(3);
        b.push(InstrKind::CondBranch { target: entry });
        b.push(InstrKind::Jump { target: entry });
        let f = b.push(InstrKind::Seq);
        b.push(InstrKind::Return);
        b.push(InstrKind::IndirectJump);
        let g = b.push(InstrKind::CondBranch { target: Addr::new(0x1000 + 11 * 4) });
        b.push(InstrKind::Jump { target: g });
        b.patch_target(call, f);
        b.set_entry(entry);
        b.finish().unwrap()
    }

    /// A successor-consistent path exercising every transfer kind: both
    /// conditional directions, a return and an indirect jump with
    /// data-dependent successors, and a conditional whose target is its
    /// own fall-through, taken and not taken.
    fn path(p: &Program) -> Vec<DynInstr> {
        let a = |w: u64| Addr::new(0x1000 + w * 4);
        let br = |w: u64, taken: bool, to: u64| {
            DynInstr::branch(a(w), p.fetch(a(w)).unwrap(), taken, a(to))
        };
        let mut path = vec![DynInstr::seq(a(0)), br(1, true, 7), DynInstr::seq(a(7))];
        path.extend([br(8, true, 2), DynInstr::seq(a(2)), DynInstr::seq(a(3))]);
        path.extend([DynInstr::seq(a(4)), br(5, true, 0)]); // bcond taken
        path.extend([DynInstr::seq(a(0)), br(1, true, 7), DynInstr::seq(a(7))]);
        path.extend([br(8, true, 2), DynInstr::seq(a(2)), DynInstr::seq(a(3))]);
        path.extend([DynInstr::seq(a(4)), br(5, false, 6), br(6, true, 0)]); // not taken, jump
        path.extend([DynInstr::seq(a(0)), br(1, true, 7), DynInstr::seq(a(7))]);
        path.extend([br(8, true, 9), br(9, true, 10)]); // ret to the ijump, ijump
        path.extend([br(10, false, 11), br(11, true, 10)]); // onto its own target, not taken
        path.extend([br(10, true, 11), br(11, true, 10)]); // and taken
        path
    }

    fn record(p: &Program, max: u64) -> Arc<PredictedTrace> {
        let mut live = VecSource::new(p.clone(), path(p));
        Arc::new(PredictedTrace::record(&mut live, max))
    }

    fn replay(trace: &Arc<PredictedTrace>) -> Vec<DynInstr> {
        let mut s = PredictedTrace::source(trace);
        std::iter::from_fn(|| s.next_instr()).collect()
    }

    #[test]
    fn replay_is_identical_to_the_live_stream() {
        let p = program();
        let want = path(&p);
        let trace = record(&p, u64::MAX);
        assert_eq!(trace.len(), want.len());
        assert_eq!(replay(&trace), want);
        let mut s = PredictedTrace::source(&trace);
        while s.next_instr().is_some() {}
        assert!(s.next_instr().is_none(), "an exhausted cursor stays exhausted");
    }

    #[test]
    fn every_truncation_replays_its_prefix() {
        // Cuts after a transfer (its successor survives in `next`) and
        // after a sequential instruction alike.
        let p = program();
        let want = path(&p);
        for n in 0..=want.len() {
            let trace = record(&p, n as u64);
            assert_eq!(trace.len(), n);
            assert_eq!(replay(&trace), want[..n], "cut at {n}");
        }
    }

    #[test]
    fn the_empty_trace_yields_nothing() {
        let p = program();
        let trace = record(&p, 0);
        assert!(trace.is_empty());
        assert_eq!(trace.cond_count(), 0);
        assert_eq!(trace.heap_bytes(), 0);
        let mut s = PredictedTrace::source(&trace);
        assert_eq!(s.run_len(), 0);
        assert!(s.peek().is_none());
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn run_lengths_count_to_the_next_transfer() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let want = path(&p);
        let mut s = PredictedTrace::source(&trace);
        for (idx, d) in want.iter().enumerate() {
            let run = want[idx..].iter().take_while(|d| !d.is_branch()).count();
            assert_eq!(s.run_len(), run, "at {idx}");
            assert_eq!(s.position(), idx);
            assert_eq!(s.peek().as_ref(), Some(d));
            s.step();
        }
    }

    #[test]
    fn skipping_a_run_lands_where_stepping_does() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let mut skipper = PredictedTrace::source(&trace);
        let mut stepper = PredictedTrace::source(&trace);
        while skipper.peek().is_some() {
            let n = skipper.run_len().max(1);
            if skipper.run_len() > 0 {
                skipper.skip(n);
            } else {
                skipper.step();
            }
            for _ in 0..n {
                stepper.step();
            }
            assert_eq!(skipper.position(), stepper.position());
            assert_eq!(skipper.peek(), stepper.peek());
        }
    }

    #[test]
    fn cond_stream_is_in_trace_order() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let directions: Vec<bool> = (0..trace.cond_count()).map(|k| trace.cond_taken(k)).collect();
        assert_eq!(directions, [true, false, false, true]);
    }

    #[test]
    fn decode_windows_match_the_cursor() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let want = path(&p);
        for start in 0..want.len() {
            let ord = trace.branches_in(0, start);
            let w = trace.decode_window(start, start + 5, ord);
            assert_eq!(w.start(), start);
            assert_eq!(w.end(), (start + 5).min(want.len()));
            for (idx, d) in want.iter().enumerate().take(w.end()).skip(start) {
                assert_eq!(w.get(idx), Some(d), "window at {start}, index {idx}");
            }
        }
        assert_eq!(trace.branches_in(0, want.len()), want.iter().filter(|d| d.is_branch()).count());
    }

    #[test]
    fn conditional_bits_pack_across_word_boundaries() {
        // 0: seq; 1: bcond->0; 2: jump 0, with > 64 conditionals.
        let mut b = ProgramBuilder::new(Addr::new(0));
        let top = b.push(InstrKind::Seq);
        let cond = b.push(InstrKind::CondBranch { target: top });
        let jump = b.push(InstrKind::Jump { target: top });
        b.set_entry(top);
        let p = b.finish().unwrap();
        let mut want = Vec::new();
        for i in 0..100 {
            want.push(DynInstr::seq(top));
            if i % 3 == 2 {
                want.push(DynInstr::branch(cond, p.fetch(cond).unwrap(), false, jump));
                want.push(DynInstr::branch(jump, p.fetch(jump).unwrap(), true, top));
            } else {
                want.push(DynInstr::branch(cond, p.fetch(cond).unwrap(), true, top));
            }
        }
        let mut live = VecSource::new(p.clone(), want.clone());
        let trace = Arc::new(PredictedTrace::record(&mut live, u64::MAX));
        assert_eq!(replay(&trace), want);
        assert_eq!(trace.cond_count(), 100);
        for k in 0..100 {
            assert_eq!(trace.cond_taken(k), k % 3 != 2, "conditional {k}");
        }
    }

    #[test]
    fn long_runs_are_one_run() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(300);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        let path: Vec<DynInstr> = (0..300).map(|w| DynInstr::seq(Addr::from_word(w))).collect();
        let mut live = VecSource::new(p, path.clone());
        let trace = Arc::new(PredictedTrace::record(&mut live, u64::MAX));
        assert_eq!(PredictedTrace::source(&trace).run_len(), 300);
        assert_eq!(
            trace.heap_bytes(),
            0,
            "a path without transfers stores nothing per instruction"
        );
        assert_eq!(replay(&trace), path);
    }

    #[test]
    fn an_image_above_u32_words_replays() {
        // PCs are stored as offsets from the base, so a base past 2^34
        // bytes records and replays like any other.
        let base = Addr::new(0x7fff_0000_0000);
        let mut b = ProgramBuilder::new(base);
        b.push(InstrKind::Call { target: base.offset_words(2) });
        b.push(InstrKind::Jump { target: base });
        b.push(InstrKind::Return);
        b.set_entry(base);
        let p = b.finish().unwrap();
        let br = |w: i64, to: i64| {
            let at = base.offset_words(w);
            DynInstr::branch(at, p.fetch(at).unwrap(), true, base.offset_words(to))
        };
        let path = vec![br(0, 2), br(2, 1), br(1, 0), br(0, 2), br(2, 1)];
        let trace = Arc::new(PredictedTrace::record(&mut VecSource::new(p, path.clone()), 9));
        assert_eq!(replay(&trace), path);
    }

    #[test]
    #[should_panic(expected = "successor-consistent")]
    fn record_rejects_a_stream_that_jumps_without_a_transfer() {
        let p = program();
        let path = vec![DynInstr::seq(Addr::new(0x1000)), DynInstr::seq(Addr::new(0x1008))];
        PredictedTrace::record(&mut VecSource::new(p, path), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "fall through")]
    fn record_rejects_a_non_transfer_that_does_not_fall_through() {
        let p = program();
        let bad = DynInstr { next_pc: Addr::new(0x2000), ..DynInstr::seq(Addr::new(0x1000)) };
        PredictedTrace::record(&mut VecSource::new(p, vec![bad]), u64::MAX);
    }

    #[test]
    fn program_handle_is_shared_not_copied() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let s = PredictedTrace::source(&trace);
        assert!(Arc::ptr_eq(trace.program(), &s.shared_program()));
        assert!(Arc::ptr_eq(s.trace(), &trace));
    }

    #[test]
    fn the_trace_stores_four_bytes_per_transfer_and_four_per_indirect_successor() {
        // Kinds and static targets come from the image; the trace keeps
        // each transfer's index, each return's and indirect transfer's
        // successor, and one direction bit per conditional (one word here).
        let p = program();
        let trace = record(&p, u64::MAX);
        let want = path(&p);
        let transfers = want.iter().filter(|d| d.is_branch()).count();
        let indirect = want.iter().filter(|d| d.is_branch() && d.kind.static_target().is_none());
        assert_eq!(trace.heap_bytes(), 4 * transfers + 4 * indirect.count() + 8);
    }

    #[test]
    #[should_panic(expected = "differs from the image")]
    fn record_rejects_a_transfer_the_image_does_not_hold() {
        // The image has a call at 0x1004; the stream claims a jump there.
        let p = program();
        let at = Addr::new(0x1004);
        let bad = DynInstr::branch(at, InstrKind::Jump { target: Addr::new(0x101c) }, true, at);
        let path = vec![DynInstr::seq(Addr::new(0x1000)), bad];
        PredictedTrace::record(&mut VecSource::new(p, path), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "unconditional but not taken")]
    fn record_rejects_an_unconditional_transfer_that_is_not_taken() {
        let p = program();
        let at = Addr::new(0x1004);
        let kind = p.fetch(at).unwrap();
        let call = DynInstr { pc: at, kind, taken: false, next_pc: at.next() };
        let path = vec![DynInstr::seq(Addr::new(0x1000)), call];
        PredictedTrace::record(&mut VecSource::new(p, path), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "misses its target or fall-through")]
    fn record_rejects_a_direct_transfer_that_goes_elsewhere() {
        // The call at 0x1004 targets 0x101c but the stream lands at 0x1008.
        let p = program();
        let at = Addr::new(0x1004);
        let call = DynInstr::branch(at, p.fetch(at).unwrap(), true, Addr::new(0x1008));
        let path = vec![DynInstr::seq(Addr::new(0x1000)), call];
        PredictedTrace::record(&mut VecSource::new(p, path), u64::MAX);
    }
}
