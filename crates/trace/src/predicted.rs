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
//! two control transfers the path is straight-line code, so the whole
//! stream follows from:
//!
//! - the PC of the first instruction, and the instruction count;
//! - per control transfer, in trace order: its trace index (`at`), its
//!   kind class with the taken bit, its static target word, and the word
//!   of its actual successor (`next`).
//!
//! Instruction `idx` after transfer `k - 1` sits at
//! `next[k-1] + 4·(idx − at[k-1] − 1)`, and the sequential run starting
//! there is `at[k] − idx` long. That is 13 bytes per transfer and nothing
//! per sequential instruction: a few bytes per instruction at the suite's
//! branch densities.
//!
//! The trace also keeps the resolve-order conditional direction stream.
//! This is the *predictor-outcome* layer: under resolve-time history
//! update the global history register is a pure function of this stream,
//! so an engine replaying the trace can assert its live predictor state
//! against `specfetch_bpred::OutcomeReplay` independently of cache
//! timing. (Fetch-time predictor state — BTB/RAS contents, speculative
//! history — is deliberately *not* precomputed: it depends on wrong-path
//! fetch volume and therefore on cache geometry; see DESIGN.md.)
//!
//! The trace depends on the path alone — no cache or predictor parameters
//! — so one `Arc<PredictedTrace>` serves every grid point of a benchmark.
//! [`PredictedSource`]'s [`PathSource::predicted`] hook hands engines the
//! shared trace, and its [`PredictedSource::run_len`] tells a fetch
//! engine how many upcoming instructions need no branch machinery.
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

use crate::PathSource;

/// Transfer-kind classes, packed one byte per transfer with [`TAKEN`].
const CLASS_COND: u8 = 0;
const CLASS_JUMP: u8 = 1;
const CLASS_CALL: u8 = 2;
const CLASS_RETURN: u8 = 3;
const CLASS_IND_JUMP: u8 = 4;
const CLASS_IND_CALL: u8 = 5;

/// The taken bit of a transfer's class byte.
const TAKEN: u8 = 0x80;

/// Sentinel target word for transfers with no static target.
const NO_TARGET: u32 = u32::MAX;

/// One recorded correct path, stored per control transfer.
///
/// Created by [`PredictedTrace::record`]; replayed by any number of
/// [`PredictedSource`]s (see [`PredictedTrace::source`]). See the
/// [module docs](self) for the layout and the reconstruction argument.
#[derive(Clone, PartialEq, Debug)]
pub struct PredictedTrace {
    program: Arc<Program>,
    /// Number of recorded instructions.
    len: usize,
    /// Word index of the first instruction.
    first: u32,
    /// Per transfer, in trace order: its trace index.
    at: Vec<u32>,
    /// Per transfer: kind class (`CLASS_*`), with [`TAKEN`] set when the
    /// transfer was taken.
    class: Vec<u8>,
    /// Per transfer: static target word, [`NO_TARGET`] for returns and
    /// indirect transfers.
    target: Vec<u32>,
    /// Per transfer: word index of the actual successor.
    next: Vec<u32>,
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
    /// Panics if the stream is not successor-consistent (an instruction
    /// that does not start where its predecessor said fetch goes next, or
    /// a non-transfer that does not fall through), or if a PC's word index
    /// or the instruction count exceeds `u32::MAX`.
    pub fn record<S: PathSource>(source: &mut S, max_instrs: u64) -> Self {
        let program = source.shared_program();
        let mut trace = PredictedTrace {
            first: word32(program.entry()),
            program,
            len: 0,
            at: Vec::new(),
            class: Vec::new(),
            target: Vec::new(),
            next: Vec::new(),
            cond_taken: Vec::new(),
            n_conds: 0,
        };
        let mut expect: Option<Addr> = None;
        while (trace.len as u64) < max_instrs {
            let Some(d) = source.next_instr() else { break };
            if expect.is_none() {
                trace.first = word32(d.pc);
            } else if expect != Some(d.pc) {
                inconsistent(&d, "does not start where its predecessor went");
            }
            expect = Some(d.next_pc);
            assert!(trace.len < u32::MAX as usize, "trace exceeds u32 instruction indices");
            let idx = trace.len as u32;
            trace.len += 1;
            let (class, target) = match d.kind {
                InstrKind::Seq => {
                    if d.taken || d.next_pc != d.pc.next() {
                        inconsistent(&d, "is not a transfer but does not fall through");
                    }
                    continue;
                }
                InstrKind::CondBranch { target } => (CLASS_COND, word32(target)),
                InstrKind::Jump { target } => (CLASS_JUMP, word32(target)),
                InstrKind::Call { target } => (CLASS_CALL, word32(target)),
                InstrKind::Return => (CLASS_RETURN, NO_TARGET),
                InstrKind::IndirectJump => (CLASS_IND_JUMP, NO_TARGET),
                InstrKind::IndirectCall => (CLASS_IND_CALL, NO_TARGET),
            };
            trace.at.push(idx);
            trace.class.push(if d.taken { class | TAKEN } else { class });
            trace.target.push(target);
            trace.next.push(word32(d.next_pc));
            if class == CLASS_COND {
                if trace.n_conds.is_multiple_of(64) {
                    trace.cond_taken.push(0);
                }
                if let Some(w) = trace.cond_taken.last_mut() {
                    *w |= u64::from(d.taken) << (trace.n_conds % 64);
                }
                trace.n_conds += 1;
            }
        }
        trace.at.shrink_to_fit();
        trace.class.shrink_to_fit();
        trace.target.shrink_to_fit();
        trace.next.shrink_to_fit();
        trace.cond_taken.shrink_to_fit();
        trace
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

    /// Direction of the `k`-th conditional (resolve order).
    #[inline]
    pub fn cond_taken(&self, k: usize) -> bool {
        debug_assert!(k < self.n_conds, "conditional ordinal out of range");
        self.cond_taken[k / 64] >> (k % 64) & 1 == 1
    }

    /// Heap footprint of the trace (excluding the shared image).
    pub fn heap_bytes(&self) -> usize {
        self.at.capacity() * std::mem::size_of::<u32>()
            + self.class.capacity()
            + self.target.capacity() * std::mem::size_of::<u32>()
            + self.next.capacity() * std::mem::size_of::<u32>()
            + self.cond_taken.capacity() * std::mem::size_of::<u64>()
    }

    /// A fresh replay cursor at the head of a shared trace.
    pub fn source(trace: &Arc<PredictedTrace>) -> PredictedSource {
        PredictedSource {
            trace: Arc::clone(trace),
            idx: 0,
            ord: 0,
            pc: Addr::from_word(u64::from(trace.first)),
            run_end: trace.transfer_at(0),
        }
    }

    /// Number of transfers in `start..end`.
    pub fn branches_in(&self, start: usize, end: usize) -> usize {
        let before = |idx: usize| self.at.partition_point(|&a| (a as usize) < idx);
        before(end).saturating_sub(before(start))
    }

    /// Materialises instructions `start..end` into a [`DecodeWindow`].
    /// `start_ord` must be the number of transfers before `start`
    /// (callers advance it with [`PredictedTrace::branches_in`]).
    pub fn decode_window(&self, start: usize, end: usize, start_ord: usize) -> DecodeWindow {
        debug_assert_eq!(start_ord, self.branches_in(0, start), "window ordinal out of sync");
        let end = end.min(self.len);
        let mut instrs = Vec::with_capacity(end.saturating_sub(start));
        let mut ord = start_ord;
        for idx in start..end {
            // The PC follows the last transfer before `idx`.
            let (base, from) = match ord.checked_sub(1) {
                None => (self.first, 0),
                Some(k) => (self.next[k], self.at[k] as usize + 1),
            };
            let pc = Addr::from_word(u64::from(base) + (idx - from) as u64);
            if self.transfer_at(ord) == idx {
                instrs.push(self.transfer(ord, pc));
                ord += 1;
            } else {
                instrs.push(DynInstr::seq(pc));
            }
        }
        DecodeWindow { start, instrs }
    }

    /// Trace index of the `ord`-th transfer, or [`PredictedTrace::len`]
    /// when the trace has no more transfers.
    #[inline]
    fn transfer_at(&self, ord: usize) -> usize {
        self.at.get(ord).map_or(self.len, |&a| a as usize)
    }

    /// Rebuilds the `ord`-th transfer, which sits at `pc`.
    #[inline]
    fn transfer(&self, ord: usize, pc: Addr) -> DynInstr {
        let class = self.class[ord];
        let target = Addr::from_word(u64::from(self.target[ord]));
        let kind = match class & !TAKEN {
            CLASS_COND => InstrKind::CondBranch { target },
            CLASS_JUMP => InstrKind::Jump { target },
            CLASS_CALL => InstrKind::Call { target },
            CLASS_RETURN => InstrKind::Return,
            CLASS_IND_JUMP => InstrKind::IndirectJump,
            CLASS_IND_CALL => InstrKind::IndirectCall,
            c => unreachable!("invalid branch class {c}"),
        };
        let next_pc = Addr::from_word(u64::from(self.next[ord]));
        DynInstr { pc, kind, taken: class & TAKEN != 0, next_pc }
    }
}

/// The panic of [`PredictedTrace::record`] on a stream that is not
/// successor-consistent, kept out of the recording loop.
#[cold]
#[inline(never)]
fn inconsistent(d: &DynInstr, what: &str) -> ! {
    panic!("stream is not successor-consistent: {d} {what}")
}

fn word32(pc: Addr) -> u32 {
    let word = pc.word_index();
    assert!(word <= u64::from(u32::MAX), "image exceeds u32 word indices");
    word as u32
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
    /// Trace index of the next instruction.
    idx: usize,
    /// Number of transfers before `idx`.
    ord: usize,
    /// PC of instruction `idx`.
    pc: Addr,
    /// Trace index of transfer `ord` (`len` when none is left).
    run_end: usize,
}

impl PredictedSource {
    /// The trace this cursor walks.
    pub fn trace(&self) -> &Arc<PredictedTrace> {
        &self.trace
    }

    /// Trace index of the next instruction.
    #[inline]
    pub fn position(&self) -> usize {
        self.idx
    }

    /// The next instruction, without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<DynInstr> {
        if self.idx < self.run_end {
            Some(DynInstr::seq(self.pc))
        } else {
            (self.idx < self.trace.len).then(|| self.trace.transfer(self.ord, self.pc))
        }
    }

    /// Number of non-transfer instructions from the cursor to the next
    /// transfer (or the end of the trace); zero at a transfer.
    #[inline]
    pub fn run_len(&self) -> usize {
        self.run_end - self.idx
    }

    /// Steps past `n` non-transfer instructions (`n <= run_len()`).
    #[inline]
    pub fn skip(&mut self, n: usize) {
        debug_assert!(n <= self.run_len(), "skip crosses a transfer");
        self.idx += n;
        self.pc = Addr::from_word(self.pc.word_index() + n as u64);
    }

    /// Steps past the next instruction, whatever its kind.
    #[inline]
    pub fn step(&mut self) {
        if self.idx < self.run_end {
            self.skip(1);
        } else if self.idx < self.trace.len {
            self.pc = Addr::from_word(u64::from(self.trace.next[self.ord]));
            self.idx += 1;
            self.ord += 1;
            self.run_end = self.trace.transfer_at(self.ord);
        }
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

    fn predicted(&self) -> Option<&Arc<PredictedTrace>> {
        Some(&self.trace)
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
        let advertised = s.predicted().expect("the cursor exposes its trace");
        assert!(Arc::ptr_eq(advertised, &trace));
        assert!(VecSource::new(p.clone(), path(&p)).predicted().is_none());
    }

    #[test]
    fn the_trace_stores_thirteen_bytes_per_transfer() {
        let p = program();
        let trace = record(&p, u64::MAX);
        let transfers = path(&p).iter().filter(|d| d.is_branch()).count();
        assert_eq!(trace.heap_bytes(), 13 * transfers + 8);
    }
}
