//! Pre-decoded fetch overlay: decode once per trace, replay per config.
//!
//! A sweep cell re-walks its [`RecordedTrace`] through
//! `RecordedSource::next_instr`, which re-fetches every instruction's kind
//! from the shared [`Program`] image — a pointer chase plus a match per
//! retired instruction, repeated identically for every cache size, miss
//! penalty, policy, and speculation depth that shares the trace.
//! [`PredictedTrace`] hoists that work into a one-pass precomputation per
//! recording:
//!
//! - `seq_run` — per instruction, the length of the run of consecutive
//!   non-transfer instructions starting there (saturating at 255; zero
//!   marks a control transfer). A fetch engine reads one byte to learn how
//!   many upcoming slots need no branch machinery at all, and batches them.
//! - per-transfer arrays (trace order) — the kind class and static target,
//!   so branch `DynInstr`s rebuild without touching the `Program` image.
//! - `cond_taken` — the resolve-order conditional direction stream. This
//!   is the *predictor-outcome* layer: under resolve-time history update
//!   the global history register is a pure function of this stream, so an
//!   engine replaying the overlay can assert its live predictor state
//!   against `specfetch_bpred::OutcomeReplay` independently of cache
//!   timing. (Fetch-time predictor state — BTB/RAS contents, speculative
//!   history — is deliberately *not* precomputed: it depends on wrong-path
//!   fetch volume and therefore on cache geometry; see DESIGN.md.)
//!
//! The overlay is keyed by the recording alone — no cache or predictor
//! parameters — so one `Arc<PredictedTrace>` serves every grid point of a
//! benchmark. [`PredictedSource`] replays it as a [`PathSource`] whose
//! [`PathSource::predicted`] hook hands engines the shared overlay.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use specfetch_isa::{Addr, DynInstr, InstrKind, ProgramBuilder};
//! use specfetch_trace::{PathSource, PredictedTrace, RecordedTrace, VecSource};
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
//! let rec = Arc::new(RecordedTrace::record(&mut live, u64::MAX));
//! let overlay = Arc::new(PredictedTrace::build(&rec));
//!
//! let mut replay = PredictedTrace::source(&overlay);
//! for want in &path {
//!     assert_eq!(replay.next_instr().as_ref(), Some(want));
//! }
//! assert!(replay.next_instr().is_none());
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use specfetch_isa::{Addr, DynInstr, InstrKind, Program};

use crate::{PathSource, RecordedTrace};

/// Transfer-kind classes, packed one byte per transfer.
const CLASS_COND: u8 = 0;
const CLASS_JUMP: u8 = 1;
const CLASS_CALL: u8 = 2;
const CLASS_RETURN: u8 = 3;
const CLASS_IND_JUMP: u8 = 4;
const CLASS_IND_CALL: u8 = 5;

/// Sentinel target word for transfers with no static target.
const NO_TARGET: u32 = u32::MAX;

/// A pre-decoded overlay over one [`RecordedTrace`].
///
/// Built once per recording by [`PredictedTrace::build`]; replayed by any
/// number of [`PredictedSource`]s (see [`PredictedTrace::source`]). See
/// the [module docs](self) for the layout.
#[derive(Clone, PartialEq, Debug)]
pub struct PredictedTrace {
    base: Arc<RecordedTrace>,
    /// Per instruction: length of the consecutive-`Seq` run starting here
    /// (saturating at `u8::MAX`), or zero for a control transfer.
    seq_run: Vec<u8>,
    /// Per transfer, in trace order: kind class (`CLASS_*`).
    branch_class: Vec<u8>,
    /// Per transfer, in trace order: static target word, [`NO_TARGET`]
    /// for returns and indirect transfers.
    branch_target: Vec<u32>,
    /// Conditional direction bits in resolve order (= trace order),
    /// packed 64 per word.
    cond_taken: Vec<u64>,
    /// Number of conditionals in the recording.
    n_conds: usize,
}

impl PredictedTrace {
    /// Decodes `base` in one pass into the overlay arrays.
    pub fn build(base: &Arc<RecordedTrace>) -> Self {
        let n = base.len();
        let mut seq_run = vec![0u8; n];
        let mut branch_class = Vec::new();
        let mut branch_target = Vec::new();
        let mut cond_taken: Vec<u64> = Vec::new();
        let mut n_conds = 0usize;

        let mut src = RecordedTrace::source(base);
        let mut i = 0usize;
        while let Some(d) = src.next_instr() {
            match d.kind {
                InstrKind::Seq => seq_run[i] = 1,
                kind => {
                    let (class, target) = match kind {
                        InstrKind::CondBranch { target } => (CLASS_COND, word32(target)),
                        InstrKind::Jump { target } => (CLASS_JUMP, word32(target)),
                        InstrKind::Call { target } => (CLASS_CALL, word32(target)),
                        InstrKind::Return => (CLASS_RETURN, NO_TARGET),
                        InstrKind::IndirectJump => (CLASS_IND_JUMP, NO_TARGET),
                        InstrKind::IndirectCall => (CLASS_IND_CALL, NO_TARGET),
                        InstrKind::Seq => unreachable!("matched above"),
                    };
                    branch_class.push(class);
                    branch_target.push(target);
                    if matches!(kind, InstrKind::CondBranch { .. }) {
                        if n_conds.is_multiple_of(64) {
                            cond_taken.push(0);
                        }
                        if d.taken {
                            // The push above guarantees a current word.
                            if let Some(w) = cond_taken.last_mut() {
                                *w |= 1 << (n_conds % 64);
                            }
                        }
                        n_conds += 1;
                    }
                }
            }
            i += 1;
        }
        debug_assert_eq!(i, n, "overlay pass must cover the whole recording");

        // Backward pass: extend the per-instruction Seq markers into
        // run lengths ("how far can fetch batch from here").
        for i in (0..n).rev() {
            if seq_run[i] != 0 {
                let next = seq_run.get(i + 1).copied().unwrap_or(0);
                seq_run[i] = next.saturating_add(1);
            }
        }

        branch_class.shrink_to_fit();
        branch_target.shrink_to_fit();
        cond_taken.shrink_to_fit();
        PredictedTrace {
            base: Arc::clone(base),
            seq_run,
            branch_class,
            branch_target,
            cond_taken,
            n_conds,
        }
    }

    /// Number of instructions in the underlying recording.
    pub fn len(&self) -> usize {
        self.seq_run.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.seq_run.is_empty()
    }

    /// The recording this overlay decodes.
    pub fn base(&self) -> &Arc<RecordedTrace> {
        &self.base
    }

    /// The shared static image.
    pub fn program(&self) -> &Arc<Program> {
        self.base.program()
    }

    /// Length of the consecutive-`Seq` run starting at `idx` (saturating
    /// at 255); zero means the instruction is a control transfer.
    #[inline]
    pub fn seq_run(&self, idx: usize) -> u8 {
        self.seq_run[idx]
    }

    /// Number of transfers strictly before `idx` — the branch ordinal a
    /// cursor positioned at `idx` should carry. O(idx); cursors maintain
    /// the ordinal incrementally instead of calling this per step.
    pub fn branches_before(&self, idx: usize) -> usize {
        self.seq_run[..idx].iter().filter(|&&r| r == 0).count()
    }

    /// Number of conditional branches in the recording.
    pub fn cond_count(&self) -> usize {
        self.n_conds
    }

    /// Direction of the `k`-th conditional (resolve order).
    #[inline]
    pub fn cond_taken(&self, k: usize) -> bool {
        debug_assert!(k < self.n_conds, "conditional ordinal out of range");
        self.cond_taken[k / 64] >> (k % 64) & 1 == 1
    }

    /// Approximate heap footprint of the overlay arrays (excluding the
    /// underlying recording and image).
    pub fn heap_bytes(&self) -> usize {
        self.seq_run.capacity()
            + self.branch_class.capacity()
            + self.branch_target.capacity() * std::mem::size_of::<u32>()
            + self.cond_taken.capacity() * std::mem::size_of::<u64>()
    }

    /// A fresh replay cursor over a shared overlay.
    pub fn source(overlay: &Arc<PredictedTrace>) -> PredictedSource {
        PredictedSource { trace: Arc::clone(overlay), idx: 0, branch_ord: 0 }
    }

    /// Number of transfers in `start..end` — lets a caller advance a
    /// branch ordinal from window to window in O(window) instead of
    /// re-counting from the trace head.
    pub fn branches_in(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.len());
        if start >= end {
            return 0;
        }
        self.seq_run[start..end].iter().filter(|&&r| r == 0).count()
    }

    /// Materialises instructions `start..end` into a [`DecodeWindow`] in
    /// one decode pass. `start_ord` must be [`PredictedTrace::branches_before`]
    /// `(start)` (callers advance it incrementally via
    /// [`PredictedTrace::branches_in`]).
    pub fn decode_window(&self, start: usize, end: usize, start_ord: usize) -> DecodeWindow {
        debug_assert_eq!(start_ord, self.branches_before(start), "window ordinal out of sync");
        let end = end.min(self.len());
        let mut instrs = Vec::with_capacity(end.saturating_sub(start));
        let mut ord = start_ord;
        for idx in start..end {
            let d = self.instr_at(idx, ord);
            if d.kind.is_branch() {
                ord += 1;
            }
            instrs.push(d);
        }
        DecodeWindow { start, instrs }
    }

    /// Reconstructs the `idx`-th retired instruction without touching the
    /// `Program` image. `branch_ord` must be the number of transfers
    /// strictly before `idx` (cursors track it incrementally; see
    /// [`PredictedTrace::branches_before`]).
    #[inline]
    pub fn instr_at(&self, idx: usize, branch_ord: usize) -> DynInstr {
        let pc = Addr::from_word(u64::from(self.base.pc_word(idx)));
        if self.seq_run[idx] != 0 {
            return DynInstr::seq(pc);
        }
        let target = self.branch_target[branch_ord];
        let kind = match self.branch_class[branch_ord] {
            CLASS_COND => InstrKind::CondBranch { target: Addr::from_word(u64::from(target)) },
            CLASS_JUMP => InstrKind::Jump { target: Addr::from_word(u64::from(target)) },
            CLASS_CALL => InstrKind::Call { target: Addr::from_word(u64::from(target)) },
            CLASS_RETURN => InstrKind::Return,
            CLASS_IND_JUMP => InstrKind::IndirectJump,
            CLASS_IND_CALL => InstrKind::IndirectCall,
            c => unreachable!("invalid branch class {c}"),
        };
        let taken = self.base.taken_bit(idx);
        DynInstr::branch(pc, kind, taken, self.base.next_pc_of(idx))
    }
}

fn word32(target: Addr) -> u32 {
    let word = target.word_index();
    assert!(word <= u64::from(u32::MAX), "image exceeds u32 word indices");
    word as u32
}

/// A replay cursor over a shared [`PredictedTrace`].
///
/// Implements [`PathSource`] exactly like [`crate::RecordedSource`], but
/// additionally advertises the overlay through [`PathSource::predicted`]
/// so engines can consume the pre-decoded arrays directly.
#[derive(Clone, Debug)]
pub struct PredictedSource {
    trace: Arc<PredictedTrace>,
    idx: usize,
    branch_ord: usize,
}

impl PredictedSource {
    /// The overlay this cursor walks.
    pub fn trace(&self) -> &Arc<PredictedTrace> {
        &self.trace
    }

    /// Fans this cursor out into `n` independent lanes at the same
    /// position — the entry point of config-lockstep batching: the lanes
    /// share the overlay, while each keeps its own position and private
    /// fetch state. Cursors are an `Arc` bump plus two indices, so fan-out is
    /// O(n) regardless of trace length.
    pub fn fan_out(&self, n: usize) -> Vec<PredictedSource> {
        (0..n).map(|_| self.clone()).collect()
    }
}

/// A contiguous pre-materialised window of a [`PredictedTrace`]: the
/// instructions of `start..start + len`, decoded in one pass. Holds
/// exactly what [`PredictedTrace::instr_at`] would produce. Only the
/// benchmark ledger's decode probe builds one; lockstep lanes decode from
/// the overlay directly.
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

impl PathSource for PredictedSource {
    fn program(&self) -> &Program {
        self.trace.program()
    }

    fn shared_program(&self) -> Arc<Program> {
        Arc::clone(self.trace.program())
    }

    fn next_instr(&mut self) -> Option<DynInstr> {
        if self.idx >= self.trace.len() {
            return None;
        }
        let d = self.trace.instr_at(self.idx, self.branch_ord);
        self.idx += 1;
        if d.kind.is_branch() {
            self.branch_ord += 1;
        }
        Some(d)
    }

    fn predicted(&self) -> Option<&Arc<PredictedTrace>> {
        Some(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSource;
    use specfetch_isa::ProgramBuilder;

    /// entry: seq; call f; seq×3; bcond->entry; jump entry; (f): seq; ret
    fn program() -> Program {
        let mut b = ProgramBuilder::new(Addr::new(0x1000));
        let entry = b.push(InstrKind::Seq);
        let call = b.push(InstrKind::Call { target: Addr::new(0x1000) });
        b.push(InstrKind::Seq);
        b.push(InstrKind::Seq);
        b.push(InstrKind::Seq);
        b.push(InstrKind::CondBranch { target: entry });
        b.push(InstrKind::Jump { target: entry });
        let f = b.push(InstrKind::Seq);
        b.push(InstrKind::Return);
        b.patch_target(call, f);
        b.set_entry(entry);
        b.finish().unwrap()
    }

    /// A successor-consistent path exercising every transfer kind.
    fn path(p: &Program) -> Vec<DynInstr> {
        let a = |w: u64| Addr::new(0x1000 + w * 4);
        vec![
            DynInstr::seq(a(0)),
            DynInstr::branch(a(1), p.fetch(a(1)).unwrap(), true, a(7)), // call f
            DynInstr::seq(a(7)),
            DynInstr::branch(a(8), p.fetch(a(8)).unwrap(), true, a(2)), // ret
            DynInstr::seq(a(2)),
            DynInstr::seq(a(3)),
            DynInstr::seq(a(4)),
            DynInstr::branch(a(5), p.fetch(a(5)).unwrap(), true, a(0)), // bcond taken
            DynInstr::seq(a(0)),
            DynInstr::branch(a(1), p.fetch(a(1)).unwrap(), true, a(7)),
            DynInstr::seq(a(7)),
            DynInstr::branch(a(8), p.fetch(a(8)).unwrap(), true, a(2)),
            DynInstr::seq(a(2)),
            DynInstr::seq(a(3)),
            DynInstr::seq(a(4)),
            DynInstr::branch(a(5), p.fetch(a(5)).unwrap(), false, a(6)), // bcond not taken
            DynInstr::branch(a(6), p.fetch(a(6)).unwrap(), true, a(0)),  // jump
        ]
    }

    fn overlay_of(p: &Program) -> Arc<PredictedTrace> {
        let mut live = VecSource::new(p.clone(), path(p));
        let rec = Arc::new(RecordedTrace::record(&mut live, u64::MAX));
        Arc::new(PredictedTrace::build(&rec))
    }

    #[test]
    fn replay_is_byte_identical_to_the_recorded_stream() {
        let p = program();
        let want = path(&p);
        let ov = overlay_of(&p);
        let mut rec = RecordedTrace::source(ov.base());
        let mut pred = PredictedTrace::source(&ov);
        for d in &want {
            assert_eq!(pred.next_instr().as_ref(), Some(d));
        }
        assert!(pred.next_instr().is_none());
        // And against the recorded cursor, instruction for instruction.
        let mut pred = PredictedTrace::source(&ov);
        while let Some(a) = rec.next_instr() {
            assert_eq!(pred.next_instr(), Some(a));
        }
        assert!(pred.next_instr().is_none());
    }

    #[test]
    fn seq_runs_count_to_the_next_transfer() {
        let p = program();
        let ov = overlay_of(&p);
        // Path index 4..=6 is the seq×3 run before the conditional.
        assert_eq!(ov.seq_run(4), 3);
        assert_eq!(ov.seq_run(5), 2);
        assert_eq!(ov.seq_run(6), 1);
        assert_eq!(ov.seq_run(7), 0); // the conditional itself
        assert_eq!(ov.seq_run(16), 0); // final jump
    }

    #[test]
    fn cond_stream_is_in_trace_order() {
        let p = program();
        let ov = overlay_of(&p);
        assert_eq!(ov.cond_count(), 2);
        assert!(ov.cond_taken(0));
        assert!(!ov.cond_taken(1));
    }

    #[test]
    fn branches_before_matches_a_walking_cursor() {
        let p = program();
        let ov = overlay_of(&p);
        let mut ord = 0;
        for idx in 0..ov.len() {
            assert_eq!(ov.branches_before(idx), ord, "at {idx}");
            if ov.seq_run(idx) == 0 {
                ord += 1;
            }
        }
    }

    #[test]
    fn instr_at_with_tracked_ordinal_matches_source() {
        let p = program();
        let ov = overlay_of(&p);
        let want = path(&p);
        let mut ord = 0;
        for (idx, d) in want.iter().enumerate() {
            assert_eq!(ov.instr_at(idx, ord), *d);
            if d.kind.is_branch() {
                ord += 1;
            }
        }
    }

    #[test]
    fn long_seq_runs_saturate() {
        let mut b = ProgramBuilder::new(Addr::new(0));
        b.push_seq(300);
        b.set_entry(Addr::new(0));
        let p = b.finish().unwrap();
        let path: Vec<DynInstr> = (0..300).map(|w| DynInstr::seq(Addr::from_word(w))).collect();
        let mut live = VecSource::new(p, path);
        let rec = Arc::new(RecordedTrace::record(&mut live, u64::MAX));
        let ov = PredictedTrace::build(&rec);
        assert_eq!(ov.seq_run(0), u8::MAX);
        assert_eq!(ov.seq_run(299), 1);
        assert_eq!(ov.cond_count(), 0);
    }

    #[test]
    fn empty_overlay_is_empty() {
        let p = program();
        let mut live = VecSource::new(p.clone(), Vec::new());
        let rec = Arc::new(RecordedTrace::record(&mut live, u64::MAX));
        let ov = Arc::new(PredictedTrace::build(&rec));
        assert!(ov.is_empty());
        assert_eq!(ov.cond_count(), 0);
        let mut s = PredictedTrace::source(&ov);
        assert!(s.next_instr().is_none());
    }

    #[test]
    fn source_advertises_its_overlay() {
        let p = program();
        let ov = overlay_of(&p);
        let s = PredictedTrace::source(&ov);
        let advertised = s.predicted().expect("predicted source exposes its overlay");
        assert!(Arc::ptr_eq(advertised, &ov));
        // Plain sources do not.
        let plain = VecSource::new(p.clone(), path(&p));
        assert!(plain.predicted().is_none());
    }

    #[test]
    fn overlay_is_compact() {
        let p = program();
        let ov = overlay_of(&p);
        // ~1 byte per instruction plus ~5 per transfer.
        assert!(ov.heap_bytes() <= ov.len() + 8 * ov.branch_class.len() + 16);
    }
}
