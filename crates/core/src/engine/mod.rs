//! The cycle-granular fetch engine.
//!
//! One [`Engine`] simulates the paper's four-wide speculative front end
//! over a single correct execution path: a recorded [`PredictedTrace`],
//! walked by the engine's own cursor. Each cycle it:
//!
//! 1. collects a completed bus transaction (demand fill or prefetch);
//! 2. fires due decode/resolve events of in-flight branches, applying
//!    redirects, squashes, speculative BTB updates, and PHT training;
//! 3. fetches up to `issue_width` instructions along the *believed* path —
//!    the recorded path while no divergence is pending, the static
//!    image (a "wrong-path walk") after one — attributing every lost slot
//!    to one of the six ISPI components.
//!
//! The believed path diverges at a branch whose fetch-time guess or
//! decode-time prediction differs from the ground truth; the engine then
//! schedules the *recovery* event (the decode redirect for a pure
//! misfetch, the resolve redirect for a mispredict) and walks the wrong
//! path exactly as the hardware would — predicting wrong-path branches
//! with live predictor state, taking wrong-path misses per the configured
//! [`FetchPolicy`](crate::FetchPolicy).
//!
//! The engine is decomposed into front-end stages, one module each:
//!
//! | stage | module | role |
//! |---|---|---|
//! | fetch | `fetch` | per-cycle slot issue, branch prediction, divergence |
//! | miss gate | [`gate`] | per-miss policy decision ([`MissGate`]) |
//! | fill/resume | `fill` | bus, resume buffer, pending-miss FSM |
//! | prefetch | `prefetch` | stream, next-line and target prefetchers |
//! | events | `events` | decode/resolve firing, squash, redirect, recovery |
//! | account | `account` | lost-slot attribution (ISPI components) |
//!
//! Assembly — which gate — lives in [`crate::FrontEnd`]; the prefetchers
//! follow the configuration flags.

mod account;
mod events;
mod fetch;
mod fill;
pub mod gate;
mod prefetch;

use std::collections::VecDeque;
use std::sync::Arc;

use specfetch_bpred::{BranchUnit, OutcomeReplay};
use specfetch_cache::{Bus, ICache, LineBuffer};
use specfetch_isa::{Addr, DynInstr, InstrKind, LineAddr, Program};
use specfetch_trace::{PredictedSource, PredictedTrace};

use crate::{IspiBreakdown, MissClass, SimConfig, SimResult};
use gate::MissGate;
use prefetch::Prefetchers;

/// What triggered the current wrong-path episode (Table 3 attribution).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Trigger {
    /// BTB misfetch: the branch's target was not available at fetch but
    /// decode computes it (and the direction prediction was right).
    Misfetch,
    /// PHT direction mispredict.
    PhtMispredict,
    /// Wrong (or unavailable) predicted target for a return/indirect.
    BtbMispredict,
}

#[derive(Copy, Clone, Debug)]
enum Mode {
    /// Fetching the correct path (advancing the trace cursor).
    Correct,
    /// Fetching a wrong path. `walk` is the believed PC (`None` = the walk
    /// halted: unknown target, off-image, or an unserviced Oracle miss).
    Wrong { walk: Option<Addr>, trigger: Trigger },
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct Inflight {
    pc: Addr,
    kind: InstrKind,
    decode_at: u64,
    resolve_at: u64,
    decode_done: bool,
    resolved: bool,
    is_cond: bool,
    on_correct: bool,
    pred_taken: bool,
    /// Speculative BTB insert performed at decode.
    insert_target: PackedAddr,
    /// Believed-path change at decode (`decode_pred != fetch_guess`).
    decode_redirect: PackedAddr,
    /// The decode redirect returns fetch to the correct path.
    decode_recovers: bool,
    /// No target computable at decode: the walk halts there.
    halt_at_decode: bool,
    /// Correct-path recovery at resolve (ground-truth successor).
    resolve_redirect: PackedAddr,
    /// BTB learns the actual target at resolve (returns/indirects).
    resolve_insert_target: PackedAddr,
    /// Ground-truth direction (correct-path conditionals).
    actual_taken: bool,
    /// GHR snapshot before this branch's speculative shift (speculative
    /// GHR ablation only).
    ghr_snapshot: u32,
}

/// An `Option<Addr>` in 8 bytes instead of 16. [`Inflight`] is copied on
/// every push and every fired event, and carries four of these. The
/// sentinel is never a valid address: addresses are word-aligned.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct PackedAddr(u64);

impl PackedAddr {
    const NONE: u64 = u64::MAX;

    fn get(self) -> Option<Addr> {
        (self.0 != Self::NONE).then(|| Addr::new(self.0))
    }
}

impl From<Option<Addr>> for PackedAddr {
    fn from(a: Option<Addr>) -> Self {
        PackedAddr(a.map_or(Self::NONE, Addr::raw))
    }
}

/// Does this instruction kind carry a resolve event?
pub(crate) fn needs_resolution(kind: InstrKind) -> bool {
    matches!(
        kind,
        InstrKind::CondBranch { .. }
            | InstrKind::Return
            | InstrKind::IndirectJump
            | InstrKind::IndirectCall
    )
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum MissState {
    /// A conservative gate holds the fill: may not issue before `until`.
    ForceWait { until: u64 },
    /// Ready to issue, bus busy.
    BusWait,
    /// Demand fill on the bus. `wrong_issue` records the fetch mode at
    /// issue time (for ISPI attribution after a recovery).
    InFlight { wrong_issue: bool },
    /// The missing line is the prefetch currently on the bus.
    PrefetchWait,
}

#[derive(Copy, Clone, Debug)]
struct PendingMiss {
    line: LineAddr,
    state: MissState,
}

/// What a stalled slot is charged to.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Cause {
    BranchFull,
    Branch(Trigger),
    ForceResolve,
    RtICache,
    WrongICache,
    Bus,
}

pub(crate) struct Engine {
    cfg: SimConfig,
    /// Shared with the trace (and every sibling engine in a sweep):
    /// holding the handle instead of a deep copy keeps per-run setup O(1)
    /// in the image size.
    program: Arc<Program>,
    unit: BranchUnit,
    icache: ICache,
    shadow: Option<ICache>,
    bus: Bus,
    /// The Resume policy's one-line buffer.
    resume_buf: LineBuffer,
    /// The policy's per-miss decision procedure (see [`gate`]).
    gate: Box<dyn MissGate>,
    prefetchers: Prefetchers,

    /// The engine's cursor into the shared trace: the correct path. Its
    /// run lengths let the fetch phase issue whole sequential runs per
    /// step, and it carries the PC of its position, so a sequential slot
    /// reads no trace memory.
    cursor: PredictedSource,
    /// Run batching is byte-identical only while per-access side
    /// effects are limited to the cache itself (no prefetch triggers).
    batch_ok: bool,
    /// `words_per_line - 1`: in-line word offset mask for run batching.
    line_word_mask: u64,
    /// Debug-build cross-check of the live predictor history against the
    /// trace's resolve-order outcome stream (see `specfetch_bpred::replay`):
    /// at every correct-path conditional resolution the live GHR must
    /// equal the replayed one. Absent in release builds.
    ghr_check: Option<OutcomeReplay>,

    cycle: u64,
    mode: Mode,
    next_correct: Option<DynInstr>,
    inflight: VecDeque<Inflight>,
    cond_in_flight: usize,
    pending: Option<PendingMiss>,
    /// Lines whose in-flight demand fill was squashed from under the
    /// fetch engine (a detaching gate, after a redirect): their
    /// completions drain into the resume buffer instead of stalling
    /// fetch. A set, because a pipelined bus (`bus_slots > 1`) can carry
    /// several.
    orphan_fills: std::collections::HashSet<LineAddr>,
    /// The `(pc, on-correct-path)` of the access that last blocked fetch:
    /// its retry after the fill must not double-count access statistics.
    last_blocked: Option<(Addr, bool)>,
    /// Cycle of the most recent issued fetch slot. The Decode/Pessimistic
    /// gates must wait for *every* previously fetched instruction to
    /// decode — until then the machine cannot know none of them was a
    /// misfetched branch — so the gate floor is this cycle plus the
    /// decode latency.
    last_fetch_cycle: Option<u64>,
    /// Earliest cycle at which any in-flight branch has an unfired
    /// decode/resolve event (`u64::MAX` when none). Lets
    /// [`Engine::process_events`] skip its scan on event-free cycles; may
    /// run stale-early after a squash, which only costs a wasted scan.
    next_event_at: u64,
    /// Earliest in-flight bus completion (`u64::MAX` when the bus is
    /// idle). Lets [`Engine::process_bus`] skip polling on completion-free
    /// cycles. Only maintained while no prefetcher is configured
    /// (prefetchers issue transactions behind the engine's back), so the
    /// skip is gated on `batch_ok`.
    next_bus_at: u64,
    /// Deadlock safety valve: `(instrs, cycle)` at the last forward
    /// progress.
    progress: (u64, u64),

    // Results.
    correct_instrs: u64,
    lost: IspiBreakdown,
    pht_mispredict_slots: u64,
    btb_misfetch_slots: u64,
    btb_mispredict_slots: u64,
    misfetches: u64,
    mispredicts: u64,
    target_mispredicts: u64,
    cache_correct: specfetch_cache::CacheStats,
    cache_wrong: specfetch_cache::CacheStats,
    classification: MissClass,
    unused_end_slots: u64,
}

impl Engine {
    pub(crate) fn new(
        cfg: SimConfig,
        gate: Box<dyn MissGate>,
        trace: &Arc<PredictedTrace>,
    ) -> Self {
        debug_assert!(cfg.validate().is_ok(), "callers validate the configuration");
        let cursor = PredictedTrace::source(trace);
        let prefetchers = Prefetchers::new(&cfg);
        let batch_ok = prefetchers.is_empty();
        let ghr_check = (cfg!(debug_assertions) && OutcomeReplay::models(cfg.bpred.ghr_update))
            .then(|| OutcomeReplay::new(cfg.bpred.ghr_bits));
        Engine {
            unit: BranchUnit::new(&cfg.bpred),
            icache: ICache::new(&cfg.icache),
            shadow: cfg.classify.then(|| ICache::new(&cfg.icache)),
            bus: Bus::with_slots(cfg.bus_slots),
            resume_buf: LineBuffer::default(),
            gate,
            prefetchers,
            next_correct: cursor.peek(),
            cursor,
            batch_ok,
            line_word_mask: cfg.icache.line_bytes / specfetch_isa::INSTR_BYTES - 1,
            ghr_check,
            cycle: 0,
            mode: Mode::Correct,
            inflight: VecDeque::with_capacity(16),
            cond_in_flight: 0,
            pending: None,
            orphan_fills: std::collections::HashSet::new(),
            last_blocked: None,
            last_fetch_cycle: None,
            next_event_at: u64::MAX,
            next_bus_at: u64::MAX,
            progress: (0, 0),
            correct_instrs: 0,
            lost: IspiBreakdown::default(),
            pht_mispredict_slots: 0,
            btb_misfetch_slots: 0,
            btb_mispredict_slots: 0,
            misfetches: 0,
            mispredicts: 0,
            target_mispredicts: 0,
            cache_correct: specfetch_cache::CacheStats::default(),
            cache_wrong: specfetch_cache::CacheStats::default(),
            classification: MissClass::default(),
            unused_end_slots: 0,
            cfg,
            program: Arc::clone(trace.program()),
        }
    }

    /// One simulated cycle: bus completions, the stream buffer, branch
    /// events, then the fetch slots (plus the bulk stall fast-forward).
    #[inline]
    fn step_cycle(&mut self) {
        self.process_bus();
        self.prefetchers.tick(self.cycle, &self.icache, &mut self.bus, self.cfg.miss_penalty);
        self.process_events();
        let stall = self.fetch_phase();
        self.cycle += 1;
        if let Some(cause) = stall {
            self.fast_forward_stall(cause);
        }
        // Safety valve: a deadlocked engine is a bug, not a long run.
        if self.correct_instrs != self.progress.0 {
            self.progress = (self.correct_instrs, self.cycle);
        } else {
            assert!(
                self.cycle - self.progress.1 < 1_000_000,
                "engine stalled: cycle {}, {} instrs, mode {:?}, pending {:?}",
                self.cycle,
                self.correct_instrs,
                self.mode,
                self.pending
            );
        }
    }

    /// Has the cursor reached the end of the trace?
    pub(crate) fn finished(&self) -> bool {
        self.next_correct.is_none()
    }

    /// Steps cycles until the trace cursor reaches `idx_limit` or the
    /// trace ends. Interleaving lanes at this granularity is behaviour-
    /// preserving: each engine is self-contained, so cycles of different
    /// lanes are independent — only wall-clock locality changes.
    pub(crate) fn advance_to(&mut self, idx_limit: usize) {
        while self.next_correct.is_some() && self.cursor.position() < idx_limit {
            self.step_cycle();
        }
    }

    /// Final accounting; consumes the engine.
    pub(crate) fn into_result(self) -> SimResult {
        debug_assert!(self.finished(), "into_result before the trace ended");
        debug_assert_eq!(
            self.cycle * self.cfg.issue_width as u64,
            self.correct_instrs + self.lost.total() + self.unused_end_slots,
            "slot accounting identity violated"
        );
        SimResult {
            policy: self.cfg.policy,
            correct_instrs: self.correct_instrs,
            cycles: self.cycle,
            issue_width: self.cfg.issue_width,
            lost: self.lost,
            pht_mispredict_slots: self.pht_mispredict_slots,
            btb_misfetch_slots: self.btb_misfetch_slots,
            btb_mispredict_slots: self.btb_mispredict_slots,
            misfetches: self.misfetches,
            mispredicts: self.mispredicts,
            target_mispredicts: self.target_mispredicts,
            cache_correct: self.cache_correct,
            cache_wrong: self.cache_wrong,
            bpred: *self.unit.stats(),
            traffic_demand_correct: self.bus.demand_correct_count(),
            traffic_demand_wrong: self.bus.demand_wrong_count(),
            traffic_prefetch: self.bus.prefetch_count(),
            traffic_target_prefetch: self.bus.target_prefetch_count(),
            classification: self.cfg.classify.then_some(self.classification),
            prefetch_hits: self.prefetchers.hits,
        }
    }

    /// Fast-forwards over a run of fully-stalled cycles.
    ///
    /// Called after a cycle whose fetch phase issued nothing and charged
    /// all `issue_width` slots to `cause`. Until the next cycle at which
    /// *anything* can happen — a bus completion, an in-flight branch's
    /// decode/resolve event, or a ForceWait gate opening — every cycle
    /// would repeat exactly that charge and mutate nothing, so the engine
    /// books them in bulk and jumps. This is a pure wall-clock
    /// optimisation: simulated cycle counts and every statistic are
    /// identical to stepping cycle by cycle.
    fn fast_forward_stall(&mut self, cause: Cause) {
        // The stall must be one that provably repeats until an external
        // event: an outstanding pending miss, a halted wrong-path walk, or
        // a full branch window. (A miss satisfied within its own cycle
        // blocks one slot-group without leaving any of these behind.)
        let persists = self.pending.is_some()
            || matches!(self.mode, Mode::Wrong { walk: None, .. })
            || cause == Cause::BranchFull;
        if !persists {
            return;
        }
        // A stream buffer with a free bus slot issues one prefetch per
        // cycle, so those cycles are not idle; step them normally.
        if self.bus.is_free() && self.prefetchers.wants_bus() {
            return;
        }
        let mut wake = self.next_event_at;
        if let Some(c) = self.bus.earliest_completion() {
            wake = wake.min(c);
        }
        if let Some(PendingMiss { state: MissState::ForceWait { until }, .. }) = self.pending {
            wake = wake.min(until);
        }
        if wake == u64::MAX || wake <= self.cycle {
            return;
        }
        let skipped = wake - self.cycle;
        self.lose(skipped * self.cfg.issue_width as u64, cause);
        self.cycle = wake;
    }
}
