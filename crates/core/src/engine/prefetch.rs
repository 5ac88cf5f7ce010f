//! Composable prefetch stages.
//!
//! Each hardware prefetcher (next-line, branch-target, stream buffer) is
//! one [`PrefetchStage`]; the engine talks to an ordered [`Prefetchers`]
//! pipeline instead of special-casing each unit. Orderings encode the
//! literature:
//!
//! * **demand-miss service** walks the stages front to back — stream
//!   buffer first (Jouppi: an unserved miss also reallocates the
//!   stream), then the next-line buffer, then the target buffer;
//! * **hit triggering** walks them back to front, so target prefetches
//!   take priority over next-line (Pierce & Mudge's prescription);
//! * a completed bus transaction is routed to the first stage owning its
//!   [`Purpose`].

use specfetch_cache::{Bus, ICache, NextLinePrefetcher, Purpose, StreamBuffer, TargetPrefetcher};
use specfetch_isa::LineAddr;

/// What a stage did with a demand miss offered to it.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(super) enum MissOutcome {
    /// The stage's buffer held the line; the cache is filled, fetch
    /// proceeds.
    Served,
    /// The line is on the bus on this stage's behalf; the demand must
    /// wait for that transaction instead of issuing a second fill.
    Pending,
    /// Not this stage's line; offer the miss to the next stage.
    Unserved,
}

/// One prefetching unit in the front end's fill pipeline.
pub(super) trait PrefetchStage {
    /// The bus purpose of fills this stage issues and owns.
    fn purpose(&self) -> Purpose;

    /// Once per cycle, before fetch: keep the stage's pipeline fed.
    fn tick(&mut self, _cycle: u64, _icache: &mut ICache, _bus: &mut Bus, _penalty: u64) {}

    /// Would the stage use a free bus slot this cycle? (Blocks stall
    /// fast-forwarding: those cycles are not idle.)
    fn wants_bus(&self) -> bool {
        false
    }

    /// A completed bus transaction with this stage's purpose landed.
    /// `pending` is the line of an outstanding demand miss waiting on a
    /// prefetch; returns `true` when this completion satisfied it.
    fn complete(&mut self, line: LineAddr, pending: Option<LineAddr>, icache: &mut ICache) -> bool;

    /// A demand fetch hit on `line`: trigger follow-on prefetches.
    fn on_hit(
        &mut self,
        _cycle: u64,
        _line: LineAddr,
        _icache: &mut ICache,
        _bus: &mut Bus,
        _penalty: u64,
    ) {
    }

    /// A demand miss on `line` reached this stage.
    fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome;

    /// A gated fill re-evaluates: can the stage's buffer satisfy `line`
    /// now? (The stream buffer is deliberately not consulted here — its
    /// head is only taken at miss time.)
    fn satisfy_gated(&mut self, _line: LineAddr, _icache: &mut ICache) -> bool {
        false
    }

    /// Taken-branch training (target prefetcher).
    fn train(&mut self, _from: LineAddr, _to: LineAddr) {}

    /// Prefetches issued to the bus.
    fn issued(&self) -> u64;

    /// Demand misses satisfied from the stage's buffer.
    fn buffer_hits(&self) -> u64;
}

/// Jouppi-style four-deep stream buffer as a stage.
pub(super) struct StreamStage {
    buf: StreamBuffer,
}

impl StreamStage {
    pub(super) fn new(depth: usize) -> Self {
        StreamStage { buf: StreamBuffer::new(depth) }
    }
}

impl PrefetchStage for StreamStage {
    fn purpose(&self) -> Purpose {
        Purpose::Prefetch
    }

    fn tick(&mut self, cycle: u64, icache: &mut ICache, bus: &mut Bus, penalty: u64) {
        // Skip over lines that are already resident; stop at the first
        // line that needs (or is awaiting) a bus transaction.
        while let Some(line) = self.buf.want_fetch() {
            if icache.contains(line) {
                self.buf.skip(line);
                continue;
            }
            // One outstanding stream prefetch at a time: the FIFO tracks
            // a single in-flight line, so issuing a second on a pipelined
            // bus would orphan the first (note_issued overwrites it, its
            // completion is dropped as stale, the FIFO never fills, and
            // the slot churn starves any pending demand fill forever).
            // On a one-slot bus this check is redundant — the in-flight
            // prefetch already occupies the only slot.
            if self.buf.prefetch_in_flight() {
                break;
            }
            if bus.is_free() {
                bus.start(cycle, line, penalty, Purpose::Prefetch);
                self.buf.note_issued(line);
            }
            break;
        }
    }

    fn wants_bus(&self) -> bool {
        self.buf.want_fetch().is_some() && !self.buf.prefetch_in_flight()
    }

    fn complete(&mut self, line: LineAddr, pending: Option<LineAddr>, icache: &mut ICache) -> bool {
        self.buf.complete(line);
        // A stale (restarted-over) completion leaves the pending miss to
        // re-issue as a demand fill.
        if pending == Some(line) && self.buf.take_head(line) {
            icache.fill(line);
            return true;
        }
        false
    }

    fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome {
        if self.buf.take_head(line) {
            icache.fill(line);
            return MissOutcome::Served;
        }
        if self.buf.in_flight_is(line) {
            return MissOutcome::Pending;
        }
        // An unserved miss reallocates the stream (Jouppi).
        self.buf.restart(line.next());
        MissOutcome::Unserved
    }

    fn issued(&self) -> u64 {
        self.buf.issued()
    }

    fn buffer_hits(&self) -> u64 {
        self.buf.head_hits()
    }
}

/// Next-line ("maximal fetchahead, first-time referenced") prefetcher as
/// a stage.
pub(super) struct NextLineStage {
    pf: NextLinePrefetcher,
}

impl NextLineStage {
    pub(super) fn new() -> Self {
        NextLineStage { pf: NextLinePrefetcher::new() }
    }
}

impl PrefetchStage for NextLineStage {
    fn purpose(&self) -> Purpose {
        Purpose::Prefetch
    }

    fn complete(&mut self, line: LineAddr, pending: Option<LineAddr>, icache: &mut ICache) -> bool {
        // On a pipelined bus a second prefetch can land before the first
        // drained; make room (the one-line buffer writes through).
        self.pf.drain_into(icache);
        self.pf.complete(line);
        if pending == Some(line) {
            self.pf.buffer_satisfies(line);
            self.pf.drain_into(icache);
            return true;
        }
        false
    }

    fn on_hit(
        &mut self,
        cycle: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        self.pf.trigger(cycle, line, icache, bus, penalty);
    }

    fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome {
        // A buffered line is free; any other buffered line is written
        // into the cache now ("at the next I-cache miss").
        if self.pf.buffer_satisfies(line) {
            self.pf.drain_into(icache);
            return MissOutcome::Served;
        }
        self.pf.drain_into(icache);
        MissOutcome::Unserved
    }

    fn satisfy_gated(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        if self.pf.buffer_satisfies(line) {
            self.pf.drain_into(icache);
            return true;
        }
        false
    }

    fn issued(&self) -> u64 {
        self.pf.issued()
    }

    fn buffer_hits(&self) -> u64 {
        self.pf.buffer_hits()
    }
}

/// Branch-target prefetcher (Smith & Hsu '92) as a stage.
pub(super) struct TargetStage {
    pf: TargetPrefetcher,
}

impl TargetStage {
    pub(super) fn new(entries: usize) -> Self {
        TargetStage { pf: TargetPrefetcher::new(entries) }
    }
}

impl PrefetchStage for TargetStage {
    fn purpose(&self) -> Purpose {
        Purpose::TargetPrefetch
    }

    fn complete(&mut self, line: LineAddr, pending: Option<LineAddr>, icache: &mut ICache) -> bool {
        self.pf.drain_into(icache);
        self.pf.complete(line);
        if pending == Some(line) {
            self.pf.buffer_satisfies(line);
            self.pf.drain_into(icache);
            return true;
        }
        false
    }

    fn on_hit(
        &mut self,
        cycle: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        self.pf.trigger(cycle, line, icache, bus, penalty);
    }

    fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome {
        if self.pf.buffer_satisfies(line) {
            self.pf.drain_into(icache);
            return MissOutcome::Served;
        }
        self.pf.drain_into(icache);
        MissOutcome::Unserved
    }

    fn satisfy_gated(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        if self.pf.buffer_satisfies(line) {
            self.pf.drain_into(icache);
            return true;
        }
        false
    }

    fn train(&mut self, from: LineAddr, to: LineAddr) {
        self.pf.train(from, to);
    }

    fn issued(&self) -> u64 {
        self.pf.issued()
    }

    fn buffer_hits(&self) -> u64 {
        self.pf.buffer_hits()
    }
}

/// The engine's ordered prefetch pipeline (possibly empty).
#[derive(Default)]
pub(super) struct Prefetchers {
    stages: Vec<Box<dyn PrefetchStage>>,
}

impl Prefetchers {
    pub(super) fn push(&mut self, stage: Box<dyn PrefetchStage>) {
        self.stages.push(stage);
    }

    /// No stages configured — the run batching fast path stays exact.
    pub(super) fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    pub(super) fn tick(&mut self, cycle: u64, icache: &mut ICache, bus: &mut Bus, penalty: u64) {
        for s in &mut self.stages {
            s.tick(cycle, icache, bus, penalty);
        }
    }

    pub(super) fn wants_bus(&self) -> bool {
        self.stages.iter().any(|s| s.wants_bus())
    }

    /// Routes a completed prefetch transaction to its owning stage;
    /// returns `true` when it satisfied the pending demand miss.
    pub(super) fn complete(
        &mut self,
        purpose: Purpose,
        line: LineAddr,
        pending: Option<LineAddr>,
        icache: &mut ICache,
    ) -> bool {
        for s in &mut self.stages {
            if s.purpose() == purpose {
                return s.complete(line, pending, icache);
            }
        }
        false
    }

    /// Hit triggering, highest priority last in the pipeline (target
    /// before next-line).
    pub(super) fn on_hit(
        &mut self,
        cycle: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        for s in self.stages.iter_mut().rev() {
            s.on_hit(cycle, line, icache, bus, penalty);
        }
    }

    /// Offers a demand miss to each stage in service order.
    pub(super) fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome {
        for s in &mut self.stages {
            match s.on_demand_miss(line, icache) {
                MissOutcome::Unserved => continue,
                decided => return decided,
            }
        }
        MissOutcome::Unserved
    }

    pub(super) fn satisfy_gated(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        self.stages.iter_mut().any(|s| s.satisfy_gated(line, icache))
    }

    pub(super) fn train(&mut self, from: LineAddr, to: LineAddr) {
        for s in &mut self.stages {
            s.train(from, to);
        }
    }

    pub(super) fn issued(&self) -> u64 {
        self.stages.iter().map(|s| s.issued()).sum()
    }

    pub(super) fn buffer_hits(&self) -> u64 {
        self.stages.iter().map(|s| s.buffer_hits()).sum()
    }
}
