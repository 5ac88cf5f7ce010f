//! The prefetch pipeline.
//!
//! At most one of each hardware prefetcher — stream buffer, next-line,
//! branch-target — is present, each when its configuration flag is set.
//! The methods below spell out the literature's orderings:
//!
//! * **demand-miss service** goes stream buffer (Jouppi: an unserved
//!   miss also reallocates the stream) → next-line buffer → target
//!   buffer;
//! * **hit triggering** goes target → next-line, so target prefetches
//!   take priority (Pierce & Mudge's prescription);
//! * a completed bus transaction is routed by its [`Purpose`]:
//!   `Prefetch` to the stream buffer or the next-line prefetcher (the
//!   configuration allows only one of them), `TargetPrefetch` to the
//!   target prefetcher.

use specfetch_cache::{
    drain_prefetch, Bus, ICache, LineBuffer, NextLinePrefetcher, Purpose, StreamBuffer,
    TargetPrefetcher,
};
use specfetch_isa::LineAddr;

use crate::SimConfig;

/// Entries in the target-prefetch table (Smith & Hsu used small
/// direct-mapped tables; 64 matches the BTB's capacity class).
const TARGET_PREFETCH_ENTRIES: usize = 64;

/// Stream-buffer depth (Jouppi evaluated four-entry buffers).
const STREAM_BUFFER_DEPTH: usize = 4;

/// What the prefetchers did with a demand miss.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(super) enum MissOutcome {
    /// A buffer held the line; the cache is filled, fetch proceeds.
    Served,
    /// The line is the stream prefetch on the bus; the demand must wait
    /// for that transaction instead of issuing a second fill.
    Pending,
    /// No prefetcher had the line.
    Unserved,
}

/// The engine's prefetchers (all absent at the paper baseline).
pub(super) struct Prefetchers {
    stream: Option<StreamBuffer>,
    next_line: Option<NextLinePrefetcher>,
    target: Option<TargetPrefetcher>,
    /// Demand misses served from a prefetch buffer or the stream head.
    pub(super) hits: u64,
}

impl Prefetchers {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Prefetchers {
            stream: cfg.stream_buffer.then(|| StreamBuffer::new(STREAM_BUFFER_DEPTH)),
            next_line: cfg.prefetch.then(NextLinePrefetcher::default),
            target: cfg.target_prefetch.then(|| TargetPrefetcher::new(TARGET_PREFETCH_ENTRIES)),
            hits: 0,
        }
    }

    /// No prefetcher configured — the run batching fast path stays exact.
    pub(super) fn is_empty(&self) -> bool {
        self.stream.is_none() && self.next_line.is_none() && self.target.is_none()
    }

    /// The next-line and target buffers, in miss-service order.
    fn buffers(&mut self) -> impl Iterator<Item = &mut LineBuffer> {
        let next_line = self.next_line.as_mut().map(|p| &mut p.buffer);
        let target = self.target.as_mut().map(|p| &mut p.buffer);
        [next_line, target].into_iter().flatten()
    }

    /// Once per cycle, before fetch: keeps the stream buffer fed.
    pub(super) fn tick(&mut self, cycle: u64, icache: &ICache, bus: &mut Bus, penalty: u64) {
        if let Some(s) = &mut self.stream {
            s.tick(cycle, icache, bus, penalty);
        }
    }

    /// Would a prefetcher use a free bus slot this cycle? (Blocks stall
    /// fast-forwarding: those cycles are not idle.)
    pub(super) fn wants_bus(&self) -> bool {
        self.stream.as_ref().is_some_and(StreamBuffer::wants_bus)
    }

    /// Routes a completed prefetch to its owner; returns `true` when it
    /// satisfied the demand miss `pending`.
    pub(super) fn complete(
        &mut self,
        purpose: Purpose,
        line: LineAddr,
        pending: Option<LineAddr>,
        icache: &mut ICache,
    ) -> bool {
        if let (Purpose::Prefetch, Some(s)) = (purpose, &mut self.stream) {
            let served = s.complete(line, pending, icache);
            self.hits += u64::from(served);
            return served;
        }
        let owner = match purpose {
            Purpose::Prefetch => self.next_line.as_mut().map(|p| &mut p.buffer),
            Purpose::TargetPrefetch => self.target.as_mut().map(|p| &mut p.buffer),
            Purpose::DemandCorrect | Purpose::DemandWrong => None,
        };
        let Some(buffer) = owner else { return false };
        // On a pipelined bus a second prefetch can land before the first
        // drained; make room (the one-line buffer writes through).
        drain_prefetch(buffer, icache);
        buffer.park(line);
        if pending != Some(line) {
            return false;
        }
        drain_prefetch(buffer, icache);
        self.hits += 1;
        true
    }

    /// A demand fetch hit on `line`: target prefetching triggers before
    /// next-line.
    pub(super) fn on_hit(
        &mut self,
        cycle: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        if let Some(t) = &mut self.target {
            t.trigger(cycle, line, icache, bus, penalty);
        }
        if let Some(n) = &mut self.next_line {
            n.trigger(cycle, line, icache, bus, penalty);
        }
    }

    /// Offers a demand miss to the stream buffer, then the next-line and
    /// target buffers.
    pub(super) fn on_demand_miss(&mut self, line: LineAddr, icache: &mut ICache) -> MissOutcome {
        if let Some(s) = &mut self.stream {
            if s.on_miss(line, icache) {
                self.hits += 1;
                return MissOutcome::Served;
            }
            if s.in_flight_is(line) {
                return MissOutcome::Pending;
            }
        }
        // A buffered line is free; any other buffered line is written
        // into the cache now ("at the next I-cache miss").
        let served = self.buffers().any(|buffer| {
            let hit = buffer.holds(line);
            drain_prefetch(buffer, icache);
            hit
        });
        if !served {
            return MissOutcome::Unserved;
        }
        self.hits += 1;
        MissOutcome::Served
    }

    /// A gated fill re-evaluates: can a prefetch buffer satisfy `line`
    /// now? (The stream buffer is deliberately not consulted here — its
    /// head is only taken at miss time.)
    pub(super) fn satisfy_gated(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        let Some(buffer) = self.buffers().find(|b| b.holds(line)) else { return false };
        drain_prefetch(buffer, icache);
        self.hits += 1;
        true
    }

    /// Taken-branch training (target prefetcher).
    pub(super) fn train(&mut self, from: LineAddr, to: LineAddr) {
        if let Some(t) = &mut self.target {
            t.train(from, to);
        }
    }
}
