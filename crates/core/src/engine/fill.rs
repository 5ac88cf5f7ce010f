//! Fill/resume stage: the bus, the prefetchers, the resume buffer, and
//! the pending-miss state machine.

use specfetch_cache::Purpose;
use specfetch_isa::{Addr, LineAddr};

use super::gate::{GateDecision, GateView};
use super::prefetch::MissOutcome;
use super::{Engine, MissState, Mode, PendingMiss};

impl Engine {
    pub(super) fn process_bus(&mut self) {
        // Nothing can complete before the cached watermark; skip the poll.
        // Prefetchers start transactions without the engine seeing them,
        // so the watermark is only trusted when none are configured.
        if self.batch_ok && self.cycle < self.next_bus_at {
            return;
        }
        // A pipelined bus can deliver several fills in one cycle.
        while let Some(tx) = self.bus.take_completed(self.cycle) {
            self.deliver(tx);
        }
        self.next_bus_at = self.bus.earliest_completion().unwrap_or(u64::MAX);
    }

    fn deliver(&mut self, tx: specfetch_cache::Transaction) {
        match tx.purpose {
            Purpose::Prefetch | Purpose::TargetPrefetch => {
                let pending = self
                    .pending
                    .and_then(|p| (p.state == MissState::PrefetchWait).then_some(p.line));
                if self.prefetchers.complete(tx.purpose, tx.line, pending, &mut self.icache) {
                    self.pending = None;
                }
            }
            Purpose::DemandCorrect | Purpose::DemandWrong => {
                if self.orphan_fills.remove(&tx.line) {
                    // A squashed wrong-path fill. If the correct path is
                    // already waiting for this very line, deliver it
                    // straight to the cache; otherwise park it in the
                    // resume buffer (or the cache when the single-line
                    // buffer is occupied — pipelined-bus case).
                    let waiting = self
                        .pending
                        .is_some_and(|p| p.line == tx.line && p.state == MissState::PrefetchWait);
                    if waiting {
                        self.icache.fill(tx.line);
                        self.pending = None;
                    } else if self.resume_buf.is_occupied() {
                        self.icache.fill(tx.line);
                    } else {
                        self.resume_buf.park(tx.line);
                    }
                } else {
                    self.icache.fill(tx.line);
                    if let Some(p) = self.pending {
                        if matches!(p.state, MissState::InFlight { .. }) {
                            debug_assert_eq!(p.line, tx.line, "fill/pending line mismatch");
                            self.pending = None;
                        }
                    }
                }
            }
        }
    }

    /// Accesses the line under `pc`; returns `true` when fetch may
    /// proceed (hit, or satisfied by a buffer), `false` when it stalls
    /// (a pending miss was created or is outstanding).
    pub(super) fn access(&mut self, pc: Addr, correct: bool) -> bool {
        let line = pc.line(self.cfg.icache.line_bytes);
        let hit = self.icache.access(line);

        // A retry of the access that stalled fetch (the fill just landed)
        // is the same architectural reference: don't count it twice.
        let retry = self.last_blocked == Some((pc, correct));
        if !retry {
            let shadow_hit = if correct {
                self.shadow.as_mut().map(|sh| {
                    let h = sh.access(line);
                    if !h {
                        sh.fill(line);
                    }
                    h
                })
            } else {
                None
            };
            if correct {
                self.cache_correct.accesses += 1;
                if !hit {
                    self.cache_correct.misses += 1;
                }
                if let Some(sh) = shadow_hit {
                    self.classification.correct_accesses += 1;
                    match (hit, sh) {
                        (false, false) => self.classification.both_miss += 1,
                        (false, true) => self.classification.spec_pollute += 1,
                        (true, false) => self.classification.spec_prefetch += 1,
                        (true, true) => {}
                    }
                }
            } else {
                self.cache_wrong.accesses += 1;
                if !hit {
                    self.cache_wrong.misses += 1;
                    if self.shadow.is_some() {
                        self.classification.wrong_path += 1;
                    }
                }
            }
        }

        if hit {
            self.last_blocked = None;
            self.prefetchers.on_hit(
                self.cycle,
                line,
                &mut self.icache,
                &mut self.bus,
                self.cfg.miss_penalty,
            );
            return true;
        }
        if self.on_miss(line, correct) {
            self.last_blocked = None;
            true
        } else {
            self.last_blocked = Some((pc, correct));
            false
        }
    }

    /// Handles a demand miss; returns `true` if a buffer satisfied it.
    fn on_miss(&mut self, line: LineAddr, correct: bool) -> bool {
        debug_assert!(self.pending.is_none(), "nested miss while one is pending");

        match self.prefetchers.on_demand_miss(line, &mut self.icache) {
            MissOutcome::Served => return true,
            MissOutcome::Pending => {
                self.pending = Some(PendingMiss { line, state: MissState::PrefetchWait });
                return false;
            }
            MissOutcome::Unserved => {}
        }

        if self.drain_resume(line) {
            return true;
        }

        // The missing line may already be on its way (a prefetch, or an
        // orphaned wrong-path fill on a pipelined bus).
        if self.bus.in_flight(line) {
            self.pending = Some(PendingMiss { line, state: MissState::PrefetchWait });
            return false;
        }

        // No buffer holds the line: the policy's gate decides.
        let view = GateView::new(
            self.cycle,
            !correct,
            self.cond_in_flight,
            self.cfg.decode_latency,
            self.last_fetch_cycle,
            &self.inflight,
        );
        let state = match self.gate.decide(&view) {
            GateDecision::Squash => {
                // Halt the walk and idle out the branch penalty.
                if let Mode::Wrong { walk, .. } = &mut self.mode {
                    *walk = None;
                }
                return false;
            }
            GateDecision::Proceed => MissState::BusWait,
            GateDecision::ForceWait { until } => MissState::ForceWait { until },
        };
        self.pending = Some(PendingMiss { line, state });
        // Give zero-length gates and a free bus the chance to issue in
        // this same cycle (the fill latency still blocks the slot).
        self.advance_pending();
        false
    }

    /// Advances the pending-miss state machine; returns `true` when the
    /// miss has been satisfied and fetch may proceed this cycle.
    pub(super) fn advance_pending(&mut self) -> bool {
        let Some(p) = self.pending else { return true };
        match p.state {
            MissState::ForceWait { until } if self.cycle >= until => {
                self.try_issue(p.line);
                self.pending.is_none()
            }
            MissState::BusWait => {
                self.try_issue(p.line);
                self.pending.is_none()
            }
            MissState::PrefetchWait if !self.bus.in_flight(p.line) => {
                // The awaited prefetch was superseded (stream restart) or
                // its data was dropped: fall back to a demand fill.
                self.try_issue(p.line);
                self.pending.is_none()
            }
            _ => false,
        }
    }

    /// Writes the resume buffer's line into the cache, unconditionally
    /// ("at the next I-cache miss"); returns `true` when it was `line`, so
    /// the miss needs no memory request (the paper's index check).
    fn drain_resume(&mut self, line: LineAddr) -> bool {
        let parked = self.resume_buf.take();
        if let Some(parked) = parked {
            self.icache.fill(parked);
        }
        parked == Some(line)
    }

    fn try_issue(&mut self, line: LineAddr) {
        // A prefetch or an orphaned resume-buffer fill may have delivered
        // (or be delivering) the line while we were gated; the paper calls
        // out the resume-buffer index check explicitly.
        if self.icache.contains(line) {
            self.pending = None;
            return;
        }
        if self.drain_resume(line) {
            self.pending = None;
            return;
        }
        if self.prefetchers.satisfy_gated(line, &mut self.icache) {
            self.pending = None;
            return;
        }
        if self.bus.in_flight(line) {
            self.pending = Some(PendingMiss { line, state: MissState::PrefetchWait });
            return;
        }
        if self.bus.is_free() {
            let wrong_issue = matches!(self.mode, Mode::Wrong { .. });
            let purpose = if wrong_issue { Purpose::DemandWrong } else { Purpose::DemandCorrect };
            let done = self.bus.start(self.cycle, line, self.cfg.miss_penalty, purpose);
            self.next_bus_at = self.next_bus_at.min(done);
            self.pending = Some(PendingMiss { line, state: MissState::InFlight { wrong_issue } });
        } else {
            self.pending = Some(PendingMiss { line, state: MissState::BusWait });
        }
    }
}
