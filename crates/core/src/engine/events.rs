//! Event stage: decode/resolve firing for in-flight branches, squashes,
//! believed-path redirects, and correct-path recovery.

use specfetch_bpred::GhrUpdate;
use specfetch_isa::{Addr, InstrKind};

use super::{needs_resolution, Engine, MissState, Mode};

impl Engine {
    /// Fires every due decode/resolve event, oldest record first.
    ///
    /// Records are pushed in fetch order with `decode_at = cycle +
    /// decode_latency` and `resolve_at = cycle + resolve_latency`, and
    /// `SimConfig::validate` guarantees `decode_latency <= resolve_latency`,
    /// so both times are nondecreasing along the queue (`push_inflight`
    /// asserts it). The first record that is still undecoded and not yet
    /// decode-due therefore bounds the scan: every younger record decodes
    /// and resolves no earlier than it decodes.
    pub(super) fn process_events(&mut self) {
        // Nothing can fire before the watermark; skip the scan entirely.
        if self.cycle < self.next_event_at {
            return;
        }
        let as_of = self.cycle;
        // The next watermark, built as the scan goes: each record it steps
        // past adds its unfired resolve, and the record it stops at bounds
        // everything younger.
        let mut next = u64::MAX;
        // Events fire oldest-first; a redirect squashes everything younger,
        // so resume the scan at the redirecting record (everything older
        // has already fired whatever was due).
        let mut i = 0;
        while i < self.inflight.len() {
            // Cheap dueness probe before copying the record out: most
            // scan iterations fire nothing.
            let (decode_due, unresolved, resolve_at) = {
                let f = &self.inflight[i];
                if !f.decode_done && as_of < f.decode_at {
                    next = next.min(f.decode_at);
                    break;
                }
                (!f.decode_done, !f.resolved && needs_resolution(f.kind), f.resolve_at)
            };
            let resolve_due = unresolved && as_of >= resolve_at;
            if !decode_due && !resolve_due {
                if unresolved {
                    next = next.min(resolve_at);
                }
                i += 1;
                continue;
            }
            let f = self.inflight[i];
            if decode_due {
                self.inflight[i].decode_done = true;
                if let Some(t) = f.insert_target.get() {
                    self.unit.btb_insert(f.pc, t, f.kind);
                }
                if f.halt_at_decode {
                    self.squash_younger(i);
                    if let Mode::Wrong { walk, .. } = &mut self.mode {
                        *walk = None;
                    }
                    self.discard_path_pending();
                    continue;
                }
                if let Some(target) = f.decode_redirect.get() {
                    self.squash_younger(i);
                    if f.decode_recovers {
                        self.recover(target);
                    } else {
                        // A believed-path correction within the wrong
                        // path (or onto it). The machine sees a redirect
                        // either way, so a detaching gate re-arms the
                        // fill orphaning here too.
                        self.redirect_wrong(target);
                    }
                    continue;
                }
            }
            if resolve_due {
                self.inflight[i].resolved = true;
                if f.is_cond {
                    self.cond_in_flight -= 1;
                }
                if f.on_correct {
                    if f.is_cond {
                        self.unit.resolve_cond(f.pc, f.ghr_snapshot, f.actual_taken, f.pred_taken);
                        if self.cfg.bpred.ghr_update == GhrUpdate::Speculative
                            && f.pred_taken != f.actual_taken
                        {
                            self.unit.repair_ghr((f.ghr_snapshot << 1) | f.actual_taken as u32);
                        }
                        // Correct-path conditionals resolve in trace
                        // order, so the live history must track the
                        // trace's shared outcome stream bit-for-bit.
                        if let Some(replay) = &mut self.ghr_check {
                            let k = replay.count() as usize;
                            let taken = self.cursor.trace().cond_taken(k);
                            debug_assert_eq!(
                                taken, f.actual_taken,
                                "trace outcome stream out of sync at conditional {k}"
                            );
                            let ghr = replay.push(taken);
                            debug_assert_eq!(
                                ghr,
                                self.unit.ghr(),
                                "live history diverged from trace replay at conditional {k}"
                            );
                        }
                    } else if f.kind.is_return() {
                        self.unit.note_return_resolved(f.resolve_redirect.get().is_none());
                    } else if matches!(f.kind, InstrKind::IndirectJump | InstrKind::IndirectCall) {
                        self.unit.note_indirect_resolved(f.resolve_redirect.get().is_none());
                    }
                    if let Some(t) = f.resolve_insert_target.get() {
                        self.unit.btb_insert(f.pc, t, f.kind);
                    }
                    if let Some(target) = f.resolve_redirect.get() {
                        self.squash_younger(i);
                        self.recover(target);
                        continue;
                    }
                }
            } else if unresolved {
                // Decoded this cycle; the resolve is still ahead.
                next = next.min(resolve_at);
            }
            i += 1;
        }
        // Drop fully-processed leading records to keep the queue short.
        while let Some(f) = self.inflight.front() {
            let done = f.decode_done && (f.resolved || !needs_resolution(f.kind));
            if done {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
        if cfg!(debug_assertions) {
            let earliest = self
                .inflight
                .iter()
                .map(|f| {
                    let decode = if f.decode_done { u64::MAX } else { f.decode_at };
                    let resolve = if f.resolved || !needs_resolution(f.kind) {
                        u64::MAX
                    } else {
                        f.resolve_at
                    };
                    decode.min(resolve)
                })
                .min()
                .unwrap_or(u64::MAX);
            debug_assert!(earliest > as_of, "an event due at cycle {as_of} survived the scan");
            debug_assert_eq!(next, earliest, "event watermark out of sync with the queue");
        }
        self.next_event_at = next;
    }

    pub(super) fn squash_younger(&mut self, idx: usize) {
        while self.inflight.len() > idx + 1 {
            if let Some(f) = self.inflight.pop_back() {
                if f.is_cond && !f.resolved {
                    self.cond_in_flight -= 1;
                }
            }
        }
    }

    /// The machine redirects fetch while remaining (unknowingly) on a
    /// wrong path.
    pub(super) fn redirect_wrong(&mut self, target: Addr) {
        if let Mode::Wrong { walk, .. } = &mut self.mode {
            *walk = Some(target);
        }
        self.on_machine_visible_redirect();
    }

    /// Recovery: fetch returns to the correct path.
    pub(super) fn recover(&mut self, target: Addr) {
        debug_assert!(
            matches!(self.mode, Mode::Wrong { .. }),
            "recovery only fires from a wrong path"
        );
        if let Some(d) = self.next_correct {
            debug_assert_eq!(d.pc, target, "recovery target must match the correct stream");
        }
        self.mode = Mode::Correct;
        self.on_machine_visible_redirect();
    }

    /// Shared redirect handling: discard path-bound pending misses; under
    /// a detaching gate (Resume-style), hand an outstanding demand fill to
    /// the resume buffer and free the fetch engine.
    pub(super) fn on_machine_visible_redirect(&mut self) {
        match self.pending.map(|p| (p.state, p.line)) {
            Some((MissState::InFlight { .. }, line)) if self.gate.detaches_redirected_fill() => {
                self.orphan_fills.insert(line);
                self.pending = None;
            }
            // Optimistic/Decode: blocking — the pending fill keeps
            // stalling fetch until it completes (post-recovery slots
            // become `wrong_icache`). This arm must stay distinct from the
            // discard arm below: collapsing it would silently discard the
            // blocking fill for every policy.
            Some((MissState::InFlight { .. }, _)) => {}
            Some(_) => self.pending = None,
            None => {}
        }
    }

    /// Discard a pending miss that belonged to an abandoned believed path
    /// (used when the walk halts without a redirect target).
    pub(super) fn discard_path_pending(&mut self) {
        if let Some(p) = self.pending {
            if !matches!(p.state, MissState::InFlight { .. }) {
                self.pending = None;
            }
        }
    }
}
