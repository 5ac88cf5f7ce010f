//! Fetch stage: per-cycle slot issue along the believed path, branch
//! prediction, and divergence detection.

use specfetch_isa::{Addr, DynInstr, InstrKind};

use super::{needs_resolution, Cause, Engine, Inflight, Mode, Trigger};

impl Engine {
    /// Runs one cycle's fetch slots. Returns the charge cause when the
    /// *whole* cycle stalled without issuing a slot — the precondition for
    /// [`Engine::fast_forward_stall`] — and `None` otherwise.
    pub(super) fn fetch_phase(&mut self) -> Option<Cause> {
        let width = self.cfg.issue_width as u64;
        let mut slot = 0u64;
        while slot < width {
            if self.pending.is_some() && !self.advance_pending() {
                let cause = self.stall_cause();
                self.lose(width - slot, cause);
                return (slot == 0).then_some(cause);
            }
            match self.mode {
                Mode::Correct => {
                    let Some(d) = self.next_correct else {
                        self.unused_end_slots += width - slot;
                        return None;
                    };
                    // Run batch: a run of non-transfer instructions
                    // within one cache line needs a single access and no
                    // branch machinery — issue it as a block. This is
                    // byte-identical to slot-at-a-time stepping: the
                    // follow-on fetches are guaranteed hits on the line
                    // just touched, and repeated same-line accesses change
                    // neither the cross-line LRU order nor any reported
                    // statistic. (Prefetchers retrigger per access, so
                    // `batch_ok` excludes them.)
                    let batch = if self.batch_ok {
                        let run = self.cursor.run_len() as u64;
                        let in_line =
                            self.line_word_mask + 1 - (d.pc.word_index() & self.line_word_mask);
                        run.min(in_line).min(width - slot)
                    } else {
                        0
                    };
                    if batch >= 2 {
                        if !self.access(d.pc, true) {
                            let cause = self.stall_cause();
                            self.lose(width - slot, cause);
                            return (slot == 0).then_some(cause);
                        }
                        self.cache_correct.accesses += batch - 1;
                        if self.shadow.is_some() {
                            self.classification.correct_accesses += batch - 1;
                        }
                        self.correct_instrs += batch;
                        self.last_fetch_cycle = Some(self.cycle);
                        slot += batch;
                        self.cursor.skip(batch as usize);
                        self.next_correct = self.cursor.peek();
                        continue;
                    }
                    if d.kind.is_conditional() && self.cond_in_flight >= self.cfg.max_unresolved {
                        self.lose(width - slot, Cause::BranchFull);
                        return (slot == 0).then_some(Cause::BranchFull);
                    }
                    if !self.access(d.pc, true) {
                        let cause = self.stall_cause();
                        self.lose(width - slot, cause);
                        return (slot == 0).then_some(cause);
                    }
                    self.advance_correct();
                    self.correct_instrs += 1;
                    self.last_fetch_cycle = Some(self.cycle);
                    slot += 1;
                    if d.kind.is_branch() {
                        self.branch_correct(d);
                    }
                }
                Mode::Wrong { walk: None, trigger } => {
                    self.lose(width - slot, Cause::Branch(trigger));
                    return (slot == 0).then_some(Cause::Branch(trigger));
                }
                Mode::Wrong { walk: Some(pc), trigger } => {
                    let Some(kind) = self.program.fetch(pc) else {
                        // Walked off the image: halt until a redirect.
                        if let Mode::Wrong { walk, .. } = &mut self.mode {
                            *walk = None;
                        }
                        continue;
                    };
                    if kind.is_conditional() && self.cond_in_flight >= self.cfg.max_unresolved {
                        self.lose(width - slot, Cause::Branch(trigger));
                        return (slot == 0).then_some(Cause::Branch(trigger));
                    }
                    if !self.access(pc, false) {
                        let cause = self.stall_cause();
                        self.lose(width - slot, cause);
                        return (slot == 0).then_some(cause);
                    }
                    self.lose(1, Cause::Branch(trigger));
                    self.last_fetch_cycle = Some(self.cycle);
                    slot += 1;
                    if kind.is_branch() {
                        self.branch_wrong(pc, kind);
                    } else if let Mode::Wrong { walk, .. } = &mut self.mode {
                        *walk = Some(pc.next());
                    }
                }
            }
        }
        None
    }

    /// Steps the cursor past the just-issued correct-path instruction and
    /// refreshes `next_correct`.
    fn advance_correct(&mut self) {
        self.cursor.step();
        self.next_correct = self.cursor.peek();
    }

    /// Fetch-time branch handling for a correct-path branch: prediction,
    /// divergence detection, event scheduling.
    fn branch_correct(&mut self, d: DynInstr) {
        if self.cfg.target_prefetch && d.taken {
            let lb = self.cfg.icache.line_bytes;
            self.prefetchers.train(d.pc.line(lb), d.next_pc.line(lb));
        }
        let (record, fetch_guess, decode_pred) = self.predict(d.pc, d.kind, true, Some(d));
        let actual = d.next_pc;
        let diverged = !(fetch_guess == actual && decode_pred == Some(actual));
        let mut record = record;

        if diverged {
            let decode_recovers = decode_pred == Some(actual);
            record.decode_recovers = decode_recovers;
            if !decode_recovers {
                record.resolve_redirect = Some(actual).into();
            }
            let trigger = if decode_recovers {
                self.misfetches += 1;
                Trigger::Misfetch
            } else if record.is_cond && record.pred_taken != d.taken {
                self.mispredicts += 1;
                Trigger::PhtMispredict
            } else {
                self.target_mispredicts += 1;
                Trigger::BtbMispredict
            };
            self.mode = Mode::Wrong { walk: Some(fetch_guess), trigger };
        }
        self.push_inflight(record);
    }

    /// Fetch-time branch handling on a wrong path: same machinery, no
    /// ground truth, no recovery events.
    fn branch_wrong(&mut self, pc: Addr, kind: InstrKind) {
        let (record, fetch_guess, _) = self.predict(pc, kind, false, None);
        if self.cfg.target_prefetch && record.pred_taken {
            let lb = self.cfg.icache.line_bytes;
            self.prefetchers.train(pc.line(lb), fetch_guess.line(lb));
        }
        if let Mode::Wrong { walk, .. } = &mut self.mode {
            *walk = Some(fetch_guess);
        }
        self.push_inflight(record);
    }

    fn push_inflight(&mut self, record: Inflight) {
        // `process_events` stops its scan at the first undecoded record
        // that is not yet due, which is sound only while both event times
        // are nondecreasing along the queue.
        debug_assert!(
            self.inflight.back().is_none_or(
                |b| b.decode_at <= record.decode_at && b.resolve_at <= record.resolve_at
            ),
            "in-flight event times must be nondecreasing in fetch order"
        );
        if record.is_cond {
            self.cond_in_flight += 1;
        }
        self.next_event_at = self.next_event_at.min(record.decode_at);
        if needs_resolution(record.kind) {
            self.next_event_at = self.next_event_at.min(record.resolve_at);
        }
        self.inflight.push_back(record);
    }

    /// Shared prediction flow. Returns the in-flight record (events
    /// pre-filled for the *machine-visible* corrections: decode redirects
    /// and halts), the fetch-time guess, and the decode-time prediction.
    fn predict(
        &mut self,
        pc: Addr,
        kind: InstrKind,
        on_correct: bool,
        actual: Option<DynInstr>,
    ) -> (Inflight, Addr, Option<Addr>) {
        let btb = self.unit.btb_lookup(pc);
        let btb_hit = btb.is_some();
        let is_cond = kind.is_conditional();
        let pred_taken = if is_cond { self.unit.predict_cond(pc, btb_hit) } else { true };

        let ghr_snapshot = self.unit.ghr();
        if is_cond {
            self.unit.speculate_ghr(pred_taken);
        }

        // RAS maintenance (speculative, never repaired — mid-90s style).
        let ras_pred = if kind.is_return() { self.unit.ras_pop() } else { None };
        if kind.is_call() {
            self.unit.ras_push(pc.next());
        }

        let static_target = kind.static_target();
        let fetch_guess = match btb {
            Some(h) => match kind {
                InstrKind::CondBranch { target } => {
                    if pred_taken {
                        target
                    } else {
                        pc.next()
                    }
                }
                InstrKind::Jump { target } | InstrKind::Call { target } => target,
                InstrKind::Return => ras_pred.unwrap_or(h.target),
                InstrKind::IndirectJump | InstrKind::IndirectCall => h.target,
                InstrKind::Seq => unreachable!("predict() is only called for branches"),
            },
            None => pc.next(),
        };

        let decode_pred: Option<Addr> = match kind {
            InstrKind::CondBranch { target } => Some(if pred_taken { target } else { pc.next() }),
            InstrKind::Jump { target } | InstrKind::Call { target } => Some(target),
            InstrKind::Return => ras_pred,
            InstrKind::IndirectJump | InstrKind::IndirectCall => btb.map(|h| h.target),
            InstrKind::Seq => unreachable!("predict() is only called for branches"),
        };

        // Speculative BTB update after decode: believed-taken branches
        // insert their believed target (wrong paths included).
        let believed_taken = !is_cond || pred_taken;
        let insert_target = if believed_taken {
            match kind {
                InstrKind::CondBranch { .. } | InstrKind::Jump { .. } | InstrKind::Call { .. } => {
                    static_target
                }
                _ => decode_pred,
            }
        } else {
            None
        };

        // Correct-path returns/indirects train the BTB with the actual
        // target at resolve.
        let resolve_insert_target = match kind {
            InstrKind::Return | InstrKind::IndirectJump | InstrKind::IndirectCall => {
                actual.map(|d| d.next_pc)
            }
            _ => None,
        };

        let decode_redirect = match decode_pred {
            Some(dp) if dp != fetch_guess => Some(dp),
            _ => None,
        };

        let record = Inflight {
            pc,
            kind,
            decode_at: self.cycle + self.cfg.decode_latency,
            resolve_at: self.cycle + self.cfg.resolve_latency,
            decode_done: false,
            resolved: false,
            is_cond,
            on_correct,
            pred_taken,
            insert_target: insert_target.into(),
            decode_redirect: decode_redirect.into(),
            decode_recovers: false,
            halt_at_decode: decode_pred.is_none(),
            resolve_redirect: None.into(),
            resolve_insert_target: resolve_insert_target.into(),
            actual_taken: actual.map(|d| d.taken).unwrap_or(pred_taken),
            ghr_snapshot,
        };
        (record, fetch_guess, decode_pred)
    }
}
