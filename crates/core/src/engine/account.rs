//! Account stage: attribution of lost issue slots to the six ISPI
//! components (DESIGN.md priority rules).

use super::{Cause, Engine, MissState, Mode, Trigger};

impl Engine {
    pub(super) fn lose(&mut self, slots: u64, cause: Cause) {
        match cause {
            Cause::BranchFull => self.lost.branch_full += slots,
            Cause::Branch(t) => {
                self.lost.branch += slots;
                match t {
                    Trigger::Misfetch => self.btb_misfetch_slots += slots,
                    Trigger::PhtMispredict => self.pht_mispredict_slots += slots,
                    Trigger::BtbMispredict => self.btb_mispredict_slots += slots,
                }
            }
            Cause::ForceResolve => self.lost.force_resolve += slots,
            Cause::RtICache => self.lost.rt_icache += slots,
            Cause::WrongICache => self.lost.wrong_icache += slots,
            Cause::Bus => self.lost.bus += slots,
        }
    }

    /// Attribution of a stalled slot, per the DESIGN.md priority rules.
    pub(super) fn stall_cause(&self) -> Cause {
        if let Mode::Wrong { trigger, .. } = self.mode {
            return Cause::Branch(trigger);
        }
        match self.pending.map(|p| p.state) {
            Some(MissState::ForceWait { .. }) => Cause::ForceResolve,
            Some(MissState::BusWait) => Cause::Bus,
            Some(MissState::InFlight { wrong_issue: true }) => Cause::WrongICache,
            Some(MissState::InFlight { wrong_issue: false }) => Cause::RtICache,
            Some(MissState::PrefetchWait) => Cause::RtICache,
            None => Cause::RtICache,
        }
    }
}
