//! Replaying the resolve-order outcome stream of a recorded run.
//!
//! Under the paper's resolve-time history update ([`GhrUpdate::AtResolve`],
//! the default), the global history register is a *pure function* of the
//! conditional direction stream in resolve order: each correct-path
//! conditional shifts its actual direction in at resolution, and nothing
//! else touches the register. That stream is a property of the trace, not
//! of the cache geometry, miss penalty, or fetch policy — so a recording's
//! direction bits can be replayed to reproduce the exact history evolution
//! of any simulation over that trace.
//!
//! [`OutcomeReplay`] is that replay: feed it the directions in resolve
//! order and it yields the history register after each one. Engines running
//! over a shared recorded trace use it to cross-check their live predictor
//! state against the trace's stream (a cheap, config-independent
//! invariant).
//!
//! The same does *not* hold for fetch-time state — BTB and RAS contents
//! depend on wrong-path fetch volume, and predictions read the history
//! mid-flight where its staleness depends on stall timing — which is why
//! the replay reproduces the resolve-order layer only.
//!
//! # Examples
//!
//! ```
//! use specfetch_bpred::OutcomeReplay;
//!
//! let mut r = OutcomeReplay::new(3);
//! assert_eq!(r.push(true), 0b1);
//! assert_eq!(r.push(true), 0b11);
//! assert_eq!(r.push(false), 0b110);
//! assert_eq!(r.push(true), 0b101); // oldest bit shifted out of 3-bit history
//! assert_eq!(r.count(), 4);
//! ```

use crate::GhrUpdate;

/// Reproduces the global-history evolution of a resolve-order direction
/// stream (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct OutcomeReplay {
    ghr: u32,
    mask: u32,
    count: u64,
}

impl OutcomeReplay {
    /// A replay over a `ghr_bits`-bit history register, starting (like
    /// [`crate::BranchUnit`]) from all-zero history.
    pub fn new(ghr_bits: u32) -> Self {
        let mask = if ghr_bits == 0 { 0 } else { (1u32 << ghr_bits) - 1 };
        OutcomeReplay { ghr: 0, mask, count: 0 }
    }

    /// Feeds the next resolved direction; returns the history register
    /// after the shift (what [`crate::BranchUnit::ghr`] reads once the
    /// same conditional has resolved).
    #[inline]
    pub fn push(&mut self, taken: bool) -> u32 {
        self.ghr = ((self.ghr << 1) | taken as u32) & self.mask;
        self.count += 1;
        self.ghr
    }

    /// The history register after the directions fed so far.
    pub fn ghr(&self) -> u32 {
        self.ghr
    }

    /// Number of directions fed so far (the next conditional's resolve
    /// ordinal).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether this replay models the given history-update policy: only
    /// resolve-time update makes the history a function of the resolve
    /// stream alone (speculative update inserts *predicted* bits at fetch
    /// and repairs on mispredicts, which is timing-dependent).
    pub fn models(update: GhrUpdate) -> bool {
        update == GhrUpdate::AtResolve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BpredConfig, BranchUnit};
    use specfetch_isa::Addr;

    /// The replay must track a live unit's history bit-for-bit under
    /// resolve-time update, whatever the prediction outcomes were.
    #[test]
    fn matches_live_unit_under_at_resolve() {
        let cfg = BpredConfig::paper();
        assert!(OutcomeReplay::models(cfg.ghr_update));
        let mut unit = BranchUnit::new(&cfg);
        let mut replay = OutcomeReplay::new(cfg.ghr_bits);
        // A pseudo-random direction stream over a few branch addresses.
        let mut x = 0x2545f491u32;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let taken = x & 1 == 1;
            let pc = Addr::new(0x1000 + (u64::from(x >> 1) % 64) * 4);
            let predicted = unit.predict_cond(pc, x & 2 == 2);
            unit.speculate_ghr(predicted); // no-op under AtResolve
            unit.resolve_cond(pc, unit.ghr(), taken, predicted);
            assert_eq!(replay.push(taken), unit.ghr(), "diverged at resolve {i}");
        }
        assert_eq!(replay.count(), 500);
    }

    #[test]
    fn zero_bit_history_stays_zero() {
        let mut r = OutcomeReplay::new(0);
        assert_eq!(r.push(true), 0);
        assert_eq!(r.push(true), 0);
        assert_eq!(r.ghr(), 0);
        assert_eq!(r.count(), 2);
    }

    #[test]
    fn window_is_the_last_ghr_bits_directions() {
        let mut r = OutcomeReplay::new(4);
        for taken in [true, false, true, true, false, true] {
            r.push(taken);
        }
        // Last four directions: 1, 1, 0, 1.
        assert_eq!(r.ghr(), 0b1101);
    }

    #[test]
    fn speculative_update_is_not_modelled() {
        assert!(!OutcomeReplay::models(GhrUpdate::Speculative));
    }
}
