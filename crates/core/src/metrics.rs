//! ISPI accounting and the per-run result bundle.

use std::fmt;

use specfetch_bpred::BpredStats;
use specfetch_cache::CacheStats;

use crate::{FetchPolicy, MissClass};

/// Lost issue slots, decomposed into the paper's six penalty components
/// (Figure 1's stacked bars), all in raw slot counts.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct IspiBreakdown {
    /// Stall because the unresolved-conditional-branch window is full.
    pub branch_full: u64,
    /// The misfetch/mispredict penalty itself: slots spent fetching (or
    /// idling) on a wrong path before the redirect that recovers it.
    pub branch: u64,
    /// Correct-path wait, imposed by Pessimistic/Decode, for previous
    /// instructions to decode/resolve before a miss may be serviced.
    pub force_resolve: u64,
    /// Correct-path wait for an I-cache fill of a correct-path miss.
    pub rt_icache: u64,
    /// Post-redirect wait for a wrong-path fill to complete (blocking
    /// policies; zero under Resume by construction).
    pub wrong_icache: u64,
    /// Correct-path wait for the bus to free (it is busy with a wrong-path
    /// fill or a prefetch).
    pub bus: u64,
}

impl IspiBreakdown {
    /// Total lost slots across all components.
    pub fn total(&self) -> u64 {
        self.branch_full
            + self.branch
            + self.force_resolve
            + self.rt_icache
            + self.wrong_icache
            + self.bus
    }

    /// The components as `(label, slots)` pairs in the paper's stacking
    /// order (bottom to top of Figure 1's bars).
    pub fn components(&self) -> [(&'static str, u64); 6] {
        [
            ("branch_full", self.branch_full),
            ("branch", self.branch),
            ("force_resolve", self.force_resolve),
            ("rt_icache", self.rt_icache),
            ("wrong_icache", self.wrong_icache),
            ("bus", self.bus),
        ]
    }
}

impl fmt::Display for IspiBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "branch_full={} branch={} force_resolve={} rt_icache={} wrong_icache={} bus={}",
            self.branch_full,
            self.branch,
            self.force_resolve,
            self.rt_icache,
            self.wrong_icache,
            self.bus
        )
    }
}

/// Everything one simulation run measures.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// The policy that produced this result.
    pub policy: FetchPolicy,
    /// Correct-path instructions issued (the ISPI denominator).
    pub correct_instrs: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Issue slots per cycle (copied from the config).
    pub issue_width: u32,
    /// Lost-slot decomposition.
    pub lost: IspiBreakdown,
    /// Lost slots on wrong paths triggered by a PHT direction mispredict
    /// (a sub-slice of `lost.branch`, for Table 3).
    pub pht_mispredict_slots: u64,
    /// Lost slots on wrong paths triggered by a BTB misfetch (sub-slice of
    /// `lost.branch`).
    pub btb_misfetch_slots: u64,
    /// Lost slots on wrong paths triggered by a wrong BTB/RAS target
    /// (sub-slice of `lost.branch`).
    pub btb_mispredict_slots: u64,
    /// Count of misfetched correct-path branches.
    pub misfetches: u64,
    /// Count of direction-mispredicted correct-path conditional branches.
    pub mispredicts: u64,
    /// Count of target-mispredicted correct-path transfers
    /// (returns/indirect with a wrong or unavailable predicted target).
    pub target_mispredicts: u64,
    /// I-cache statistics, split by path. `cache_correct` counts one
    /// access per correct-path instruction (its miss ratio is the paper's
    /// Table 3 miss rate); `cache_wrong` counts wrong-path fetch accesses.
    pub cache_correct: CacheStats,
    /// Wrong-path fetch accesses.
    pub cache_wrong: CacheStats,
    /// Branch-prediction accuracy counters.
    pub bpred: BpredStats,
    /// Memory transactions: correct-path demand fills.
    pub traffic_demand_correct: u64,
    /// Memory transactions: wrong-path demand fills.
    pub traffic_demand_wrong: u64,
    /// Memory transactions: next-line and stream-buffer prefetches.
    pub traffic_prefetch: u64,
    /// Memory transactions: target prefetches (zero unless the
    /// target-prefetch extension is enabled).
    pub traffic_target_prefetch: u64,
    /// Table 4 miss classification (present when the config enabled
    /// `classify`).
    pub classification: Option<MissClass>,
    /// Prefetches issued (0 when prefetching is disabled).
    pub prefetches_issued: u64,
    /// Demand misses satisfied by the prefetch buffer or an in-flight
    /// prefetch.
    pub prefetch_hits: u64,
}

impl SimResult {
    /// Issue slots lost per correct-path instruction — the paper's primary
    /// metric.
    pub fn ispi(&self) -> f64 {
        if self.correct_instrs == 0 {
            0.0
        } else {
            self.lost.total() as f64 / self.correct_instrs as f64
        }
    }

    /// One component of the ISPI, as slots per instruction.
    pub fn ispi_component(&self, slots: u64) -> f64 {
        if self.correct_instrs == 0 {
            0.0
        } else {
            slots as f64 / self.correct_instrs as f64
        }
    }

    /// Correct-path I-cache miss rate in percent (Table 3's metric: one
    /// access per instruction).
    pub fn miss_rate_pct(&self) -> f64 {
        100.0 * self.cache_correct.miss_ratio()
    }

    /// Total memory transactions (Tables 4 and 7 compare these).
    pub fn total_traffic(&self) -> u64 {
        self.traffic_demand_correct
            + self.traffic_demand_wrong
            + self.traffic_prefetch
            + self.traffic_target_prefetch
    }

    /// The accounting identity every run must satisfy:
    /// `cycles × width == issued + lost`.
    pub fn slots_balance(&self) -> bool {
        self.cycles * self.issue_width as u64 == self.correct_instrs + self.lost.total()
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: ISPI {:.3} over {} instrs ({} cycles; miss {:.2}%; traffic {})",
            self.policy,
            self.ispi(),
            self.correct_instrs,
            self.cycles,
            self.miss_rate_pct(),
            self.total_traffic()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            policy: FetchPolicy::Resume,
            correct_instrs: 1000,
            cycles: 500,
            issue_width: 4,
            lost: IspiBreakdown {
                branch_full: 100,
                branch: 300,
                force_resolve: 0,
                rt_icache: 400,
                wrong_icache: 100,
                bus: 100,
            },
            pht_mispredict_slots: 200,
            btb_misfetch_slots: 80,
            btb_mispredict_slots: 20,
            misfetches: 10,
            mispredicts: 12,
            target_mispredicts: 1,
            cache_correct: CacheStats { accesses: 1000, misses: 30, fills: 30 },
            cache_wrong: CacheStats { accesses: 200, misses: 10, fills: 8 },
            bpred: BpredStats::default(),
            traffic_demand_correct: 30,
            traffic_demand_wrong: 8,
            traffic_prefetch: 0,
            traffic_target_prefetch: 0,
            classification: None,
            prefetches_issued: 0,
            prefetch_hits: 0,
        }
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = sample().lost;
        assert_eq!(b.total(), 1000);
        let sum: u64 = b.components().iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, b.total());
    }

    #[test]
    fn ispi_is_slots_per_instruction() {
        let r = sample();
        assert!((r.ispi() - 1.0).abs() < 1e-12);
        assert!((r.ispi_component(r.lost.rt_icache) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn slots_balance_checks_identity() {
        let r = sample();
        assert!(r.slots_balance()); // 500*4 == 1000 + 1000
        let mut bad = sample();
        bad.cycles += 1;
        assert!(!bad.slots_balance());
    }

    #[test]
    fn miss_rate_and_traffic() {
        let r = sample();
        assert!((r.miss_rate_pct() - 3.0).abs() < 1e-12);
        assert_eq!(r.total_traffic(), 38);
    }

    #[test]
    fn empty_run_has_zero_ispi() {
        let mut r = sample();
        r.correct_instrs = 0;
        assert_eq!(r.ispi(), 0.0);
        assert_eq!(r.ispi_component(100), 0.0);
    }

    #[test]
    fn display_mentions_policy_and_ispi() {
        let s = sample().to_string();
        assert!(s.contains("Resume"));
        assert!(s.contains("ISPI"));
    }
}
