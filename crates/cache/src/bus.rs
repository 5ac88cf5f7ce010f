//! The single-transaction channel to the next memory level.

use std::fmt;

use specfetch_isa::LineAddr;

/// Why a line is being fetched over the bus.
///
/// The purpose drives both ISPI attribution (a correct-path fetch stalling
/// behind a `DemandWrong` or `Prefetch` transaction is the paper's `bus`
/// component) and the memory-traffic tables.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Purpose {
    /// A demand miss on the (believed-)correct path.
    DemandCorrect,
    /// A demand miss issued while on a wrong path.
    DemandWrong,
    /// A next-line or stream-buffer prefetch.
    Prefetch,
    /// A branch-target prefetch (the Smith & Hsu '92 extension).
    TargetPrefetch,
}

impl fmt::Display for Purpose {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Purpose::DemandCorrect => write!(f, "demand-correct"),
            Purpose::DemandWrong => write!(f, "demand-wrong"),
            Purpose::Prefetch => write!(f, "prefetch"),
            Purpose::TargetPrefetch => write!(f, "target-prefetch"),
        }
    }
}

/// An in-flight line fill.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// The line being fetched.
    pub line: LineAddr,
    /// Cycle at which the fill completes (data available).
    pub complete_at: u64,
    /// Why it was issued.
    pub purpose: Purpose,
}

/// The channel between the I-cache and the next hierarchy level.
///
/// The paper's machine allows **one** outstanding transaction (the
/// default, [`Bus::new`]); [`Bus::with_slots`] models the paper's §6
/// future-work idea of *pipelined miss requests* — up to `slots` fills in
/// flight, each still taking the full penalty. A new request must wait
/// for [`Bus::is_free`]. Completions are polled by the engine each cycle
/// via [`Bus::take_completed`]. Total traffic per [`Purpose`] is counted
/// for the paper's bandwidth tables (Tables 4 and 7).
///
/// # Examples
///
/// ```
/// use specfetch_cache::{Bus, Purpose};
/// use specfetch_isa::LineAddr;
///
/// let mut bus = Bus::new();
/// assert!(bus.is_free());
/// bus.start(10, LineAddr::new(3), 5, Purpose::DemandCorrect);
/// assert!(!bus.is_free());
/// assert!(bus.take_completed(14).is_none()); // still in flight
/// let tx = bus.take_completed(15).unwrap();
/// assert_eq!(tx.line, LineAddr::new(3));
/// assert!(bus.is_free());
/// ```
#[derive(Clone, Debug)]
pub struct Bus {
    slots: usize,
    in_flight: Vec<Transaction>,
    demand_correct: u64,
    demand_wrong: u64,
    prefetches: u64,
    target_prefetches: u64,
}

impl Default for Bus {
    fn default() -> Self {
        Bus::new()
    }
}

impl Bus {
    /// An idle single-transaction bus (the paper's configuration).
    pub fn new() -> Self {
        Bus::with_slots(1)
    }

    /// A bus allowing up to `slots` pipelined fills (§6 future work).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots > 0, "bus needs at least one transaction slot");
        Bus {
            slots,
            in_flight: Vec::with_capacity(slots),
            demand_correct: 0,
            demand_wrong: 0,
            prefetches: 0,
            target_prefetches: 0,
        }
    }

    /// Can a new transaction start?
    pub fn is_free(&self) -> bool {
        self.in_flight.len() < self.slots
    }

    /// The oldest in-flight transaction, if any.
    pub fn current(&self) -> Option<&Transaction> {
        self.in_flight.first()
    }

    /// Is any fill of `line` in flight (any purpose)?
    pub fn in_flight(&self, line: LineAddr) -> bool {
        self.in_flight.iter().any(|t| t.line == line)
    }

    /// Starts a fill of `line` at cycle `now` with the given miss penalty;
    /// returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if no slot is available — the engine must check
    /// [`Bus::is_free`] first (an over-subscribed bus is an engine bug,
    /// not a runtime condition).
    pub fn start(&mut self, now: u64, line: LineAddr, penalty: u64, purpose: Purpose) -> u64 {
        assert!(self.is_free(), "all bus transaction slots are occupied");
        let complete_at = now + penalty;
        self.in_flight.push(Transaction { line, complete_at, purpose });
        match purpose {
            Purpose::DemandCorrect => self.demand_correct += 1,
            Purpose::DemandWrong => self.demand_wrong += 1,
            Purpose::Prefetch => self.prefetches += 1,
            Purpose::TargetPrefetch => self.target_prefetches += 1,
        }
        complete_at
    }

    /// Removes and returns one transaction that has completed by cycle
    /// `now` (oldest first); call repeatedly until `None` to drain a
    /// pipelined bus.
    pub fn take_completed(&mut self, now: u64) -> Option<Transaction> {
        let idx = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, t)| t.complete_at <= now)
            .min_by_key(|(_, t)| t.complete_at)
            .map(|(i, _)| i)?;
        Some(self.in_flight.remove(idx))
    }

    /// The completion cycle of the transaction that finishes first, if
    /// any is in flight. Lets the engine fast-forward over cycles in
    /// which nothing can happen.
    pub fn earliest_completion(&self) -> Option<u64> {
        self.in_flight.iter().map(|t| t.complete_at).min()
    }

    /// Completed-or-started demand fills on the believed-correct path.
    pub fn demand_correct_count(&self) -> u64 {
        self.demand_correct
    }

    /// Demand fills issued on wrong paths.
    pub fn demand_wrong_count(&self) -> u64 {
        self.demand_wrong
    }

    /// Next-line and stream-buffer prefetch fills issued.
    pub fn prefetch_count(&self) -> u64 {
        self.prefetches
    }

    /// Target-prefetch fills issued.
    pub fn target_prefetch_count(&self) -> u64 {
        self.target_prefetches
    }

    /// Is any in-flight transaction a prefetch of `line`?
    pub fn prefetch_in_flight(&self, line: LineAddr) -> bool {
        self.in_flight.iter().any(|t| {
            t.line == line && matches!(t.purpose, Purpose::Prefetch | Purpose::TargetPrefetch)
        })
    }

    /// Total memory transactions (the traffic number of Tables 4 and 7).
    pub fn total_traffic(&self) -> u64 {
        self.demand_correct + self.demand_wrong + self.prefetches + self.target_prefetches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_and_completes() {
        let mut bus = Bus::new();
        let done = bus.start(100, LineAddr::new(1), 20, Purpose::DemandCorrect);
        assert_eq!(done, 120);
        assert!(bus.take_completed(119).is_none());
        let tx = bus.take_completed(120).unwrap();
        assert_eq!(tx.purpose, Purpose::DemandCorrect);
        assert!(bus.is_free());
    }

    #[test]
    fn late_poll_still_delivers() {
        let mut bus = Bus::new();
        bus.start(0, LineAddr::new(1), 5, Purpose::Prefetch);
        assert!(bus.take_completed(500).is_some());
    }

    #[test]
    #[should_panic]
    fn double_start_panics() {
        let mut bus = Bus::new();
        bus.start(0, LineAddr::new(1), 5, Purpose::DemandCorrect);
        bus.start(1, LineAddr::new(2), 5, Purpose::DemandCorrect);
    }

    #[test]
    fn traffic_counted_by_purpose() {
        let mut bus = Bus::new();
        bus.start(0, LineAddr::new(1), 1, Purpose::DemandCorrect);
        bus.take_completed(1);
        bus.start(1, LineAddr::new(2), 1, Purpose::DemandWrong);
        bus.take_completed(2);
        bus.start(2, LineAddr::new(3), 1, Purpose::Prefetch);
        bus.take_completed(3);
        assert_eq!(bus.demand_correct_count(), 1);
        assert_eq!(bus.demand_wrong_count(), 1);
        assert_eq!(bus.prefetch_count(), 1);
        assert_eq!(bus.total_traffic(), 3);
    }

    #[test]
    fn pipelined_bus_overlaps_transactions() {
        let mut bus = Bus::with_slots(2);
        bus.start(0, LineAddr::new(1), 10, Purpose::DemandCorrect);
        assert!(bus.is_free(), "second slot available");
        bus.start(2, LineAddr::new(2), 10, Purpose::Prefetch);
        assert!(!bus.is_free());
        assert!(bus.in_flight(LineAddr::new(1)));
        assert!(bus.in_flight(LineAddr::new(2)));
        // Oldest completion drains first.
        let a = bus.take_completed(12).unwrap();
        assert_eq!(a.line, LineAddr::new(1));
        assert!(bus.is_free());
        let b = bus.take_completed(12).unwrap();
        assert_eq!(b.line, LineAddr::new(2));
        assert!(bus.take_completed(100).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_slot_bus_rejected() {
        let _ = Bus::with_slots(0);
    }

    #[test]
    fn purpose_display_nonempty() {
        for p in [
            Purpose::DemandCorrect,
            Purpose::DemandWrong,
            Purpose::Prefetch,
            Purpose::TargetPrefetch,
        ] {
            assert!(!p.to_string().is_empty());
        }
    }

    #[test]
    fn target_prefetches_counted_separately() {
        let mut bus = Bus::new();
        bus.start(0, LineAddr::new(1), 1, Purpose::TargetPrefetch);
        assert!(bus.prefetch_in_flight(LineAddr::new(1)));
        assert!(!bus.prefetch_in_flight(LineAddr::new(2)));
        bus.take_completed(1);
        assert_eq!(bus.target_prefetch_count(), 1);
        assert_eq!(bus.prefetch_count(), 0);
        assert_eq!(bus.total_traffic(), 1);
    }
}
