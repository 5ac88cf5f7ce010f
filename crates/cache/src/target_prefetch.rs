//! Branch-target prefetching (the Smith & Hsu '92 extension).
//!
//! Where next-line prefetching covers sequential flow, *target*
//! prefetching covers taken branches: a small direct-mapped table learns,
//! per cache line, which non-sequential line execution jumped to last
//! time; when the line is fetched again, the remembered successor is
//! prefetched. Combining both (with target taking priority, as in Pierce
//! & Mudge's *wrong-path prefetching*) covers both outcomes of a
//! conditional branch.

use specfetch_isa::LineAddr;

use crate::{drain_prefetch, Bus, ICache, LineBuffer, Purpose};

/// A direct-mapped table of `line -> last taken-successor line`, with the
/// same one-line fill buffer and write rule ([`drain_prefetch`]) as the
/// next-line prefetcher.
///
/// # Examples
///
/// ```
/// use specfetch_cache::{Bus, CacheConfig, ICache, Purpose, TargetPrefetcher};
/// use specfetch_isa::LineAddr;
///
/// let mut cache = ICache::new(&CacheConfig::paper_8k());
/// let mut bus = Bus::new();
/// let mut pf = TargetPrefetcher::new(64);
///
/// cache.fill(LineAddr::new(3));
/// pf.train(LineAddr::new(3), LineAddr::new(40)); // a taken branch jumped 3 -> 40
/// pf.trigger(0, LineAddr::new(3), &mut cache, &mut bus, 5);
/// assert_eq!(bus.current().unwrap().line, LineAddr::new(40));
/// assert_eq!(bus.current().unwrap().purpose, Purpose::TargetPrefetch);
/// ```
#[derive(Clone, Debug)]
pub struct TargetPrefetcher {
    /// `table[line % len] = (line, successor)`.
    table: Vec<Option<(u64, LineAddr)>>,
    /// The completed prefetch waiting to be written.
    pub buffer: LineBuffer,
}

impl TargetPrefetcher {
    /// Creates a table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "table entries must be a power of two");
        TargetPrefetcher { table: vec![None; entries], buffer: LineBuffer::default() }
    }

    fn slot(&self, line: LineAddr) -> usize {
        (line.index() % self.table.len() as u64) as usize
    }

    /// Records that control flow left `from` for the non-sequential line
    /// `to` (called by the engine for taken branches that cross lines).
    pub fn train(&mut self, from: LineAddr, to: LineAddr) {
        if from == to || to == from.next() {
            return; // sequential flow is next-line prefetching's job
        }
        let i = self.slot(from);
        self.table[i] = Some((from.index(), to));
    }

    /// Runs the trigger for a fetch access to `line`: if a successor is
    /// remembered and absent, prefetch it (when the bus is free).
    pub fn trigger(
        &mut self,
        now: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        let Some((tag, to)) = self.table[self.slot(line)] else { return };
        if tag != line.index()
            || icache.contains(to)
            || self.buffer.holds(to)
            || bus.prefetch_in_flight(to)
            || !bus.is_free()
        {
            return;
        }
        drain_prefetch(&mut self.buffer, icache);
        bus.start(now, to, penalty, Purpose::TargetPrefetch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn setup() -> (ICache, Bus, TargetPrefetcher) {
        (ICache::new(&CacheConfig::paper_8k()), Bus::new(), TargetPrefetcher::new(64))
    }

    /// The line a trigger on `line` prefetches, if it issues one.
    fn prefetched(pf: &mut TargetPrefetcher, line: u64) -> Option<LineAddr> {
        let (mut c, mut b) = (ICache::new(&CacheConfig::paper_8k()), Bus::new());
        pf.trigger(0, LineAddr::new(line), &mut c, &mut b, 5);
        b.current().map(|tx| tx.line)
    }

    #[test]
    fn untrained_never_triggers() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert_eq!(b.total_traffic(), 0);
    }

    #[test]
    fn sequential_training_is_ignored() {
        let (_, _, mut pf) = setup();
        pf.train(LineAddr::new(5), LineAddr::new(6)); // next line
        pf.train(LineAddr::new(5), LineAddr::new(5)); // same line
        assert_eq!(prefetched(&mut pf, 5), None);
    }

    #[test]
    fn trains_and_issues() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.train(LineAddr::new(1), LineAddr::new(30));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert_eq!(b.current().unwrap().line, LineAddr::new(30));
        assert_eq!(b.target_prefetch_count(), 1);
        assert_eq!(b.prefetch_count(), 0);
    }

    #[test]
    fn retrains_to_latest_successor() {
        let (_, _, mut pf) = setup();
        pf.train(LineAddr::new(1), LineAddr::new(30));
        pf.train(LineAddr::new(1), LineAddr::new(50));
        assert_eq!(prefetched(&mut pf, 1), Some(LineAddr::new(50)));
    }

    #[test]
    fn aliasing_evicts_the_older_entry() {
        let (_, _, mut pf) = setup(); // 64 slots
        pf.train(LineAddr::new(1), LineAddr::new(30));
        pf.train(LineAddr::new(65), LineAddr::new(90)); // same slot as 1
        assert_eq!(prefetched(&mut pf, 1), None);
        assert_eq!(prefetched(&mut pf, 65), Some(LineAddr::new(90)));
    }

    #[test]
    fn covered_and_busy_cases() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        c.fill(LineAddr::new(30));
        pf.train(LineAddr::new(1), LineAddr::new(30));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5); // resident
        assert_eq!(b.total_traffic(), 0);
        pf.train(LineAddr::new(1), LineAddr::new(31));
        pf.buffer.park(LineAddr::new(31));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5); // buffered
        assert_eq!(b.total_traffic(), 0);
        assert!(pf.buffer.holds(LineAddr::new(31)), "a covered trigger does not drain");
        pf.train(LineAddr::new(1), LineAddr::new(32));
        b.start(0, LineAddr::new(99), 20, Purpose::DemandCorrect);
        pf.trigger(1, LineAddr::new(1), &mut c, &mut b, 5); // bus busy
        assert_eq!(b.target_prefetch_count(), 0);
    }

    #[test]
    fn buffer_drains_before_the_next_issue() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.train(LineAddr::new(1), LineAddr::new(30));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        pf.buffer.park(b.take_completed(5).unwrap().line);
        assert!(!c.contains(LineAddr::new(30)), "not written until drain");
        c.fill(LineAddr::new(2));
        pf.train(LineAddr::new(2), LineAddr::new(40));
        pf.trigger(6, LineAddr::new(2), &mut c, &mut b, 5);
        assert!(c.contains(LineAddr::new(30)));
        assert!(!pf.buffer.is_occupied());
        assert_eq!(b.current().unwrap().line, LineAddr::new(40));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_table_panics() {
        let _ = TargetPrefetcher::new(63);
    }
}
