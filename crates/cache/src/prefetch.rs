//! Next-line prefetching ("maximal fetchahead and first time referenced").

use specfetch_isa::LineAddr;

use crate::{Bus, ICache, LineBuffer, Purpose};

/// Writes a prefetch buffer's parked line into the cache unless it is
/// already resident: "written before the next prefetch is issued or at
/// the next I-cache miss, whichever comes first" (§3). Both prefetchers
/// write by this rule; the Resume path writes its line unconditionally.
pub fn drain_prefetch(buffer: &mut LineBuffer, icache: &mut ICache) {
    if let Some(line) = buffer.take() {
        if !icache.contains(line) {
            icache.fill(line);
        }
    }
}

/// The paper's next-line prefetch variant.
///
/// When a line is loaded into the cache its first-time-referenced bit is
/// set (see [`ICache::fill`]). When the fetch unit reads from a line whose
/// bit is set, the prefetcher tries to fetch line *i+1*: if it is already
/// resident (or buffered, or in flight) the bit is simply cleared; if the
/// bus is free a prefetch is issued (and the bit cleared); if the bus is
/// busy nothing happens and the trigger retries on a later access.
///
/// A completed prefetch parks in [`NextLinePrefetcher::buffer`] and is
/// written by [`drain_prefetch`]; the prefetcher itself drains the buffer
/// before it issues, the engine at every I-cache miss.
///
/// # Examples
///
/// ```
/// use specfetch_cache::{Bus, CacheConfig, ICache, NextLinePrefetcher};
/// use specfetch_isa::LineAddr;
///
/// let mut cache = ICache::new(&CacheConfig::paper_8k());
/// let mut bus = Bus::new();
/// let mut pf = NextLinePrefetcher::default();
///
/// cache.fill(LineAddr::new(10)); // sets the first-ref bit
/// pf.trigger(0, LineAddr::new(10), &mut cache, &mut bus, 5);
/// assert!(!cache.first_ref_set(LineAddr::new(10)));
/// assert_eq!(bus.current().unwrap().line, LineAddr::new(11));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct NextLinePrefetcher {
    /// The completed prefetch waiting to be written.
    pub buffer: LineBuffer,
}

impl NextLinePrefetcher {
    /// Runs the trigger check for a fetch access to `line` (which hit in
    /// the cache). `penalty` is the line-fill latency.
    pub fn trigger(
        &mut self,
        now: u64,
        line: LineAddr,
        icache: &mut ICache,
        bus: &mut Bus,
        penalty: u64,
    ) {
        if !icache.first_ref_set(line) {
            return;
        }
        let next = line.next();
        if icache.contains(next) || self.buffer.holds(next) || bus.in_flight(next) {
            icache.clear_first_ref(line);
            return;
        }
        if !bus.is_free() {
            return;
        }
        drain_prefetch(&mut self.buffer, icache);
        icache.clear_first_ref(line);
        bus.start(now, next, penalty, Purpose::Prefetch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn setup() -> (ICache, Bus, NextLinePrefetcher) {
        (ICache::new(&CacheConfig::paper_8k()), Bus::new(), NextLinePrefetcher::default())
    }

    /// Completes the bus's oldest transaction into the prefetch buffer.
    fn land(b: &mut Bus, pf: &mut NextLinePrefetcher, now: u64) {
        pf.buffer.park(b.take_completed(now).unwrap().line);
    }

    #[test]
    fn no_trigger_without_first_ref_bit() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        c.clear_first_ref(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(b.is_free());
        assert_eq!(b.total_traffic(), 0);
    }

    #[test]
    fn issues_and_clears_bit() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(!c.first_ref_set(LineAddr::new(1)));
        assert_eq!(b.current().unwrap().line, LineAddr::new(2));
        assert_eq!(b.current().unwrap().purpose, Purpose::Prefetch);
        // Second access: bit clear, no re-trigger.
        b.take_completed(5);
        pf.trigger(6, LineAddr::new(1), &mut c, &mut b, 5);
        assert_eq!(b.prefetch_count(), 1);
    }

    #[test]
    fn already_resident_clears_bit_without_traffic() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        c.fill(LineAddr::new(2));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(!c.first_ref_set(LineAddr::new(1)));
        assert_eq!(b.total_traffic(), 0);
    }

    #[test]
    fn buffered_next_line_clears_bit_without_traffic() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.buffer.park(LineAddr::new(2));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(!c.first_ref_set(LineAddr::new(1)));
        assert_eq!(b.total_traffic(), 0);
        assert!(pf.buffer.holds(LineAddr::new(2)), "a covered trigger does not drain");
    }

    #[test]
    fn busy_bus_leaves_bit_set_for_retry() {
        let (mut c, mut b, mut pf) = setup();
        b.start(0, LineAddr::new(99), 20, Purpose::DemandCorrect);
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(c.first_ref_set(LineAddr::new(1)), "bit must stay set for retry");
        assert_eq!(b.prefetch_count(), 0);
        // Bus frees up; retry succeeds.
        b.take_completed(20);
        pf.trigger(21, LineAddr::new(1), &mut c, &mut b, 5);
        assert_eq!(b.prefetch_count(), 1);
        assert!(!c.first_ref_set(LineAddr::new(1)));
    }

    #[test]
    fn in_flight_prefetch_counts_as_covered() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5); // line 2 in flight
        c.fill(LineAddr::new(1 + 256)); // evicts line 1 (direct mapped, 256 sets)
        c.fill(LineAddr::new(1));
        // Retrigger for line 2 while its prefetch is still in flight.
        pf.trigger(1, LineAddr::new(1), &mut c, &mut b, 5);
        assert!(!c.first_ref_set(LineAddr::new(1)));
        assert_eq!(b.prefetch_count(), 1);
    }

    #[test]
    fn completed_prefetch_parks_then_drains() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        land(&mut b, &mut pf, 5);
        assert!(pf.buffer.holds(LineAddr::new(2)));
        assert!(!c.contains(LineAddr::new(2)), "not written until drain");
        drain_prefetch(&mut pf.buffer, &mut c);
        assert!(c.contains(LineAddr::new(2)));
        assert!(c.first_ref_set(LineAddr::new(2)), "prefetched lines re-arm the bit");
        assert!(!pf.buffer.is_occupied());
    }

    #[test]
    fn draining_a_resident_line_writes_nothing() {
        let (mut c, _, mut pf) = setup();
        c.fill(LineAddr::new(2));
        c.clear_first_ref(LineAddr::new(2));
        pf.buffer.park(LineAddr::new(2));
        drain_prefetch(&mut pf.buffer, &mut c);
        assert!(!c.first_ref_set(LineAddr::new(2)), "a resident line is not refilled");
        assert_eq!(c.stats().fills, 1);
        assert!(!pf.buffer.is_occupied());
    }

    #[test]
    fn next_issue_drains_previous_buffer() {
        let (mut c, mut b, mut pf) = setup();
        c.fill(LineAddr::new(1));
        pf.trigger(0, LineAddr::new(1), &mut c, &mut b, 5);
        land(&mut b, &mut pf, 5); // line 2 buffered
        c.fill(LineAddr::new(10));
        pf.trigger(6, LineAddr::new(10), &mut c, &mut b, 5);
        assert_eq!(b.current().unwrap().line, LineAddr::new(11));
        assert!(c.contains(LineAddr::new(2)), "buffer drained before new issue");
        assert!(!pf.buffer.is_occupied());
    }
}
