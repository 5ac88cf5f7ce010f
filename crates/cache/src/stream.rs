//! A Jouppi-style FIFO stream buffer (the '90 ISCA design the paper's
//! §2.2 credits with removing 85% of a 4KB I-cache's misses).

use std::collections::VecDeque;

use specfetch_isa::LineAddr;

use crate::{Bus, ICache, Purpose};

/// A single FIFO stream buffer.
///
/// On a demand miss the buffer (re)allocates a *stream*: it prefetches the
/// lines sequentially following the miss, one bus transaction at a time,
/// into a small FIFO. A later miss that matches the FIFO **head** is
/// served from the buffer (the line moves into the cache for free) and the
/// stream continues; a miss that does not match the head restarts the
/// stream — Jouppi's buffers only compare the head entry.
///
/// # Examples
///
/// ```
/// use specfetch_cache::{Bus, CacheConfig, ICache, StreamBuffer};
/// use specfetch_isa::LineAddr;
///
/// let mut cache = ICache::new(&CacheConfig::paper_8k());
/// let mut bus = Bus::new();
/// let mut sb = StreamBuffer::new(4);
///
/// assert!(!sb.on_miss(LineAddr::new(10), &mut cache)); // allocates 11..
/// sb.tick(0, &cache, &mut bus, 5);
/// assert_eq!(bus.current().unwrap().line, LineAddr::new(11));
/// let tx = bus.take_completed(5).unwrap();
/// sb.complete(tx.line, None, &mut cache); // joins the FIFO
/// assert!(sb.on_miss(LineAddr::new(11), &mut cache)); // served from the head
/// assert!(cache.contains(LineAddr::new(11)));
/// ```
#[derive(Clone, Debug)]
pub struct StreamBuffer {
    depth: usize,
    /// Prefetched lines waiting to be consumed, oldest first.
    queue: VecDeque<LineAddr>,
    /// The next sequential line the stream wants to prefetch.
    next_fetch: Option<LineAddr>,
    /// A stream prefetch currently on the bus.
    in_flight: Option<LineAddr>,
}

impl StreamBuffer {
    /// A buffer holding up to `depth` lines (Jouppi evaluated four).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "stream buffer needs at least one entry");
        StreamBuffer {
            depth,
            queue: VecDeque::with_capacity(depth),
            next_fetch: None,
            in_flight: None,
        }
    }

    /// The line the stream wants to prefetch next, if it has capacity.
    fn want_fetch(&self) -> Option<LineAddr> {
        if self.queue.len() + usize::from(self.in_flight.is_some()) >= self.depth {
            return None;
        }
        self.next_fetch
    }

    /// Once per cycle, before fetch: skips the stream past lines that are
    /// already resident, then issues the first line that is not, if no
    /// stream prefetch is outstanding and the bus has a free slot.
    pub fn tick(&mut self, now: u64, icache: &ICache, bus: &mut Bus, penalty: u64) {
        while let Some(line) = self.want_fetch() {
            if icache.contains(line) {
                self.next_fetch = Some(line.next());
                continue;
            }
            // One outstanding stream prefetch at a time: the FIFO tracks
            // a single in-flight line, so issuing a second on a pipelined
            // bus would orphan the first (its completion would be dropped
            // as stale, the FIFO would never fill, and the slot churn
            // would starve any pending demand fill forever). On a one-slot
            // bus this check is redundant — the in-flight prefetch already
            // occupies the only slot.
            if self.in_flight.is_none() && bus.is_free() {
                bus.start(now, line, penalty, Purpose::Prefetch);
                self.next_fetch = Some(line.next());
                self.in_flight = Some(line);
            }
            break;
        }
    }

    /// Would the stream use a free bus slot this cycle?
    pub fn wants_bus(&self) -> bool {
        self.in_flight.is_none() && self.want_fetch().is_some()
    }

    /// A stream prefetch of `line` completed: it joins the FIFO, unless it
    /// belongs to a stream that has since restarted (then it is dropped).
    /// When the demand miss `pending` waits on `line` and the line is now
    /// the head, it moves on into the cache and this returns `true`.
    pub fn complete(
        &mut self,
        line: LineAddr,
        pending: Option<LineAddr>,
        icache: &mut ICache,
    ) -> bool {
        if self.in_flight == Some(line) {
            self.in_flight = None;
            self.queue.push_back(line);
        }
        pending == Some(line) && self.take_head(line, icache)
    }

    /// A demand miss on `line`. A FIFO head holding it is written into the
    /// cache (`true`). Otherwise the stream restarts after `line` (Jouppi),
    /// unless `line` is the stream prefetch on the bus: the miss waits for
    /// that instead ([`StreamBuffer::in_flight_is`]).
    pub fn on_miss(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        if self.take_head(line, icache) {
            return true;
        }
        if !self.in_flight_is(line) {
            self.queue.clear();
            self.in_flight = None;
            self.next_fetch = Some(line.next());
        }
        false
    }

    /// Is a stream prefetch of `line` currently on the bus?
    pub fn in_flight_is(&self, line: LineAddr) -> bool {
        self.in_flight == Some(line)
    }

    fn take_head(&mut self, line: LineAddr, icache: &mut ICache) -> bool {
        if self.queue.front() != Some(&line) {
            return false;
        }
        self.queue.pop_front();
        icache.fill(line);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;

    fn setup(slots: usize) -> (ICache, Bus) {
        (ICache::new(&CacheConfig::paper_8k()), Bus::with_slots(slots))
    }

    /// Ticks once at `now` and lands whatever the stream issued; returns
    /// the issued line.
    fn stream_one(
        sb: &mut StreamBuffer,
        c: &mut ICache,
        b: &mut Bus,
        now: u64,
    ) -> Option<LineAddr> {
        sb.tick(now, c, b, 5);
        let tx = b.take_completed(now + 5)?;
        assert!(!sb.complete(tx.line, None, c));
        Some(tx.line)
    }

    #[test]
    fn allocates_and_streams_sequentially() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(4);
        assert!(!sb.wants_bus(), "no stream before the first miss");
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 0), None);
        assert!(!sb.on_miss(LineAddr::new(99), &mut c));
        for i in 100..104 {
            assert!(sb.wants_bus());
            assert_eq!(stream_one(&mut sb, &mut c, &mut b, i), Some(LineAddr::new(i)));
        }
        assert!(!sb.wants_bus(), "FIFO full");
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 200), None);
        assert_eq!(b.prefetch_count(), 4);
        assert!(!c.contains(LineAddr::new(100)), "buffered lines stay out of the cache");
    }

    #[test]
    fn head_hit_consumes_and_frees_capacity() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(2);
        sb.on_miss(LineAddr::new(9), &mut c);
        stream_one(&mut sb, &mut c, &mut b, 0);
        stream_one(&mut sb, &mut c, &mut b, 10);
        assert!(!sb.wants_bus());
        assert!(sb.on_miss(LineAddr::new(10), &mut c));
        assert!(c.contains(LineAddr::new(10)));
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 20), Some(LineAddr::new(12)));
    }

    #[test]
    fn a_non_head_match_is_not_served_and_restarts_the_stream() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(4);
        sb.on_miss(LineAddr::new(19), &mut c);
        stream_one(&mut sb, &mut c, &mut b, 0);
        stream_one(&mut sb, &mut c, &mut b, 10);
        assert!(!sb.on_miss(LineAddr::new(21), &mut c), "only the head is compared");
        assert!(!c.contains(LineAddr::new(21)));
        assert!(!sb.on_miss(LineAddr::new(20), &mut c), "the restart dropped the FIFO");
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 20), Some(LineAddr::new(21)));
    }

    #[test]
    fn restart_discards_stale_stream_and_completions() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(4);
        sb.on_miss(LineAddr::new(29), &mut c);
        sb.tick(0, &c, &mut b, 5); // 30 in flight
                                   // The stream restarts (a miss elsewhere) while 30 is in flight.
        assert!(!sb.on_miss(LineAddr::new(89), &mut c));
        let tx = b.take_completed(5).unwrap();
        assert!(!sb.complete(tx.line, Some(LineAddr::new(30)), &mut c), "stale completion");
        assert!(!sb.on_miss(LineAddr::new(30), &mut c), "dropped, not buffered");
        assert!(!c.contains(LineAddr::new(30)));
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 6), Some(LineAddr::new(31)));
    }

    #[test]
    fn a_miss_on_the_in_flight_line_waits_for_it() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(4);
        sb.on_miss(LineAddr::new(39), &mut c);
        sb.tick(0, &c, &mut b, 5);
        assert!(sb.in_flight_is(LineAddr::new(40)));
        assert!(!sb.in_flight_is(LineAddr::new(41)));
        assert!(!sb.on_miss(LineAddr::new(40), &mut c));
        assert!(sb.in_flight_is(LineAddr::new(40)), "no restart under the pending miss");
        let tx = b.take_completed(5).unwrap();
        assert!(sb.complete(tx.line, Some(LineAddr::new(40)), &mut c));
        assert!(c.contains(LineAddr::new(40)));
        assert!(!sb.in_flight_is(LineAddr::new(40)));
    }

    #[test]
    fn resident_lines_are_skipped_without_traffic() {
        let (mut c, mut b) = setup(1);
        let mut sb = StreamBuffer::new(4);
        c.fill(LineAddr::new(50));
        sb.on_miss(LineAddr::new(49), &mut c);
        assert_eq!(stream_one(&mut sb, &mut c, &mut b, 0), Some(LineAddr::new(51)));
        assert_eq!(b.prefetch_count(), 1);
    }

    #[test]
    fn one_outstanding_prefetch_on_a_pipelined_bus() {
        let (mut c, mut b) = setup(2);
        let mut sb = StreamBuffer::new(4);
        sb.on_miss(LineAddr::new(59), &mut c);
        sb.tick(0, &c, &mut b, 5);
        assert!(!sb.wants_bus());
        sb.tick(1, &c, &mut b, 5);
        assert!(b.is_free(), "the second slot stays free");
        assert_eq!(b.prefetch_count(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_depth_rejected() {
        let _ = StreamBuffer::new(0);
    }
}
