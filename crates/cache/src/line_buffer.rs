//! The one-line fill buffer behind Resume and both prefetchers.

use specfetch_isa::LineAddr;

/// The paper's one-line buffer: "a buffer that can hold the missing cache
/// line when it is returned from memory as well as the index where it
/// needs to be stored in the I-cache" (§3).
///
/// The Resume policy parks a wrong-path fill that completes after the
/// processor has redirected; next-line and target prefetching park each
/// completed prefetch. The parked line is written into the cache at the
/// next I-cache miss (and, for a prefetcher, before its next prefetch
/// issues); if that miss is *for the parked line*, it is satisfied from
/// the buffer without a new memory request.
///
/// The buffer only hands the line back; how it is written is the
/// caller's rule. The Resume path writes it unconditionally, a prefetcher
/// only when the line is not already resident ([`drain_prefetch`]).
///
/// [`drain_prefetch`]: crate::drain_prefetch
///
/// # Examples
///
/// ```
/// use specfetch_cache::LineBuffer;
/// use specfetch_isa::LineAddr;
///
/// let mut buf = LineBuffer::default();
/// buf.park(LineAddr::new(9));
/// assert!(buf.holds(LineAddr::new(9)));
/// assert_eq!(buf.take(), Some(LineAddr::new(9)));
/// assert!(!buf.is_occupied());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LineBuffer {
    line: Option<LineAddr>,
}

impl LineBuffer {
    /// Parks a completed fill in the buffer.
    ///
    /// Every owner writes the previous occupant out before the next fill
    /// can complete into the buffer, so an overwrite indicates an engine
    /// bug in debug builds.
    pub fn park(&mut self, line: LineAddr) {
        debug_assert!(self.line.is_none(), "line buffer overwritten before being drained");
        self.line = Some(line);
    }

    /// Is `line` parked here?
    pub fn holds(&self, line: LineAddr) -> bool {
        self.line == Some(line)
    }

    /// Is anything parked here?
    pub fn is_occupied(&self) -> bool {
        self.line.is_some()
    }

    /// Removes and returns the parked line (to be written into the cache).
    pub fn take(&mut self) -> Option<LineAddr> {
        self.line.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let mut buf = LineBuffer::default();
        assert!(!buf.is_occupied());
        assert!(!buf.holds(LineAddr::new(0)));
        assert_eq!(buf.take(), None);
    }

    #[test]
    fn park_take_cycle() {
        let mut buf = LineBuffer::default();
        buf.park(LineAddr::new(4));
        assert!(buf.is_occupied());
        assert!(buf.holds(LineAddr::new(4)));
        assert!(!buf.holds(LineAddr::new(5)));
        assert_eq!(buf.take(), Some(LineAddr::new(4)));
        assert!(!buf.is_occupied());
        assert_eq!(buf.take(), None);
    }
}
