//! Sequential readahead prefetcher.

use std::collections::HashMap;
use std::ops::Range;
use uc_sim::SimTime;

/// Detects sequential read streams and tracks readahead state.
///
/// The prefetcher is why the paper's local SSD serves *sequential* reads in
/// ~10 µs while *random* reads pay a full NAND sense (~50 µs) — the
/// asymmetry behind Observation 1's "random-read gap is smallest" finding:
/// the ESSD's fixed network overhead looms larger over operations the
/// local SSD can serve from DRAM.
///
/// The device model drives it with [`Prefetcher::observe`] (which says what
/// new page range to read ahead, if any), fills it with
/// [`Prefetcher::insert`] as background reads are scheduled, and consumes
/// hits with [`Prefetcher::take`].
///
/// # Example
///
/// ```
/// use uc_sim::SimTime;
/// use uc_ssd::Prefetcher;
///
/// let mut pf = Prefetcher::new(2, 8);
/// assert_eq!(pf.observe(0, 2), None);       // first read: no streak yet
/// let range = pf.observe(2, 2).unwrap();    // second sequential read: armed
/// assert_eq!(range, 4..12);                 // read ahead 8 pages
/// pf.insert(4, SimTime::ZERO);
/// assert!(pf.take(4).is_some());
/// assert!(pf.take(4).is_none());            // consumed
/// ```
#[derive(Debug, Clone)]
pub struct Prefetcher {
    /// Sequential streak length that arms the prefetcher.
    pub(crate) trigger: u32,
    /// Pages read ahead once armed (0 disables prefetching).
    pub(crate) window: u32,
    /// End of the last observed host read (`u64::MAX` before the first).
    pub(crate) last_end: u64,
    /// Current sequential streak length.
    pub(crate) streak: u32,
    /// Highest page readahead has been issued up to.
    pub(crate) issued_up_to: u64,
    /// Outstanding readahead: logical page -> ready instant.
    pub(crate) ready: HashMap<u64, SimTime>,
}

impl Prefetcher {
    /// A prefetcher arming after `trigger` consecutive sequential reads and
    /// reading `window_pages` ahead (0 disables prefetching).
    pub fn new(trigger: u32, window_pages: u32) -> Self {
        Prefetcher {
            trigger: trigger.max(1),
            window: window_pages,
            last_end: u64::MAX, // nothing matches before the first observe
            streak: 0,
            issued_up_to: 0,
            ready: HashMap::new(),
        }
    }

    /// Notes a host read of `pages` pages starting at `first_lpn` and
    /// returns the page range the device should read ahead, if the stream
    /// is sequential enough.
    pub fn observe(&mut self, first_lpn: u64, pages: u64) -> Option<Range<u64>> {
        if self.window == 0 {
            return None;
        }
        if first_lpn == self.last_end {
            self.streak = self.streak.saturating_add(1);
        } else {
            // Stream broke: discard stale readahead state.
            self.streak = 1;
            self.ready.clear();
            self.issued_up_to = first_lpn + pages;
        }
        self.last_end = first_lpn + pages;
        if self.streak >= self.trigger {
            let start = self.issued_up_to.max(self.last_end);
            let end = self.last_end + self.window as u64;
            if end > start {
                self.issued_up_to = end;
                return Some(start..end);
            }
        }
        None
    }

    /// Records that readahead of `lpn` will be ready at `at`.
    pub fn insert(&mut self, lpn: u64, at: SimTime) {
        self.ready.insert(lpn, at);
    }

    /// Consumes the readiness entry for `lpn`, if prefetched.
    pub fn take(&mut self, lpn: u64) -> Option<SimTime> {
        self.ready.remove(&lpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    #[test]
    fn random_reads_never_arm() {
        let mut pf = Prefetcher::new(2, 8);
        assert_eq!(pf.observe(10, 1), None);
        assert_eq!(pf.observe(100, 1), None);
        assert_eq!(pf.observe(7, 1), None);
    }

    #[test]
    fn sequential_stream_arms_and_extends() {
        let mut pf = Prefetcher::new(2, 8);
        assert_eq!(pf.observe(0, 4), None);
        assert_eq!(pf.observe(4, 4), Some(8..16));
        // Next request extends the window by exactly the consumed amount.
        assert_eq!(pf.observe(8, 4), Some(16..20));
        assert_eq!(pf.observe(12, 4), Some(20..24));
    }

    #[test]
    fn stream_break_clears_state() {
        let mut pf = Prefetcher::new(2, 8);
        pf.observe(0, 4);
        pf.observe(4, 4);
        pf.insert(8, SimTime::ZERO);
        // Jump elsewhere: stale entries must be dropped.
        assert_eq!(pf.observe(1000, 4), None);
        assert!(pf.take(8).is_none());
    }

    #[test]
    fn take_counts_hits_once() {
        let mut pf = Prefetcher::new(1, 4);
        pf.observe(0, 1);
        pf.insert(1, SimTime::ZERO);
        assert!(pf.take(1).is_some());
        assert!(pf.take(1).is_none());
    }

    #[test]
    fn disabled_window_is_inert() {
        let mut pf = Prefetcher::new(1, 0);
        assert_eq!(pf.observe(0, 1), None);
        assert_eq!(pf.observe(1, 1), None);
    }

    #[test]
    fn trigger_one_arms_immediately() {
        let mut pf = Prefetcher::new(1, 4);
        assert_eq!(pf.observe(0, 2), Some(2..6));
    }

    #[test]
    fn snapshot_restore_preserves_streak_and_readahead() {
        let mut a = Prefetcher::new(2, 8);
        a.observe(0, 4);
        a.observe(4, 4);
        a.insert(8, SimTime::ZERO);
        a.insert(9, SimTime::ZERO);
        a.take(8);
        let snap = a.to_bytes();
        let mut b = Prefetcher::from_bytes(&snap).unwrap();
        assert_eq!(b.to_bytes(), snap, "round trip is lossless");
        // The armed stream keeps extending identically…
        assert_eq!(a.observe(8, 4), b.observe(8, 4));
        // …and pending readahead survives.
        assert_eq!(a.take(9), b.take(9));
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
