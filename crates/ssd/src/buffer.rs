//! DRAM write-buffer model.

use std::collections::{HashMap, VecDeque};
use uc_sim::SimTime;

/// A FIFO ring of page slots between the host and the flash drain engine.
///
/// Writes are acknowledged once their pages are *admitted* to the buffer;
/// admission of page `k` must wait until page `k − capacity` has drained to
/// flash. This is the mechanism that makes small writes ~10 µs on an idle
/// device yet collapses sustained write throughput to the flash drain rate
/// (and, under GC, to `drain / write-amplification`) — the Figure 3
/// behaviour of the paper's local SSD.
///
/// The buffer also answers read lookups: a read of a page still resident
/// (admitted but not yet drained) is served from DRAM.
///
/// Its bookkeeping stays bounded: [`WriteBuffer::prune`] drops pages that
/// drained by a given instant, and the device prunes at every command's
/// firmware-finish instant, so only the ring's worth of pages plus those
/// still in flight are tracked.
///
/// # Example
///
/// ```
/// use uc_sim::SimTime;
/// use uc_ssd::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(2);
/// let (s0, a0) = buf.admit(SimTime::ZERO);
/// assert_eq!(a0, SimTime::ZERO); // room available: admitted instantly
/// buf.record_drain(s0, 7, SimTime::from_nanos(100));
/// assert!(buf.contains(7, SimTime::ZERO));
/// assert!(!buf.contains(7, SimTime::from_nanos(200))); // drained
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    /// `ring[k % capacity]` = drain-finish time of admitted page `k`.
    ring: Vec<SimTime>,
    /// Pages admitted so far.
    admitted: u64,
    /// Resident set: logical page -> (admission sequence, drain finish).
    resident: HashMap<u64, (u64, SimTime)>,
    /// Prune queue in admission order: (drain finish, lpn, sequence).
    pending: VecDeque<(SimTime, u64, u64)>,
    hits: u64,
}

/// The complete serializable state of a [`WriteBuffer`].
///
/// The resident set (a hash map inside the live buffer) is stored sorted
/// by logical page — the canonical form — so two snapshots of
/// behaviourally identical buffers compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteBufferSnapshot {
    /// Buffer capacity in page slots.
    pub capacity: usize,
    /// Drain-finish time of each ring slot (`ring[k % capacity]` for
    /// admitted page `k`).
    pub ring: Vec<SimTime>,
    /// Pages admitted so far.
    pub admitted: u64,
    /// Resident set as `(lpn, admission sequence, drain finish)`, sorted
    /// by logical page.
    pub resident: Vec<(u64, u64, SimTime)>,
    /// Prune queue in admission order: `(drain finish, lpn, sequence)`.
    pub pending: Vec<(SimTime, u64, u64)>,
    /// Read hits served so far.
    pub hits: u64,
}

impl WriteBuffer {
    /// A buffer holding `capacity_pages` page slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages == 0`.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "write buffer needs at least one page");
        WriteBuffer {
            capacity: capacity_pages,
            ring: vec![SimTime::ZERO; capacity_pages],
            admitted: 0,
            resident: HashMap::new(),
            pending: VecDeque::new(),
            hits: 0,
        }
    }

    /// Buffer capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity
    }

    /// Total pages ever admitted.
    pub fn admitted_pages(&self) -> u64 {
        self.admitted
    }

    /// Read hits served from the buffer.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Reserves the next buffer slot for a page whose host transfer
    /// finishes at `ready`.
    ///
    /// Returns `(sequence, admission time)`: the admission time is `ready`
    /// if a slot is free, otherwise the drain-finish time of the page this
    /// slot is recycled from. The caller must follow up with
    /// [`WriteBuffer::record_drain`] for the same sequence.
    pub fn admit(&mut self, ready: SimTime) -> (u64, SimTime) {
        let k = self.admitted;
        self.admitted += 1;
        let at = if k >= self.capacity as u64 {
            ready.max(self.ring[(k % self.capacity as u64) as usize])
        } else {
            ready
        };
        (k, at)
    }

    /// Records that the page admitted as `seq` holds logical page `lpn` and
    /// will finish draining to flash at `drain`.
    pub fn record_drain(&mut self, seq: u64, lpn: u64, drain: SimTime) {
        self.ring[(seq % self.capacity as u64) as usize] = drain;
        self.resident.insert(lpn, (seq, drain));
        self.pending.push_back((drain, lpn, seq));
    }

    /// `true` if `lpn` is resident (admitted, not yet drained) at `now`.
    ///
    /// Increments the hit counter on success. Exact as long as `now` is
    /// no earlier than any instant the buffer was pruned at.
    pub fn contains(&mut self, lpn: u64, now: SimTime) -> bool {
        self.prune(now);
        let hit = self
            .resident
            .get(&lpn)
            .is_some_and(|&(_, drain)| drain > now);
        if hit {
            self.hits += 1;
        }
        hit
    }

    /// Approximate resident page count at `now`.
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.pending.len()
    }

    /// Captures the buffer's complete state.
    pub fn snapshot(&self) -> WriteBufferSnapshot {
        let mut resident: Vec<(u64, u64, SimTime)> = self
            .resident
            .iter()
            .map(|(&lpn, &(seq, drain))| (lpn, seq, drain))
            .collect();
        resident.sort_unstable_by_key(|&(lpn, _, _)| lpn);
        WriteBufferSnapshot {
            capacity: self.capacity,
            ring: self.ring.clone(),
            admitted: self.admitted,
            resident,
            pending: self.pending.iter().copied().collect(),
            hits: self.hits,
        }
    }

    /// Rebuilds a buffer that continues exactly where `snapshot` was
    /// taken.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's capacity is zero or disagrees with its
    /// ring length.
    pub fn restore(snapshot: WriteBufferSnapshot) -> Self {
        assert!(
            snapshot.capacity > 0,
            "write buffer needs at least one page"
        );
        assert_eq!(
            snapshot.ring.len(),
            snapshot.capacity,
            "snapshot ring length disagrees with capacity"
        );
        WriteBuffer {
            capacity: snapshot.capacity,
            ring: snapshot.ring,
            admitted: snapshot.admitted,
            resident: snapshot
                .resident
                .into_iter()
                .map(|(lpn, seq, drain)| (lpn, (seq, drain)))
                .collect(),
            pending: snapshot.pending.into_iter().collect(),
            hits: snapshot.hits,
        }
    }

    /// Removes bookkeeping for pages that finished draining by `now`.
    ///
    /// Pruning never changes what [`WriteBuffer::contains`] answers for a
    /// later instant: with prune instants that never decrease, `lpn` stays
    /// tracked until its newest record drains, so "resident at `now`"
    /// still means "the newest record of `lpn` drains after `now`".
    pub fn prune(&mut self, now: SimTime) {
        while let Some(&(drain, lpn, seq)) = self.pending.front() {
            if drain > now {
                break;
            }
            self.pending.pop_front();
            // Only evict if the resident entry is the same admission (the
            // lpn may have been rewritten and now maps to a newer slot).
            if self.resident.get(&lpn).is_some_and(|&(s, _)| s == seq) {
                self.resident.remove(&lpn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn admission_is_instant_until_full() {
        let mut buf = WriteBuffer::new(3);
        for _ in 0..3 {
            let (_, at) = buf.admit(t(1));
            assert_eq!(at, t(1));
        }
    }

    #[test]
    fn full_buffer_waits_for_drain() {
        let mut buf = WriteBuffer::new(2);
        let (s0, _) = buf.admit(t(0));
        buf.record_drain(s0, 0, t(100));
        let (s1, _) = buf.admit(t(0));
        buf.record_drain(s1, 1, t(200));
        // Slot 0 recycles at t=100.
        let (_, at) = buf.admit(t(1));
        assert_eq!(at, t(100));
    }

    #[test]
    fn reads_hit_resident_pages_only() {
        let mut buf = WriteBuffer::new(4);
        let (s, _) = buf.admit(t(0));
        buf.record_drain(s, 42, t(50));
        assert!(buf.contains(42, t(10)));
        assert!(!buf.contains(42, t(60)));
        assert!(!buf.contains(7, t(10)));
        assert_eq!(buf.hits(), 1);
    }

    #[test]
    fn rewrite_keeps_newer_entry_alive() {
        let mut buf = WriteBuffer::new(4);
        let (s0, _) = buf.admit(t(0));
        buf.record_drain(s0, 9, t(10));
        let (s1, _) = buf.admit(t(0));
        buf.record_drain(s1, 9, t(100));
        // Old entry drains at t=10, but the rewrite is resident until t=100.
        assert!(buf.contains(9, t(50)));
    }

    #[test]
    fn occupancy_tracks_drains() {
        let mut buf = WriteBuffer::new(8);
        for i in 0..4u64 {
            let (s, _) = buf.admit(t(0));
            buf.record_drain(s, i, t(10 * (i + 1)));
        }
        assert_eq!(buf.occupancy(t(0)), 4);
        assert_eq!(buf.occupancy(t(25)), 2);
        assert_eq!(buf.occupancy(t(100)), 0);
        assert_eq!(buf.admitted_pages(), 4);
    }

    #[test]
    fn pruning_at_write_instants_matches_read_only_pruning() {
        // `bounded` also prunes at every write's (non-decreasing) firmware
        // instant, as the device does; `reference` prunes only inside
        // lookups. Every lookup and the hit count must agree.
        let mut rng = uc_sim::SimRng::new(0xB0F);
        let mut bounded = WriteBuffer::new(8);
        let mut reference = WriteBuffer::new(8);
        let mut now = t(0);
        for _ in 0..5000 {
            now += SimDuration::from_nanos(rng.range_u64(0, 3000));
            let lpn = rng.range_u64(0, 32);
            if rng.chance(0.6) {
                bounded.prune(now);
                let ready = now + SimDuration::from_nanos(rng.range_u64(0, 500));
                let (seq, admit) = bounded.admit(ready);
                assert_eq!(reference.admit(ready), (seq, admit));
                let drain = admit + SimDuration::from_nanos(rng.range_u64(1, 40_000));
                bounded.record_drain(seq, lpn, drain);
                reference.record_drain(seq, lpn, drain);
            } else {
                assert_eq!(bounded.contains(lpn, now), reference.contains(lpn, now));
            }
        }
        assert!(bounded.hits() > 100, "the sequence must exercise hits");
        assert_eq!(bounded.hits(), reference.hits());
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }

    #[test]
    fn snapshot_restore_preserves_admission_and_residency() {
        let mut a = WriteBuffer::new(2);
        for i in 0..3u64 {
            let (s, _) = a.admit(t(i));
            a.record_drain(s, i, t(100 * (i + 1)));
        }
        let snap = a.snapshot();
        let mut b = WriteBuffer::restore(snap.clone());
        assert_eq!(b.snapshot(), snap, "round trip is lossless");
        // Admission back-pressure continues identically…
        assert_eq!(a.admit(t(5)), b.admit(t(5)));
        // …and so do residency answers and occupancy.
        assert_eq!(a.contains(2, t(150)), b.contains(2, t(150)));
        assert_eq!(a.occupancy(t(150)), b.occupancy(t(150)));
        assert_eq!(a.hits(), b.hits());
    }
}
