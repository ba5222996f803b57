//! DRAM write-buffer model.

use std::cmp::Reverse;
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
/// still in flight are tracked. The residency index over those pages is
/// built lazily, at the first lookup, so a write-only run never pays for
/// it.
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
    pub(crate) capacity: usize,
    /// `ring[k % capacity]` = drain-finish time of admitted page `k`.
    pub(crate) ring: Vec<SimTime>,
    /// Pages admitted so far.
    pub(crate) admitted: u64,
    /// Every tracked record in admission order: (drain finish, lpn,
    /// sequence).
    pub(crate) pending: VecDeque<(SimTime, u64, u64)>,
    /// Index over the `pending` records with a sequence below `indexed`:
    /// logical page -> (admission sequence, drain finish) of its newest
    /// such record. Derived from `pending`, so a decoded buffer starts
    /// with an empty index.
    pub(crate) resident: HashMap<u64, (u64, SimTime)>,
    /// `pending` records with a sequence below this have been indexed.
    pub(crate) indexed: u64,
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
            pending: VecDeque::new(),
            resident: HashMap::new(),
            indexed: 0,
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
        self.pending.push_back((drain, lpn, seq));
    }

    /// `true` if `lpn` is resident (admitted, not yet drained) at `now`.
    ///
    /// Increments the hit counter on success. Exact as long as `now` is
    /// no earlier than any instant the buffer was pruned at.
    pub fn contains(&mut self, lpn: u64, now: SimTime) -> bool {
        self.prune(now);
        // Index the records admitted since the last lookup.
        let start = self
            .pending
            .partition_point(|&(_, _, seq)| seq < self.indexed);
        for &(drain, page, seq) in self.pending.range(start..) {
            self.resident.insert(page, (seq, drain));
            self.indexed = seq + 1;
        }
        self.resident
            .get(&lpn)
            .is_some_and(|&(_, drain)| drain > now)
    }

    /// Approximate resident page count at `now`.
    pub fn occupancy(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.pending.len()
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
            // Only evict an indexed record, and only if the resident entry
            // is the same admission (the lpn may have been rewritten and
            // now maps to a newer slot).
            if seq < self.indexed && self.resident.get(&lpn).is_some_and(|&(s, _)| s == seq) {
                self.resident.remove(&lpn);
            }
        }
    }
}

/// The resident set of `pending` (admission order): the newest record of
/// each logical page as `(lpn, sequence, drain finish)`, sorted by
/// logical page — the canonical form the durable buffer stores.
pub(crate) fn resident_view<'a>(
    pending: impl IntoIterator<Item = &'a (SimTime, u64, u64)>,
) -> Vec<(u64, u64, SimTime)> {
    let mut resident: Vec<_> = pending
        .into_iter()
        .map(|&(drain, lpn, seq)| (lpn, Reverse(seq), drain))
        .collect();
    resident.sort_unstable();
    resident.dedup_by_key(|&mut (lpn, _, _)| lpn);
    resident
        .into_iter()
        .map(|(lpn, Reverse(seq), drain)| (lpn, seq, drain))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::{Decoder, Encoder, Persist};
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
        // lookups. Every lookup must agree.
        let mut rng = uc_sim::SimRng::new(0xB0F);
        let mut bounded = WriteBuffer::new(8);
        let mut reference = WriteBuffer::new(8);
        let mut now = t(0);
        let mut hits = 0;
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
                let hit = bounded.contains(lpn, now);
                assert_eq!(hit, reference.contains(lpn, now));
                hits += u64::from(hit);
            }
        }
        assert!(hits > 100, "the sequence must exercise hits");
    }

    /// Reference model: a buffer that indexes residency eagerly, keeping
    /// its resident map current on every `record_drain` and `prune`.
    struct EagerBuffer {
        capacity: usize,
        ring: Vec<SimTime>,
        admitted: u64,
        resident: HashMap<u64, (u64, SimTime)>,
        pending: VecDeque<(SimTime, u64, u64)>,
    }

    impl EagerBuffer {
        fn new(capacity: usize) -> Self {
            EagerBuffer {
                capacity,
                ring: vec![SimTime::ZERO; capacity],
                admitted: 0,
                resident: HashMap::new(),
                pending: VecDeque::new(),
            }
        }

        fn admit(&mut self, ready: SimTime) -> (u64, SimTime) {
            let k = self.admitted;
            self.admitted += 1;
            let slot = self.ring[(k % self.capacity as u64) as usize];
            let at = if k >= self.capacity as u64 {
                ready.max(slot)
            } else {
                ready
            };
            (k, at)
        }

        fn record_drain(&mut self, seq: u64, lpn: u64, drain: SimTime) {
            self.ring[(seq % self.capacity as u64) as usize] = drain;
            self.resident.insert(lpn, (seq, drain));
            self.pending.push_back((drain, lpn, seq));
        }

        fn contains(&mut self, lpn: u64, now: SimTime) -> bool {
            self.prune(now);
            self.resident.get(&lpn).is_some_and(|&(_, d)| d > now)
        }

        fn prune(&mut self, now: SimTime) {
            while let Some(&(drain, lpn, seq)) = self.pending.front() {
                if drain > now {
                    break;
                }
                self.pending.pop_front();
                if self.resident.get(&lpn).is_some_and(|&(s, _)| s == seq) {
                    self.resident.remove(&lpn);
                }
            }
        }

        /// The durable form of this buffer, field for field as
        /// `WriteBuffer` writes it, with the resident set read off the
        /// eager index instead of derived from `pending`.
        fn to_bytes(&self) -> Vec<u8> {
            let mut resident: Vec<_> = self
                .resident
                .iter()
                .map(|(&lpn, &(seq, drain))| (lpn, seq, drain))
                .collect();
            resident.sort_unstable();
            let pending: Vec<_> = self.pending.iter().copied().collect();
            let mut w = Encoder::new();
            (self.capacity, self.ring.clone(), self.admitted).encode(&mut w);
            (resident, pending).encode(&mut w);
            w.into_bytes()
        }

        fn from_bytes(bytes: &[u8]) -> Self {
            let mut r = Decoder::new(bytes);
            let (capacity, ring, admitted) = Persist::decode(&mut r).unwrap();
            let (resident, pending): (Vec<(u64, u64, SimTime)>, Vec<_>) =
                Persist::decode(&mut r).unwrap();
            r.finish().unwrap();
            EagerBuffer {
                capacity,
                ring,
                admitted,
                resident: resident.into_iter().map(|(l, q, d)| (l, (q, d))).collect(),
                pending: pending.into_iter().collect(),
            }
        }
    }

    #[test]
    fn write_buffer_matches_eager_reference() {
        // Seeded random admit/record_drain/prune/contains sequences, cut
        // by encode→decode round trips: every answer and every encoded
        // state must equal the eager reference model's.
        let mut rng = uc_sim::SimRng::new(0x1A2E);
        let mut hits = 0;
        for case in 0..64u64 {
            let capacity = rng.range_u64(1, 12) as usize;
            let lpns = rng.range_u64(1, 40);
            let mut lazy = WriteBuffer::new(capacity);
            let mut eager = EagerBuffer::new(capacity);
            let mut now = t(0);
            for step in 0..800 {
                now += SimDuration::from_nanos(rng.range_u64(0, 2500));
                let lpn = rng.range_u64(0, lpns);
                match rng.range_u64(0, 10) {
                    0..=4 => {
                        let ready = now + SimDuration::from_nanos(rng.range_u64(0, 500));
                        let (seq, admit) = lazy.admit(ready);
                        assert_eq!(eager.admit(ready), (seq, admit), "case {case} step {step}");
                        let drain = admit + SimDuration::from_nanos(rng.range_u64(1, 30_000));
                        lazy.record_drain(seq, lpn, drain);
                        eager.record_drain(seq, lpn, drain);
                    }
                    5 => {
                        lazy.prune(now);
                        eager.prune(now);
                    }
                    6..=8 => {
                        let hit = lazy.contains(lpn, now);
                        assert_eq!(hit, eager.contains(lpn, now), "case {case} step {step}");
                        hits += u64::from(hit);
                    }
                    _ => {
                        let snap = lazy.to_bytes();
                        assert_eq!(snap, eager.to_bytes(), "case {case} step {step}");
                        lazy = WriteBuffer::from_bytes(&snap).unwrap();
                        eager = EagerBuffer::from_bytes(&snap);
                    }
                }
            }
            assert_eq!(lazy.to_bytes(), eager.to_bytes(), "case {case}");
        }
        assert!(hits > 1000, "the sequences must exercise hits");
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
        let snap = a.to_bytes();
        let mut b = WriteBuffer::from_bytes(&snap).unwrap();
        assert_eq!(b.to_bytes(), snap, "round trip is lossless");
        // Admission back-pressure continues identically…
        assert_eq!(a.admit(t(5)), b.admit(t(5)));
        // …and so do residency answers and occupancy.
        assert_eq!(a.contains(2, t(150)), b.contains(2, t(150)));
        assert_eq!(a.occupancy(t(150)), b.occupancy(t(150)));
    }
}
