//! Busy-until resource timelines.
//!
//! Device models in this workspace are *timeline-driven*: rather than
//! scheduling explicit events for every internal state change, each shared
//! station (a firmware pipeline, a DMA engine, a flash die, a storage-node
//! service pool) is a resource that, given a request arrival time and a
//! service time, answers "when would this request start and finish?". The
//! answer is exact for FIFO stations and makes the simulators both simple
//! and fast.

use crate::{SimDuration, SimTime};
use std::collections::VecDeque;
use uc_invariant::{ensure, Contract, Violation};

/// A serialized FIFO station (one server).
///
/// Models anything that processes one request at a time in arrival order:
/// a command-processing firmware stage, a bus/DMA engine, a network link
/// serializing bytes.
///
/// # Example
///
/// ```
/// use uc_sim::{Resource, SimDuration, SimTime};
///
/// let mut bus = Resource::new();
/// let t0 = SimTime::ZERO;
/// let (s1, f1) = bus.acquire(t0, SimDuration::from_micros(4));
/// let (s2, f2) = bus.acquire(t0, SimDuration::from_micros(4));
/// assert_eq!(s1, t0);
/// assert_eq!(s2, f1); // queued behind the first request
/// assert_eq!(f2, t0 + SimDuration::from_micros(8));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Resource {
    pub(crate) busy_until: SimTime,
}

impl Resource {
    /// A resource that is idle from the simulation epoch.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    ///
    /// Returns `(start, finish)` of the granted slot and advances the
    /// timeline so later calls queue behind this one.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until);
        let finish = start + service;
        self.busy_until = finish;
        (start, finish)
    }

    /// The earliest instant at which new work could start.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Forgets all scheduled work; the resource is idle from `SimTime::ZERO`.
    pub fn reset(&mut self) {
        *self = Resource::default();
    }
}

/// A k-server FIFO station.
///
/// Models stations with internal parallelism: the set of flash dies reached
/// through independent channels, a storage node's worker pool, parallel
/// network connections. Each arriving request is assigned to the server
/// that frees up earliest.
///
/// The servers' free-at instants live in an ascending ring: the front is
/// the earliest-free server, and a finish that is the latest so far (the
/// common case under load) is pushed to the back in O(1).
/// [`ParallelResource::acquire_many`] schedules a batch of equal requests
/// on a saturated pool by rotating the ring.
///
/// # Example
///
/// ```
/// use uc_sim::{ParallelResource, SimDuration, SimTime};
///
/// let mut dies = ParallelResource::new(2);
/// let t0 = SimTime::ZERO;
/// let service = SimDuration::from_micros(100);
/// let (_, f1) = dies.acquire(t0, service);
/// let (_, f2) = dies.acquire(t0, service);
/// let (_, f3) = dies.acquire(t0, service);
/// assert_eq!(f1, t0 + service);       // first server
/// assert_eq!(f2, t0 + service);       // second server, in parallel
/// assert_eq!(f3, t0 + service * 2);   // queued behind the first
/// ```
#[derive(Debug, Clone)]
pub struct ParallelResource {
    /// Per-server free-at instants, ascending.
    pub(crate) servers: VecDeque<SimTime>,
    pub(crate) capacity: usize,
}

impl ParallelResource {
    /// A station with `servers` parallel servers, all idle from the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "ParallelResource requires at least one server");
        ParallelResource {
            servers: vec![SimTime::ZERO; servers].into(),
            capacity: servers,
        }
    }

    /// Number of servers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reserves the earliest-free server for `service` starting no earlier
    /// than `now`; returns `(start, finish)`.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        let free = self.servers.pop_front().expect("at least one server");
        let start = now.max(free);
        let finish = start + service;
        if self.servers.back().is_none_or(|&last| last <= finish) {
            self.servers.push_back(finish);
        } else {
            let at = self.servers.partition_point(|&t| t <= finish);
            self.servers.insert(at, finish);
        }
        self.enforce_server_count();
        (start, finish)
    }

    /// Reserves `n` servers in turn, each for `service` starting no
    /// earlier than `now` — exactly `n` calls to
    /// [`ParallelResource::acquire`] — and returns the last (latest)
    /// finish, or `now` when `n == 0`.
    ///
    /// The finishes of the batch are non-decreasing. On a saturated pool
    /// — the first finish is no earlier than [`drained_at`] — every finish
    /// is the latest so far, so the batch pops the front and pushes to the
    /// back `n` times. Otherwise it issues `n` plain acquires.
    ///
    /// [`drained_at`]: ParallelResource::drained_at
    pub fn acquire_many(&mut self, now: SimTime, service: SimDuration, n: usize) -> SimTime {
        if now.max(self.free_at()) + service < self.drained_at() {
            return (0..n).fold(now, |_, _| self.acquire(now, service).1);
        }
        let mut last = now;
        for _ in 0..n {
            let free = self.servers.pop_front().expect("at least one server");
            last = now.max(free) + service;
            self.servers.push_back(last);
        }
        self.enforce_server_count();
        last
    }

    /// Contract hook (O(1)): scheduling conserved the server count — a
    /// lost server would silently serialize the station.
    fn enforce_server_count(&self) {
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "server-count-conserved",
                self.servers.len() == self.capacity,
                "{} servers in ring, capacity {}",
                self.servers.len(),
                self.capacity
            );
            Ok(())
        });
    }

    /// The earliest instant at which any server could start new work.
    pub fn free_at(&self) -> SimTime {
        self.servers.front().copied().unwrap_or(SimTime::ZERO)
    }

    /// The instant at which *all* currently scheduled work completes.
    pub fn drained_at(&self) -> SimTime {
        self.servers.back().copied().unwrap_or(SimTime::ZERO)
    }

    /// Forgets all scheduled work.
    pub fn reset(&mut self) {
        *self = ParallelResource::new(self.capacity);
    }
}

/// Structural audit of a k-server station: the server pool never leaks or
/// duplicates a server, and the free-at ring stays ascending. O(servers).
impl Contract for ParallelResource {
    fn contract_name(&self) -> &'static str {
        "uc-sim/ParallelResource"
    }

    fn check(&self) -> Result<(), Violation> {
        ensure!(
            self,
            "capacity-positive",
            self.capacity > 0,
            "station has zero capacity"
        );
        ensure!(
            self,
            "server-count-conserved",
            self.servers.len() == self.capacity,
            "{} servers in ring, capacity {}",
            self.servers.len(),
            self.capacity
        );
        ensure!(
            self,
            "servers-ascending",
            self.servers.iter().is_sorted(),
            "server free-at ring is out of order"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::thaw;
    use uc_persist::Persist;

    #[test]
    fn serial_resource_queues_fifo() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(10);
        let (s1, f1) = r.acquire(SimTime::ZERO, d);
        let (s2, f2) = r.acquire(SimTime::ZERO, d);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, f1);
        assert_eq!(f2.as_nanos(), 20_000);
    }

    #[test]
    fn serial_resource_idles_between_arrivals() {
        let mut r = Resource::new();
        let d = SimDuration::from_micros(1);
        let (_, f1) = r.acquire(SimTime::ZERO, d);
        let late = f1 + SimDuration::from_micros(100);
        let (s2, _) = r.acquire(late, d);
        assert_eq!(s2, late, "an idle resource starts work immediately");
    }

    #[test]
    fn parallel_resource_uses_all_servers() {
        let mut r = ParallelResource::new(4);
        let d = SimDuration::from_micros(50);
        let finishes: Vec<SimTime> = (0..8).map(|_| r.acquire(SimTime::ZERO, d).1).collect();
        let first_wave = finishes.iter().filter(|f| **f == SimTime::ZERO + d).count();
        let second_wave = finishes
            .iter()
            .filter(|f| **f == SimTime::ZERO + d * 2)
            .count();
        assert_eq!(first_wave, 4);
        assert_eq!(second_wave, 4);
    }

    #[test]
    fn parallel_resource_free_and_drained() {
        let mut r = ParallelResource::new(2);
        let d = SimDuration::from_micros(10);
        r.acquire(SimTime::ZERO, d);
        assert_eq!(r.free_at(), SimTime::ZERO, "one server still idle");
        r.acquire(SimTime::ZERO, d * 3);
        assert_eq!(r.free_at(), SimTime::ZERO + d);
        assert_eq!(r.drained_at(), SimTime::ZERO + d * 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_server_station_panics() {
        let _ = ParallelResource::new(0);
    }

    #[test]
    fn snapshot_restore_resumes_both_station_kinds() {
        let d = SimDuration::from_micros(10);
        let mut serial = Resource::new();
        serial.acquire(SimTime::ZERO, d);
        let resumed = thaw(&serial);
        assert_eq!(resumed.free_at(), serial.free_at());

        let mut pool = ParallelResource::new(3);
        pool.acquire(SimTime::ZERO, d);
        pool.acquire(SimTime::ZERO, d * 4);
        let mut resumed = thaw(&pool);
        assert_eq!(resumed.capacity(), 3);
        assert_eq!(
            resumed.to_bytes(),
            pool.to_bytes(),
            "round trip is lossless"
        );
        // The resumed pool schedules exactly as the original would.
        assert_eq!(
            resumed.acquire(SimTime::ZERO, d),
            pool.acquire(SimTime::ZERO, d)
        );
        assert_eq!(resumed.drained_at(), pool.drained_at());
    }

    #[test]
    fn acquire_many_equals_repeated_acquire() {
        let mut rng = crate::SimRng::new(0xACC);
        // [general, saturated] calls, classified from the pool state
        // before each call.
        let mut kinds = [0usize; 2];
        let mut saturated_beyond_capacity = 0;
        for case in 0..500u64 {
            let servers = rng.range_u64(1, 9) as usize;
            let mut pool = ParallelResource::new(servers);
            // Random history; a coarse grid of instants makes ties common.
            for _ in 0..rng.range_u64(0, 3 * servers as u64) {
                let at = SimTime::from_nanos(rng.range_u64(0, 8) * 100);
                pool.acquire(at, SimDuration::from_nanos(rng.range_u64(0, 4) * 100));
            }
            let now = match case % 3 {
                0 => SimTime::ZERO,                                  // before every server
                1 => pool.drained_at() + SimDuration::from_nanos(1), // after every server
                _ => SimTime::from_nanos(rng.range_u64(0, 8) * 100),
            };
            let service = SimDuration::from_nanos(rng.range_u64(0, 4) * 100);
            for n in [0, 1, servers, servers + 3, rng.range_u64(2, 20) as usize] {
                // A saturated pool: every finish of the batch is the latest
                // so far.
                let saturated = now.max(pool.free_at()) + service >= pool.drained_at();
                kinds[usize::from(saturated)] += 1;
                saturated_beyond_capacity += usize::from(saturated && n > servers);
                let mut batched = pool.clone();
                let mut stepped = pool.clone();
                let last = batched.acquire_many(now, service, n);
                let latest = (0..n)
                    .map(|_| stepped.acquire(now, service).1)
                    .max()
                    .unwrap_or(now);
                assert_eq!(last, latest, "case {case}, n {n}");
                assert_eq!(batched.servers, stepped.servers, "case {case}, n {n}");
                assert!(batched.check().is_ok());
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 100),
            "both kinds occur: {kinds:?}"
        );
        assert!(
            saturated_beyond_capacity > 50,
            "{saturated_beyond_capacity}"
        );
    }

    #[test]
    fn restore_sorts_a_hand_built_snapshot() {
        // Well-formed bytes need not list the servers in order.
        let t = SimTime::from_nanos;
        let bytes = vec![t(30), t(10), t(20)].to_bytes();
        let mut pool = ParallelResource::from_bytes(&bytes).unwrap();
        assert_eq!(pool.servers, [t(10), t(20), t(30)]);
        assert_eq!(pool.acquire(SimTime::ZERO, SimDuration::ZERO).0, t(10));
    }

    #[test]
    fn reset_clears_schedule() {
        let mut r = Resource::new();
        r.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        r.reset();
        assert_eq!(r.free_at(), SimTime::ZERO);
        let mut p = ParallelResource::new(3);
        p.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        p.reset();
        assert_eq!(p.drained_at(), SimTime::ZERO);
        assert_eq!(p.capacity(), 3);
    }
}
