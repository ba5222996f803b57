//! Flash array operation scheduling.

use crate::{FlashGeometry, FlashTiming};
use uc_sim::{ParallelResource, Resource, SimDuration, SimTime};

/// Counters of operations issued to a [`FlashArray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlashOpStats {
    /// Page reads issued.
    pub reads: u64,
    /// Page programs issued.
    pub programs: u64,
    /// Block erases issued.
    pub erases: u64,
}

impl FlashOpStats {
    /// Total operations of all kinds.
    pub fn total(&self) -> u64 {
        self.reads + self.programs + self.erases
    }
}

/// Schedules NAND operations onto die and channel timelines.
///
/// Each die is a serial resource (one NAND operation at a time); each
/// channel bus is a serial resource shared by that channel's dies. A page
/// read occupies the die for the sense time and then the channel for the
/// data transfer; a program transfers over the channel first and then
/// occupies the die; an erase occupies only the die.
///
/// Per-plane pipelining and cache-mode transfers are folded into the
/// timing parameters (see DESIGN.md §6).
///
/// # Example
///
/// ```
/// use uc_flash::{FlashArray, FlashGeometry, FlashTiming};
/// use uc_sim::SimTime;
///
/// let g = FlashGeometry::new(2, 1, 1, 4, 16, 4096)?;
/// let mut a = FlashArray::new(g, FlashTiming::mlc());
/// // Two reads on different dies proceed in parallel...
/// let f0 = a.read_page(SimTime::ZERO, 0);
/// let f1 = a.read_page(SimTime::ZERO, 1);
/// assert_eq!(f0, f1);
/// // ...while two on the same die serialize.
/// let f2 = a.read_page(SimTime::ZERO, 0);
/// assert!(f2 > f0);
/// # Ok::<(), uc_flash::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlashArray {
    pub(crate) geometry: FlashGeometry,
    pub(crate) timing: FlashTiming,
    pub(crate) dies: Vec<Resource>,
    pub(crate) channels: Vec<Resource>,
    pub(crate) stats: FlashOpStats,
    /// Channel time of one page transfer, derived from `timing` and the
    /// page size (not persisted).
    pub(crate) page_bus_time: SimDuration,
}

impl FlashArray {
    /// Creates an idle array with the given geometry and timing.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Self {
        FlashArray {
            geometry,
            timing,
            dies: vec![Resource::new(); geometry.total_dies() as usize],
            channels: vec![Resource::new(); geometry.channels() as usize],
            stats: FlashOpStats::default(),
            page_bus_time: timing.bus_time(geometry.page_size()),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The array's timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Operation counters.
    pub fn stats(&self) -> FlashOpStats {
        self.stats
    }

    /// Reads one page on `die`, returning the completion instant.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn read_page(&mut self, now: SimTime, die: u32) -> SimTime {
        self.stats.reads += 1;
        let ch = self.geometry.channel_of_die(die) as usize;
        let (_, sensed) = self.dies[die as usize].acquire(now, self.timing.read_page);
        let (_, done) = self.channels[ch].acquire(sensed, self.page_bus_time);
        done
    }

    /// Programs one page on `die`, returning the completion instant.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn program_page(&mut self, now: SimTime, die: u32) -> SimTime {
        self.stats.programs += 1;
        let ch = self.geometry.channel_of_die(die) as usize;
        let (_, transferred) = self.channels[ch].acquire(now, self.page_bus_time);
        let (_, done) = self.dies[die as usize].acquire(transferred, self.timing.program_page);
        done
    }

    /// Erases one block on `die`, returning the completion instant.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn erase_block(&mut self, now: SimTime, die: u32) -> SimTime {
        self.stats.erases += 1;
        let (_, done) = self.dies[die as usize].acquire(now, self.timing.erase_block);
        done
    }

    /// The earliest instant at which `die` could start a new operation.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn die_free_at(&self, die: u32) -> SimTime {
        self.dies[die as usize].free_at()
    }

    /// The die with the earliest availability, for parallelism-seeking
    /// allocation. Ties break toward lower die indices.
    pub fn earliest_free_die(&self) -> u32 {
        let mut best = 0u32;
        let mut best_t = SimTime::MAX;
        for (i, d) in self.dies.iter().enumerate() {
            if d.free_at() < best_t {
                best_t = d.free_at();
                best = i as u32;
            }
        }
        best
    }

    /// Aggregate program bandwidth in bytes/second when all dies stream
    /// programs (ignoring channel contention).
    pub fn peak_program_bandwidth(&self) -> f64 {
        let per_die = self.geometry.page_size() as f64 / self.timing.program_page.as_secs_f64();
        per_die * self.geometry.total_dies() as f64
    }

    /// Aggregate read bandwidth in bytes/second when all dies stream reads
    /// (ignoring channel contention).
    pub fn peak_read_bandwidth(&self) -> f64 {
        let per_die = self.geometry.page_size() as f64 / self.timing.read_page.as_secs_f64();
        per_die * self.geometry.total_dies() as f64
    }

    /// Clears all timelines and statistics.
    pub fn reset(&mut self) {
        for d in &mut self.dies {
            d.reset();
        }
        for c in &mut self.channels {
            c.reset();
        }
        self.stats = FlashOpStats::default();
    }
}

/// A convenience wrapper: a pool of dies treated as an anonymous k-server
/// station, for models that do not track per-die placement (the cluster's
/// backend nodes use this).
#[derive(Debug, Clone)]
pub struct DiePool {
    pub(crate) pool: ParallelResource,
    pub(crate) timing: FlashTiming,
    pub(crate) page_size: u32,
}

impl DiePool {
    /// A pool of `dies` dies with the given timing and page size.
    ///
    /// # Panics
    ///
    /// Panics if `dies == 0` or `page_size == 0`.
    pub fn new(dies: usize, timing: FlashTiming, page_size: u32) -> Self {
        assert!(page_size > 0, "page size must be positive");
        DiePool {
            pool: ParallelResource::new(dies),
            timing,
            page_size,
        }
    }

    /// Schedules a read of `bytes` (rounded up to whole pages) on the pool.
    pub fn read(&mut self, now: SimTime, bytes: u32) -> SimTime {
        self.pool
            .acquire_many(now, self.timing.read_page, self.pages(bytes))
    }

    /// Schedules a program of `bytes` (rounded up to whole pages) on the pool.
    pub fn program(&mut self, now: SimTime, bytes: u32) -> SimTime {
        self.pool
            .acquire_many(now, self.timing.program_page, self.pages(bytes))
    }

    /// Whole pages covering `bytes`; at least one.
    fn pages(&self, bytes: u32) -> usize {
        bytes.div_ceil(self.page_size).max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::tests::thaw;
    use uc_persist::Persist;
    use uc_sim::SimDuration;

    fn array() -> FlashArray {
        let g = FlashGeometry::new(2, 2, 1, 8, 16, 4096).unwrap();
        FlashArray::new(g, FlashTiming::mlc())
    }

    #[test]
    fn read_takes_sense_plus_transfer() {
        let mut a = array();
        let done = a.read_page(SimTime::ZERO, 0);
        let expected =
            SimTime::ZERO + FlashTiming::mlc().read_page + FlashTiming::mlc().bus_time(4096);
        assert_eq!(done, expected);
    }

    #[test]
    fn program_takes_transfer_plus_program() {
        let mut a = array();
        let done = a.program_page(SimTime::ZERO, 0);
        let expected =
            SimTime::ZERO + FlashTiming::mlc().bus_time(4096) + FlashTiming::mlc().program_page;
        assert_eq!(done, expected);
    }

    #[test]
    fn dies_are_parallel_same_die_serializes() {
        let mut a = array();
        let f0 = a.read_page(SimTime::ZERO, 0);
        let f1 = a.read_page(SimTime::ZERO, 1);
        let f2 = a.read_page(SimTime::ZERO, 0);
        assert_eq!(f0, f1);
        assert!(f2 > f0);
    }

    #[test]
    fn channel_bus_is_shared_within_channel() {
        // Geometry: 1 channel, 2 dies; sense in parallel but transfers
        // serialize on the single channel.
        let g = FlashGeometry::new(1, 2, 1, 8, 16, 4096).unwrap();
        let mut a = FlashArray::new(g, FlashTiming::mlc());
        let f0 = a.read_page(SimTime::ZERO, 0);
        let f1 = a.read_page(SimTime::ZERO, 1);
        let xfer = FlashTiming::mlc().bus_time(4096);
        assert_eq!(f1, f0 + xfer, "second transfer queues on the bus");
    }

    #[test]
    fn erase_occupies_die_only() {
        let mut a = array();
        let f = a.erase_block(SimTime::ZERO, 3);
        assert_eq!(f, SimTime::ZERO + FlashTiming::mlc().erase_block);
        // Channel untouched: a read on the other die in the same channel
        // is not delayed by the erase transfer (there is none).
        let r = a.read_page(SimTime::ZERO, 1);
        assert_eq!(
            r,
            SimTime::ZERO + FlashTiming::mlc().read_page + FlashTiming::mlc().bus_time(4096)
        );
    }

    #[test]
    fn stats_count_operations() {
        let mut a = array();
        a.read_page(SimTime::ZERO, 0);
        a.program_page(SimTime::ZERO, 1);
        a.program_page(SimTime::ZERO, 2);
        a.erase_block(SimTime::ZERO, 3);
        let s = a.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.programs, 2);
        assert_eq!(s.erases, 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn earliest_free_die_prefers_idle() {
        let mut a = array();
        a.read_page(SimTime::ZERO, 0);
        assert_ne!(a.earliest_free_die(), 0);
        assert!(a.die_free_at(0) > SimTime::ZERO);
    }

    #[test]
    fn bandwidth_estimates() {
        let a = array();
        // 4 dies x 4096 B / 600 us.
        let bw = a.peak_program_bandwidth();
        assert!((bw - 4.0 * 4096.0 / 600e-6).abs() < 1.0);
        assert!(a.peak_read_bandwidth() > bw);
    }

    #[test]
    fn reset_clears_everything() {
        let mut a = array();
        a.read_page(SimTime::ZERO, 0);
        a.reset();
        assert_eq!(a.stats().total(), 0);
        assert_eq!(a.die_free_at(0), SimTime::ZERO);
    }

    #[test]
    fn snapshot_restore_resumes_scheduling() {
        let mut a = array();
        a.read_page(SimTime::ZERO, 0);
        a.program_page(SimTime::ZERO, 1);
        let mut b = thaw(&a);
        assert_eq!(b.to_bytes(), a.to_bytes(), "round trip is lossless");
        assert_eq!(b.stats(), a.stats());
        for die in 0..4 {
            assert_eq!(b.die_free_at(die), a.die_free_at(die));
        }
        // Future operations schedule identically.
        assert_eq!(a.read_page(SimTime::ZERO, 0), b.read_page(SimTime::ZERO, 0));
        assert_eq!(
            a.erase_block(SimTime::ZERO, 2),
            b.erase_block(SimTime::ZERO, 2)
        );

        let mut p = DiePool::new(3, FlashTiming::mlc(), 4096);
        p.read(SimTime::ZERO, 2 * 4096);
        let mut q = thaw(&p);
        assert_eq!(
            p.program(SimTime::ZERO, 4 * 4096),
            q.program(SimTime::ZERO, 4 * 4096)
        );
    }

    #[test]
    fn die_pool_parallelism() {
        let mut p = DiePool::new(4, FlashTiming::mlc(), 4096);
        let one = p.read(SimTime::ZERO, 4096);
        let par = p.read(SimTime::ZERO, 3 * 4096);
        assert_eq!(one, par, "reads fan out across pool servers");
        let queued = p.read(SimTime::ZERO, 4096);
        assert!(queued > one, "fifth page queues behind the first four");
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(p.program(t, 1) > t);
    }
}
