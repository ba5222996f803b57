//! The assembled SSD device.

use crate::{Prefetcher, SsdConfig, WriteBuffer};
use uc_blockdev::{
    BlockDevice, CheckpointDevice, CheckpointError, Completion, DeviceCheckpoint, DeviceInfo,
    IoBatch, IoError, IoKind, IoRequest, IoResult,
};
use uc_ftl::{Ftl, FtlStats};
use uc_persist::Encoder;
use uc_sim::{Resource, SimRng, SimTime};

/// Activity counters of an [`Ssd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SsdStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Pages served from the DRAM write buffer.
    pub buffer_hits: u64,
    /// Pages served from the readahead prefetcher.
    pub prefetch_hits: u64,
    /// Pages fetched ahead by the prefetcher.
    pub prefetch_issued: u64,
}

/// A local flash SSD.
///
/// Composes the firmware pipeline, host DMA lanes, DRAM write buffer,
/// readahead prefetcher and the page-mapping FTL into one
/// [`BlockDevice`]. See the crate docs for which paper behaviour each
/// component produces.
///
/// # Example
///
/// ```
/// use uc_blockdev::{BlockDevice, IoRequest};
/// use uc_sim::SimTime;
/// use uc_ssd::{Ssd, SsdConfig};
///
/// let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(1 << 30));
/// let w = ssd.submit(&IoRequest::write(0, 8192, SimTime::ZERO))?;
/// let r = ssd.submit(&IoRequest::read(0, 8192, w))?;
/// assert!(r > w);
/// assert_eq!(ssd.stats().writes, 1);
/// # Ok::<(), uc_blockdev::IoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ssd {
    pub(crate) config: SsdConfig,
    /// Derived from the configuration's name and the FTL's capacity.
    pub(crate) info: DeviceInfo,
    pub(crate) ftl: Ftl,
    pub(crate) firmware: Resource,
    pub(crate) read_lane: Resource,
    pub(crate) write_lane: Resource,
    pub(crate) buffer: WriteBuffer,
    pub(crate) prefetcher: Prefetcher,
    pub(crate) rng: SimRng,
    pub(crate) stats: SsdStats,
}

impl Ssd {
    /// Builds the device described by `config`, seeding its internal jitter
    /// stream deterministically from the configuration name.
    pub fn new(config: SsdConfig) -> Self {
        Ssd::with_seed(config, 0x55D0)
    }

    /// Builds the device with an explicit jitter seed.
    pub fn with_seed(config: SsdConfig, seed: u64) -> Self {
        let ftl = Ftl::new(config.ftl);
        let page = ftl.page_size() as u64;
        let capacity = ftl.logical_pages() * page;
        let info = DeviceInfo::new(config.name.clone(), capacity, ftl.page_size());
        let buffer_pages = (config.write_buffer_bytes / page).max(1) as usize;
        Ssd {
            buffer: WriteBuffer::new(buffer_pages),
            prefetcher: Prefetcher::new(config.prefetch_trigger, config.prefetch_window_pages),
            ftl,
            info,
            firmware: Resource::new(),
            read_lane: Resource::new(),
            write_lane: Resource::new(),
            rng: SimRng::new(seed),
            stats: SsdStats::default(),
            config,
        }
    }

    /// Device activity counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// FTL counters (host/GC pages, write amplification).
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// The device's page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.ftl.page_size()
    }

    /// Immutable access to the FTL (wear, mapping state) for analysis.
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    fn fw_acquire(&mut self, now: SimTime) -> SimTime {
        let cost = self.config.firmware_per_cmd.sample(&mut self.rng);
        self.firmware.acquire(now, cost).1
    }

    fn serve_write(&mut self, req: &IoRequest) -> SimTime {
        let page = self.ftl.page_size() as u64;
        let first = req.offset / page;
        let pages = (req.len as u64) / page;
        let per_page_bus = self.config.bus_time(page as u32);

        let t_fw = self.fw_acquire(req.submit_time);
        // The firmware is one serial station, so `t_fw` never decreases
        // and every later read looks up residency at a `t_fw` no earlier
        // than this one: pruning here bounds the buffer's bookkeeping
        // without changing any lookup. (DMA and admission instants are
        // not monotone across commands, so they are no prune points.)
        self.buffer.prune(t_fw);
        let mut last_admit = t_fw;
        for i in 0..pages {
            let lpn = first + i;
            // DMA the page into the staging area (serialized write lane)...
            let (_, transferred) = self.write_lane.acquire(t_fw, per_page_bus);
            // ...then claim a buffer slot (may wait for the drain engine).
            let (seq, admit) = self.buffer.admit(transferred);
            let drain = self.ftl.write_page(admit, lpn);
            self.buffer.record_drain(seq, lpn, drain);
            last_admit = last_admit.max(admit);
        }
        self.stats.writes += 1;
        self.stats.write_bytes += req.len as u64;
        last_admit + self.config.buffer_latency
    }

    fn serve_read(&mut self, req: &IoRequest) -> SimTime {
        let page = self.ftl.page_size() as u64;
        let first = req.offset / page;
        let pages = (req.len as u64) / page;
        let per_page_bus = self.config.bus_time(page as u32);
        let logical_pages = self.ftl.logical_pages();

        let t_fw = self.fw_acquire(req.submit_time);

        // Arm/extend readahead before serving, so this request benefits
        // from ranges issued by earlier requests.
        if let Some(range) = self.prefetcher.observe(first, pages) {
            for lpn in range {
                if lpn >= logical_pages {
                    break;
                }
                let ready = self.ftl.read_page(t_fw, lpn);
                self.prefetcher.insert(lpn, ready);
                self.stats.prefetch_issued += 1;
            }
        }

        let mut done = t_fw;
        for i in 0..pages {
            let lpn = first + i;
            let ready = if self.buffer.contains(lpn, t_fw) {
                self.stats.buffer_hits += 1;
                t_fw + self.config.buffer_latency
            } else if let Some(at) = self.prefetcher.take(lpn) {
                self.stats.prefetch_hits += 1;
                at.max(t_fw + self.config.buffer_latency)
            } else {
                self.ftl.read_page(t_fw, lpn)
            };
            // DMA back to the host as each page arrives (pipelined).
            let (_, transferred) = self.read_lane.acquire(ready, per_page_bus);
            done = done.max(transferred);
        }
        self.stats.reads += 1;
        self.stats.read_bytes += req.len as u64;
        done
    }
}

impl BlockDevice for Ssd {
    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.info.validate(req)?;
        let done = match req.kind {
            IoKind::Write => self.serve_write(req),
            IoKind::Read => self.serve_read(req),
        };
        Ok(done)
    }

    // The doorbell is the request-at-a-time loop (`submit_each`),
    // monomorphized per impl, so batched submission is a loop of
    // statically dispatched `submit` calls with identical completion
    // instants (asserted by `batch_submission_matches_sequential`). It
    // posts straight into the caller's completion queue; `submit_batch`
    // stays on the trait default, which allocates a queue per call.
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        uc_blockdev::submit_each(self, batch, completions)
    }

    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        let f = self.ftl.stats();
        let flash = self.ftl.flash_stats();
        let wear = self.ftl.wear();
        for (name, v) in [
            ("host.reads", self.stats.reads),
            ("host.writes", self.stats.writes),
            ("host.read_bytes", self.stats.read_bytes),
            ("host.write_bytes", self.stats.write_bytes),
            ("buffer.hits", self.stats.buffer_hits),
            ("prefetch.hits", self.stats.prefetch_hits),
            ("prefetch.issued", self.stats.prefetch_issued),
            ("ftl.host_pages_written", f.host_pages_written),
            ("ftl.host_pages_read", f.host_pages_read),
            ("ftl.gc_pages_relocated", f.gc_pages_relocated),
            ("ftl.gc_blocks_erased", f.gc_blocks_erased),
            ("ftl.gc_invocations", f.gc_invocations),
            ("ftl.pages_trimmed", f.pages_trimmed),
            ("ftl.map_updates", f.map_updates()),
            ("flash.reads", flash.reads),
            ("flash.programs", flash.programs),
            ("flash.erases", flash.erases),
        ] {
            let id = obs.counter(&format!("{prefix}.{name}"));
            obs.set_counter(id, v);
        }
        for (name, v) in [
            ("ftl.mapped_pages", self.ftl.mapped_pages() as i64),
            ("ftl.valid_pages", self.ftl.total_valid_pages() as i64),
            ("ftl.free_blocks", self.ftl.free_blocks() as i64),
            ("ftl.wa_milli", f.wa_milli() as i64),
            ("ftl.wear_spread", wear.spread() as i64),
        ] {
            let id = obs.gauge(&format!("{prefix}.{name}"));
            obs.set(id, v);
        }
    }
}

impl CheckpointDevice for Ssd {
    fn checkpoint(&self) -> DeviceCheckpoint {
        DeviceCheckpoint::persistent(self.info.name(), self.clone())
    }

    fn encode_checkpoint(&self, w: &mut Encoder) {
        DeviceCheckpoint::encode_payload(self.info.name(), self, w)
    }

    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        checkpoint.restore_onto(self, |device| &device.info)
    }
}

// Parallel experiment cells move built devices across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ssd>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::resident_view;
    use uc_blockdev::IoBatch;
    use uc_persist::{Encoder, Persist};
    use uc_sim::SimDuration;

    fn ssd() -> Ssd {
        Ssd::new(SsdConfig::samsung_970_pro(1 << 30))
    }

    #[test]
    fn batch_submission_matches_sequential() {
        let reqs: Vec<IoRequest> = (0..24u64)
            .map(|i| {
                let off = (i.wrapping_mul(2654435761) % 1024) * 4096;
                if i % 3 == 0 {
                    IoRequest::read(off, 4096, SimTime::ZERO)
                } else {
                    IoRequest::write(off, 8192, SimTime::ZERO)
                }
            })
            .collect();
        let mut sequential = ssd();
        let expected: Vec<SimTime> = reqs.iter().map(|r| sequential.submit(r).unwrap()).collect();
        let mut batched = ssd();
        let batch: IoBatch = reqs.iter().copied().collect();
        let done: Vec<SimTime> = batched
            .submit_batch(&batch)
            .unwrap()
            .iter()
            .map(|c| c.completes)
            .collect();
        assert_eq!(done, expected);
        assert_eq!(batched.stats(), sequential.stats());
    }

    fn us(d: SimDuration) -> f64 {
        d.as_micros_f64()
    }

    #[test]
    fn small_write_is_buffered_fast() {
        let mut dev = ssd();
        let done = dev
            .submit(&IoRequest::write(0, 4096, SimTime::ZERO))
            .unwrap();
        let lat = us(done - SimTime::ZERO);
        assert!(lat < 20.0, "buffered 4K write took {lat} us");
    }

    #[test]
    fn random_read_pays_nand_sense() {
        let mut dev = ssd();
        let done = dev
            .submit(&IoRequest::read(4096 * 999, 4096, SimTime::ZERO))
            .unwrap();
        let lat = us(done - SimTime::ZERO);
        assert!(
            (30.0..90.0).contains(&lat),
            "4K random read took {lat} us, expected a NAND sense"
        );
    }

    #[test]
    fn sequential_reads_become_prefetch_hits() {
        let mut dev = ssd();
        let mut now = SimTime::ZERO;
        let mut lats = Vec::new();
        for i in 0..16u64 {
            let done = dev.submit(&IoRequest::read(i * 4096, 4096, now)).unwrap();
            lats.push(us(done - now));
            now = done;
        }
        // After warmup the stream is served from readahead at ~bus speed.
        let warm = &lats[4..];
        let avg = warm.iter().sum::<f64>() / warm.len() as f64;
        assert!(avg < 15.0, "warm sequential reads averaged {avg} us");
        assert!(dev.stats().prefetch_hits > 8);
    }

    #[test]
    fn read_after_write_hits_buffer() {
        let mut dev = ssd();
        let w = dev
            .submit(&IoRequest::write(8192, 4096, SimTime::ZERO))
            .unwrap();
        let r = dev.submit(&IoRequest::read(8192, 4096, w)).unwrap();
        assert!(dev.stats().buffer_hits >= 1);
        assert!(us(r - w) < 20.0, "buffered read took {} us", us(r - w));
    }

    #[test]
    fn firmware_serializes_at_depth() {
        // Submit a burst of 16 4K writes at t=0; the last completion should
        // reflect ~16 firmware slots (~2 us each), like the paper's QD16 row.
        let mut dev = ssd();
        let mut last = SimTime::ZERO;
        for i in 0..16u64 {
            let done = dev
                .submit(&IoRequest::write(i * 4096, 4096, SimTime::ZERO))
                .unwrap();
            last = last.max(done);
        }
        let lat = us(last - SimTime::ZERO);
        assert!((25.0..80.0).contains(&lat), "QD16 burst tail was {lat} us");
    }

    #[test]
    fn large_write_costs_transfer_time() {
        let mut dev = ssd();
        let done = dev
            .submit(&IoRequest::write(0, 256 * 1024, SimTime::ZERO))
            .unwrap();
        let lat = us(done - SimTime::ZERO);
        // 256 KiB at 2.8 GB/s is ~94 us of DMA.
        assert!((80.0..200.0).contains(&lat), "256K write took {lat} us");
    }

    #[test]
    fn validation_errors_propagate() {
        let mut dev = ssd();
        assert!(dev
            .submit(&IoRequest::read(1, 4096, SimTime::ZERO))
            .is_err());
        assert!(dev
            .submit(&IoRequest::read(dev.info().capacity(), 4096, SimTime::ZERO))
            .is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut dev = ssd();
        dev.submit(&IoRequest::write(0, 8192, SimTime::ZERO))
            .unwrap();
        dev.submit(&IoRequest::read(0, 4096, SimTime::ZERO))
            .unwrap();
        let s = dev.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.write_bytes, 8192);
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(dev.ftl_stats().host_pages_written, 2);
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        // Drive mixed traffic to a midpoint, checkpoint, restore onto a
        // fresh device, and verify both serve the same remaining requests
        // with identical completion instants and counters.
        let mut a = ssd();
        let mut now = SimTime::ZERO;
        let mut state = 11u64;
        let next_req = |state: &mut u64, now: SimTime| {
            *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (*state % 2048) * 4096;
            if (*state).is_multiple_of(3) {
                IoRequest::read(off, 4096, now)
            } else {
                IoRequest::write(off, 8192, now)
            }
        };
        for _ in 0..64 {
            now = a.submit(&next_req(&mut state, now)).unwrap();
        }
        let cp = CheckpointDevice::checkpoint(&a);
        let mut b = ssd();
        b.restore_from(cp).unwrap();
        assert_eq!(b.to_bytes(), a.to_bytes(), "restore is lossless");
        let mut now_b = now;
        let mut state_b = state;
        for _ in 0..64 {
            let done_a = a.submit(&next_req(&mut state, now)).unwrap();
            let done_b = b.submit(&next_req(&mut state_b, now_b)).unwrap();
            assert_eq!(done_a, done_b);
            now = done_a;
            now_b = done_b;
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.ftl_stats(), b.ftl_stats());
    }

    /// The next request of a small random mix over the first 64 pages:
    /// one read in three, writes of one to four pages.
    fn mixed_request(state: &mut u64, now: SimTime) -> IoRequest {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = *state >> 33;
        let off = (r % 64) * 4096;
        if r.is_multiple_of(3) {
            IoRequest::read(off, 4096, now)
        } else {
            IoRequest::write(off, 4096 * (1 + (r >> 8) as u32 % 4), now)
        }
    }

    #[test]
    fn write_only_buffer_bookkeeping_stays_bounded() {
        // 256 buffer slots; 3,200 pages written one 64 KiB command at a
        // time, each submitted when the previous one completes.
        let mut dev = Ssd::new(SsdConfig::samsung_970_pro(1 << 30).with_write_buffer(1 << 20));
        let capacity = dev.buffer.capacity_pages();
        let pages = 16;
        let mut now = SimTime::ZERO;
        let mut state = 3u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (state >> 33) % 4096 * 65536;
            now = dev.submit(&IoRequest::write(off, 65536, now)).unwrap();
            let pending = &dev.buffer.pending;
            assert!(
                pending.len() <= capacity + pages,
                "{} pages tracked, capacity {capacity} + {pages} in flight",
                pending.len()
            );
            assert!(dev.buffer.resident.len() <= pending.len());
        }
    }

    #[test]
    fn restore_from_unpruned_buffer_continues_identically() {
        // A write-only prefix; every buffer record it makes is collected,
        // which is what a buffer pruned only by lookups would still hold.
        let mut a = Ssd::new(SsdConfig::samsung_970_pro(1 << 30).with_write_buffer(256 << 10));
        let mut records: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut state = 5u64;
        for _ in 0..200 {
            let mut req = mixed_request(&mut state, now);
            req.kind = IoKind::Write;
            now = a.submit(&req).unwrap();
            let seen = records.last().map_or(0, |&(_, _, seq)| seq + 1);
            records.extend(a.buffer.pending.iter().filter(|r| r.2 >= seen));
        }
        // The same buffer holding every record, encoded field by field.
        let buffer = &a.buffer;
        assert!(records.len() > buffer.pending.len());
        let mut w = Encoder::new();
        (buffer.capacity, buffer.ring.clone(), buffer.admitted).encode(&mut w);
        (resident_view(&records), records).encode(&mut w);
        let unpruned = WriteBuffer::from_bytes(w.as_bytes()).expect("a well-formed buffer");

        let mut b = Ssd::from_bytes(&a.to_bytes()).unwrap();
        let mut c = b.clone();
        c.buffer = unpruned;
        let mut now_c = now;
        let mut state_c = state;
        for _ in 0..400 {
            let done_b = b.submit(&mixed_request(&mut state, now)).unwrap();
            let done_c = c.submit(&mixed_request(&mut state_c, now_c)).unwrap();
            assert_eq!(done_b, done_c);
            now = done_b;
            now_c = done_c;
        }
        assert!(
            b.stats().buffer_hits > 0,
            "the mix must read buffered pages"
        );
        assert_eq!(b.stats(), c.stats());
        assert_eq!(b.ftl_stats(), c.ftl_stats());
    }

    #[test]
    fn checkpoint_rejects_wrong_device() {
        let cp = CheckpointDevice::checkpoint(&ssd());
        let mut other = Ssd::new(SsdConfig::samsung_970_pro(1 << 30).with_name("other"));
        assert!(matches!(
            other.restore_from(cp),
            Err(CheckpointError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn sustained_random_writes_slow_to_drain_rate() {
        // Shrink the buffer so drain pressure appears quickly.
        let cfg = SsdConfig::samsung_970_pro(1 << 30).with_write_buffer(1 << 20);
        let mut dev = Ssd::new(cfg);
        let cap = dev.info().capacity();
        let io = 64 * 1024u32;
        let mut now = SimTime::ZERO;
        let mut state = 7u64;
        let slots = cap / io as u64;
        // Push 2x the buffer size through and watch latency rise to ~drain.
        let mut first = SimDuration::ZERO;
        let mut last = SimDuration::ZERO;
        for i in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (state % slots) * io as u64;
            let done = dev.submit(&IoRequest::write(off, io, now)).unwrap();
            if i == 0 {
                first = done - now;
            }
            last = done - now;
            now = done;
        }
        assert!(
            last > first,
            "back-pressure should raise write latency ({} -> {})",
            first,
            last
        );
    }
}
