//! SSD device configuration and profiles.

use uc_flash::{FlashGeometry, FlashTiming};
use uc_ftl::{FtlConfig, GcPolicy};
use uc_sim::{LatencyDist, SimDuration};

/// Parameters of an [`Ssd`](crate::Ssd).
///
/// Use [`SsdConfig::samsung_970_pro`] for the paper's local-SSD baseline,
/// or build a custom device with [`SsdConfig::custom`] plus the `with_*`
/// methods.
///
/// # Example
///
/// ```
/// use uc_ssd::SsdConfig;
///
/// let cfg = SsdConfig::samsung_970_pro(4 << 30);
/// assert_eq!(cfg.name, "Samsung 970 Pro (scaled)");
/// assert!(cfg.ftl.logical_capacity() >= 4 << 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsdConfig {
    /// Human-readable device name.
    pub name: String,
    /// FTL and flash-array parameters.
    pub ftl: FtlConfig,
    /// Per-command firmware processing time (serialized across commands).
    pub firmware_per_cmd: LatencyDist,
    /// Host DMA bandwidth in bytes/second, per direction (full duplex).
    pub host_bus_bytes_per_sec: f64,
    /// Write-buffer capacity in bytes.
    pub write_buffer_bytes: u64,
    /// Extra latency of a DRAM buffer insert/lookup.
    pub buffer_latency: SimDuration,
    /// Sequential streak length that arms the prefetcher.
    pub prefetch_trigger: u32,
    /// Pages read ahead once the prefetcher is armed (0 disables it).
    pub prefetch_window_pages: u32,
}

impl SsdConfig {
    /// A blank device around the given FTL configuration, with neutral
    /// host-side costs. Intended as the base for `with_*` customization.
    pub fn custom(name: impl Into<String>, ftl: FtlConfig) -> Self {
        SsdConfig {
            name: name.into(),
            ftl,
            firmware_per_cmd: LatencyDist::constant(SimDuration::from_micros(2)),
            host_bus_bytes_per_sec: 3.0e9,
            write_buffer_bytes: 64 << 20,
            buffer_latency: SimDuration::from_micros(5),
            prefetch_trigger: 2,
            prefetch_window_pages: 64,
        }
    }

    /// The paper's local-SSD baseline: a Samsung 970 Pro-class consumer
    /// NVMe drive, scaled to `capacity` bytes.
    ///
    /// Calibration targets (device datasheet / paper Table I):
    /// * sequential read ≈ 3.5 GB/s, sequential write ≈ 2.7 GB/s,
    /// * 4 KiB QD1 random read ≈ 50–60 µs (one NAND sense),
    /// * 4 KiB QD1 write ≈ 10 µs (DRAM write buffer),
    /// * ~500 K IOPS command ceiling (2 µs firmware pipeline),
    /// * deep GC collapse under sustained random writes (small effective
    ///   over-provisioning, greedy victim selection).
    ///
    /// The die count and channel layout match the real part; the block
    /// count is scaled so the device holds `capacity` user bytes, keeping
    /// Figure 3's x-axis (multiples of capacity) meaningful at simulation
    /// scale.
    pub fn samsung_970_pro(capacity: u64) -> Self {
        // 8 channels x 4 dies x 2 planes of 4 KiB pages; the block size and
        // block count are derived from `capacity` below.
        let (channels, dies_per_channel, planes) = (8u32, 4u32, 2u32);
        let dies = (channels * dies_per_channel) as u64;
        let page = 4096u64;
        // GC spare space beyond the user capacity (effective OP).
        let op_spare = 0.045;
        // Must match the FTL's sanitized watermarks (trigger 4 -> target 6)
        // plus the two open frontiers per die.
        let watermark_blocks = 6u64 + 2;

        // Pick the largest block size that still leaves a healthy number of
        // data blocks per die at this capacity (>= 32), so the effective GC
        // spare stays near `op_spare` (block-count rounding adds at most
        // ~2 blocks/die) even at small simulation scales.
        let logical_bytes_per_die = capacity.div_ceil(dies);
        let pages_per_block = [256u64, 128, 64, 32, 16]
            .into_iter()
            .find(|ppb| logical_bytes_per_die / (ppb * page) >= 32)
            .unwrap_or(16);
        let block_bytes = pages_per_block * page;
        let logical_blocks_per_die = logical_bytes_per_die.div_ceil(block_bytes);
        let data_blocks_per_die = (logical_blocks_per_die as f64 * (1.0 + op_spare)).ceil() as u64;
        let blocks_per_die = data_blocks_per_die + watermark_blocks;
        let blocks_per_plane = blocks_per_die.div_ceil(planes as u64) as u32;

        let geometry = FlashGeometry::new(
            channels,
            dies_per_channel,
            planes,
            blocks_per_plane,
            pages_per_block as u32,
            page as u32,
        )
        .expect("derived geometry is valid");
        // Set the FTL's OP fraction so the logical capacity is exactly the
        // requested capacity; the spare beyond `op_spare` is the watermark
        // overhead accounted above.
        let op = 1.0 - (capacity + page) as f64 / geometry.raw_capacity() as f64;

        // Timing calibrated to datasheet bandwidth at this geometry:
        // dies x page / t gives the aggregate die bandwidth.
        let df = geometry.total_dies() as f64;
        let pf = geometry.page_size() as f64;
        let timing = FlashTiming {
            // ~3.5 GB/s aggregate read (also sets ~40 us 4K random read).
            read_page: SimDuration::from_secs_f64(df * pf / 3.5e9),
            // ~2.7 GB/s aggregate program.
            program_page: SimDuration::from_secs_f64(df * pf / 2.7e9),
            erase_block: SimDuration::from_millis(3),
            bus_ns_per_byte: 0.4, // 2.5 GB/s per channel; not the bottleneck
        };
        let ftl = FtlConfig::new(geometry, timing)
            .with_over_provisioning(op)
            .with_gc_policy(GcPolicy::Greedy);
        SsdConfig {
            name: "Samsung 970 Pro (scaled)".to_string(),
            ftl,
            firmware_per_cmd: LatencyDist::normal(
                SimDuration::from_micros(2),
                SimDuration::from_nanos(200),
            )
            .with_tail(
                LatencyDist::uniform(SimDuration::from_micros(20), SimDuration::from_micros(60)),
                0.001,
            ),
            // PCIe 3.0 x4, full duplex: reads are die-limited (~3.5 GB/s),
            // writes drain-limited (~2.7 GB/s).
            host_bus_bytes_per_sec: 3.6e9,
            // ~1.5 % of capacity, the ballpark of real write-cache ratios;
            // scaling it with capacity keeps Figure 3's volume axis clean.
            write_buffer_bytes: (capacity / 64).clamp(2 << 20, 512 << 20),
            buffer_latency: SimDuration::from_micros(6),
            prefetch_trigger: 2,
            prefetch_window_pages: 64,
        }
    }

    /// Replaces the device name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the host bus bandwidth (bytes/second, per direction).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive and finite.
    pub fn with_host_bus(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "host bus bandwidth must be positive"
        );
        self.host_bus_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Replaces the write-buffer capacity.
    pub fn with_write_buffer(mut self, bytes: u64) -> Self {
        self.write_buffer_bytes = bytes;
        self
    }

    /// Configures the prefetcher (`window_pages == 0` disables it).
    pub fn with_prefetch(mut self, trigger: u32, window_pages: u32) -> Self {
        self.prefetch_trigger = trigger.max(1);
        self.prefetch_window_pages = window_pages;
        self
    }

    /// The host transfer time for `bytes` in one direction.
    pub fn bus_time(&self, bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.host_bus_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_capacity_scales() {
        for cap in [1u64 << 30, 4 << 30, 16 << 30] {
            let cfg = SsdConfig::samsung_970_pro(cap);
            assert!(
                cfg.ftl.logical_capacity() >= cap,
                "profile must offer at least the requested capacity"
            );
            assert_eq!(cfg.ftl.geometry.total_dies(), 32);
        }
    }

    #[test]
    fn profile_timing_hits_bandwidth_targets() {
        let cfg = SsdConfig::samsung_970_pro(4 << 30);
        let g = cfg.ftl.geometry;
        let read_bw =
            g.total_dies() as f64 * g.page_size() as f64 / cfg.ftl.timing.read_page.as_secs_f64();
        let write_bw = g.total_dies() as f64 * g.page_size() as f64
            / cfg.ftl.timing.program_page.as_secs_f64();
        assert!((read_bw - 3.5e9).abs() / 3.5e9 < 0.02, "read bw {read_bw}");
        assert!(
            (write_bw - 2.7e9).abs() / 2.7e9 < 0.02,
            "write bw {write_bw}"
        );
    }

    #[test]
    fn builder_methods() {
        let cfg = SsdConfig::samsung_970_pro(1 << 30)
            .with_host_bus(1e9)
            .with_write_buffer(1 << 20)
            .with_prefetch(3, 16);
        assert_eq!(cfg.host_bus_bytes_per_sec, 1e9);
        assert_eq!(cfg.write_buffer_bytes, 1 << 20);
        assert_eq!(cfg.prefetch_trigger, 3);
        assert_eq!(cfg.prefetch_window_pages, 16);
        assert_eq!(cfg.bus_time(1_000_000_000), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bus_rejected() {
        let _ = SsdConfig::samsung_970_pro(1 << 30).with_host_bus(0.0);
    }
}
