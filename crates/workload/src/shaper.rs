//! I/O shaping: Implication 4 as a reusable component.
//!
//! The paper's Implication 4 tells cloud software to "smooth the read/write
//! I/Os to be evenly distributed across the timeline and below the
//! guaranteed throughput budget". [`Shaper`] is that advice as a device
//! adapter: it wraps any [`BlockDevice`] and re-times submissions through a
//! token bucket, so bursts are queued at the host instead of slamming the
//! tenant budget (where they would queue anyway — at a higher bill).

use uc_blockdev::{BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult};
use uc_sim::TokenBucket;

/// A byte-rate shaping layer in front of a block device.
///
/// Every request reserves `len` tokens from a bucket refilled at the
/// shaping rate; the request is forwarded with its submission time moved
/// to the grant instant. Latency reported to the caller therefore includes
/// the shaping delay — exactly what an application-level pacer costs.
///
/// # Example
///
/// ```
/// use uc_blockdev::{BlockDevice, IoRequest};
/// use uc_sim::SimTime;
/// use uc_ssd::{Ssd, SsdConfig};
/// use uc_workload::Shaper;
///
/// let ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
/// // Pace at 100 MB/s with a 1 MiB burst allowance.
/// let mut shaped = Shaper::new(ssd, 100.0e6, 1 << 20);
/// let a = shaped.submit(&IoRequest::write(0, 1 << 20, SimTime::ZERO))?;
/// let b = shaped.submit(&IoRequest::write(1 << 20, 1 << 20, SimTime::ZERO))?;
/// // The second 1 MiB write was paced: ~10 ms behind the first.
/// assert!((b - a).as_secs_f64() > 8e-3);
/// # Ok::<(), uc_blockdev::IoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Shaper<D> {
    inner: D,
    /// The inner device's facts, captured once: every request is
    /// validated against them without cloning the device name.
    info: DeviceInfo,
    bucket: TokenBucket,
    shaped_requests: u64,
}

impl<D: BlockDevice> Shaper<D> {
    /// Wraps `inner`, shaping to `bytes_per_sec` with the given burst.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` or `burst_bytes` is not positive.
    pub fn new(inner: D, bytes_per_sec: f64, burst_bytes: u64) -> Self {
        Shaper {
            info: inner.info(),
            inner,
            bucket: TokenBucket::new(burst_bytes.max(1) as f64, bytes_per_sec),
            shaped_requests: 0,
        }
    }

    /// The shaping rate in bytes/second.
    pub fn rate(&self) -> f64 {
        self.bucket.rate()
    }

    /// Requests forwarded so far.
    pub fn shaped_requests(&self) -> u64 {
        self.shaped_requests
    }

    /// Gives back the wrapped device.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Borrows the wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BlockDevice> BlockDevice for Shaper<D> {
    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.info.validate(req)?;
        let release = self.bucket.reserve(req.submit_time, req.len as u64);
        self.shaped_requests += 1;
        let shaped = IoRequest {
            submit_time: release,
            ..*req
        };
        self.inner.submit(&shaped)
    }

    // Every request is re-timed on its own, so the doorbell is the
    // request-at-a-time loop, posting into the caller's queue.
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        uc_blockdev::submit_each(self, batch, completions)
    }

    fn idle_until(&mut self, now: uc_sim::SimTime) {
        self.inner.idle_until(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdev::TestDevice;
    use uc_sim::{SimDuration, SimTime};

    /// A 64-way device with a fixed 50 us service time.
    fn fixed() -> TestDevice {
        TestDevice::new(50, 64)
    }

    #[test]
    fn burst_rides_the_bucket_then_paces() {
        // 1 MB/s, 8 KiB burst: two 4 KiB writes pass, the third waits.
        let mut s = Shaper::new(fixed(), 1e6, 8192);
        let a = s.submit(&IoRequest::write(0, 4096, SimTime::ZERO)).unwrap();
        let b = s
            .submit(&IoRequest::write(4096, 4096, SimTime::ZERO))
            .unwrap();
        let c = s
            .submit(&IoRequest::write(8192, 4096, SimTime::ZERO))
            .unwrap();
        assert_eq!(a, b);
        // 4096 bytes at 1 MB/s = 4.096 ms of pacing.
        assert!((c - a).as_secs_f64() > 4e-3, "paced by {}", c - a);
        assert_eq!(s.shaped_requests(), 3);
    }

    #[test]
    fn sustained_rate_equals_shaping_rate() {
        let mut s = Shaper::new(fixed(), 10e6, 4096);
        let mut last = SimTime::ZERO;
        let n = 200u64;
        for i in 0..n {
            last = s
                .submit(&IoRequest::write((i % 100) * 4096, 4096, SimTime::ZERO))
                .unwrap();
        }
        let rate = (n * 4096) as f64 / last.as_secs_f64();
        assert!(
            (rate - 10e6).abs() / 10e6 < 0.05,
            "shaped rate {rate} B/s vs 10e6"
        );
    }

    #[test]
    fn validation_happens_before_shaping() {
        let mut s = Shaper::new(fixed(), 1e6, 4096);
        assert!(s.submit(&IoRequest::write(3, 4096, SimTime::ZERO)).is_err());
        // The failed request must not consume tokens.
        let ok = s.submit(&IoRequest::write(0, 4096, SimTime::ZERO)).unwrap();
        assert_eq!(ok, SimTime::ZERO + SimDuration::from_micros(50));
    }

    #[test]
    fn info_and_unwrap_pass_through() {
        let s = Shaper::new(fixed(), 1e6, 4096);
        assert_eq!(s.info().capacity(), 1 << 30);
        assert_eq!(s.rate(), 1e6);
        let _inner: TestDevice = s.into_inner();
    }
}
