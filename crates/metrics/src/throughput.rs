//! Windowed throughput tracking.

use crate::Series;
use uc_sim::{SimDuration, SimTime};

/// Accumulates completed bytes into fixed-width time windows.
///
/// This is the collector behind the paper's Figure 3 (runtime throughput of
/// a sustained random-write workload): every completed I/O deposits its byte
/// count into the window containing its completion time, and
/// [`ThroughputTracker::series`] converts the windows into a
/// gigabytes-per-second time series.
///
/// # Example
///
/// ```
/// use uc_metrics::ThroughputTracker;
/// use uc_sim::{SimDuration, SimTime};
///
/// let mut t = ThroughputTracker::new(SimDuration::from_secs(1));
/// t.record(SimTime::from_nanos(500_000_000), 1 << 30); // 1 GiB in window 0
/// let series = t.series();
/// assert_eq!(series.len(), 1);
/// assert!((series.points()[0].1 - 1.073).abs() < 0.01); // ~1.07 GB/s
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputTracker {
    window: SimDuration,
    windows: Vec<u64>,
    total_bytes: u64,
    last_time: SimTime,
}

impl ThroughputTracker {
    /// A tracker with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "throughput window must be non-zero");
        ThroughputTracker {
            window,
            windows: Vec::new(),
            total_bytes: 0,
            last_time: SimTime::ZERO,
        }
    }

    /// The window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Records `bytes` completed at instant `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64) {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, 0);
        }
        self.windows[idx] += bytes;
        self.total_bytes += bytes;
        self.last_time = self.last_time.max(at);
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The latest completion instant seen.
    pub fn last_time(&self) -> SimTime {
        self.last_time
    }

    /// Overall average throughput in GB/s (decimal gigabytes), or zero if
    /// nothing has been recorded.
    pub fn average_gbps(&self) -> f64 {
        let secs = self.last_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / 1e9 / secs
        }
    }

    /// The per-window throughput series: `(window start in seconds, GB/s)`.
    pub fn series(&self) -> Series {
        let w_secs = self.window.as_secs_f64();
        let points = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, &bytes)| (i as f64 * w_secs, bytes as f64 / 1e9 / w_secs))
            .collect();
        Series::from_points("throughput (GB/s)", points)
    }

    /// Cumulative bytes written by the end of each window.
    pub fn cumulative_series(&self) -> Series {
        let w_secs = self.window.as_secs_f64();
        let mut cum = 0u64;
        let points = self
            .windows
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                cum += bytes;
                ((i + 1) as f64 * w_secs, cum as f64)
            })
            .collect();
        Series::from_points("cumulative bytes", points)
    }

    /// Discards all recorded data, keeping the window width.
    pub fn clear(&mut self) {
        self.windows.clear();
        self.total_bytes = 0;
        self.last_time = SimTime::ZERO;
    }
}

uc_persist::persist_struct! {
    ThroughputTracker { window, windows, total_bytes, last_time },
    check = check_window
}

fn check_window(t: &ThroughputTracker) -> Result<(), uc_persist::DecodeError> {
    uc_persist::ensure(!t.window.is_zero(), "ThroughputTracker.window")
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = ThroughputTracker::new(SimDuration::ZERO);
    }

    #[test]
    fn bytes_land_in_correct_windows() {
        let mut t = ThroughputTracker::new(SimDuration::from_secs(1));
        t.record(SimTime::from_nanos(100), 10);
        t.record(SimTime::ZERO + SimDuration::from_millis(2500), 20);
        let s = t.series();
        assert_eq!(s.len(), 3);
        let pts = s.points();
        assert!((pts[0].1 - 10.0 / 1e9).abs() < 1e-15);
        assert_eq!(pts[1].1, 0.0);
        assert!((pts[2].1 - 20.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn totals_and_average() {
        let mut t = ThroughputTracker::new(SimDuration::from_secs(1));
        t.record(SimTime::ZERO + SimDuration::from_secs(2), 4_000_000_000);
        assert_eq!(t.total_bytes(), 4_000_000_000);
        assert!((t.average_gbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cumulative_is_nondecreasing() {
        let mut t = ThroughputTracker::new(SimDuration::from_millis(100));
        for i in 0..50 {
            t.record(SimTime::from_nanos(i * 37_000_000), 5);
        }
        let cum = t.cumulative_series();
        let pts = cum.points();
        for w in pts.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(pts.last().map(|p| p.1), Some(250.0));
    }

    #[test]
    fn persist_round_trip_is_lossless() {
        let mut t = ThroughputTracker::new(SimDuration::from_millis(10));
        for i in 0..100u64 {
            t.record(SimTime::from_nanos(i * 7_000_000), 1000 + i);
        }
        let mut w = uc_persist::Encoder::new();
        t.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = uc_persist::Decoder::new(&bytes);
        let back = ThroughputTracker::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.window(), t.window());
        assert_eq!(back.total_bytes(), t.total_bytes());
        assert_eq!(back.last_time(), t.last_time());
        assert_eq!(back.series(), t.series());
    }

    #[test]
    fn persist_rejects_zero_window() {
        let mut w = uc_persist::Encoder::new();
        SimDuration::ZERO.encode(&mut w);
        Vec::<u64>::new().encode(&mut w);
        w.put_u64(0);
        SimTime::ZERO.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            ThroughputTracker::decode(&mut uc_persist::Decoder::new(&bytes)),
            Err(uc_persist::DecodeError::InvalidValue {
                what: "ThroughputTracker.window"
            })
        ));
    }

    #[test]
    fn clear_resets() {
        let mut t = ThroughputTracker::new(SimDuration::from_secs(1));
        t.record(SimTime::from_nanos(5), 5);
        t.clear();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.series().len(), 0);
    }
}
