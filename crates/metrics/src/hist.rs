//! HDR-style log-bucketed latency histogram.

use std::fmt;
use uc_sim::SimDuration;

/// Number of sub-buckets per power-of-two group (64 → ~1.5 % max error).
const SUB: u64 = 64;
const SUB_BITS: u32 = 6;
/// Enough groups to cover the full `u64` nanosecond range.
const GROUPS: usize = 60;

/// A latency histogram with logarithmic bucketing.
///
/// Values are recorded in nanoseconds. Buckets are organized HDR-histogram
/// style: group 0 holds exact counts for `[0, 64)` ns; each later group `g`
/// covers `[64·2^(g-1), 64·2^g)` ns with 64 sub-buckets, bounding relative
/// quantization error by `1/64` (~1.5 %). Count, sum, minimum and maximum
/// are tracked exactly, so [`LatencyHistogram::mean`] has no quantization
/// error at all.
///
/// # Example
///
/// ```
/// use uc_metrics::LatencyHistogram;
/// use uc_sim::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// h.record(SimDuration::from_micros(100));
/// h.record(SimDuration::from_micros(300));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), SimDuration::from_micros(200));
/// assert!(h.max() >= SimDuration::from_micros(300));
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; SUB as usize * GROUPS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: SimDuration) {
        self.record_n(value, 1);
    }

    /// Records `n` identical latency samples.
    ///
    /// All accumulators saturate instead of wrapping: a histogram that has
    /// absorbed astronomically many samples pins `count`/`sum` at their
    /// maxima rather than silently restarting from zero, which would
    /// corrupt every percentile downstream.
    pub fn record_n(&mut self, value: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let v = value.as_nanos();
        let idx = Self::index_for(v);
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum_ns = self.sum_ns.saturating_add(v as u128 * n as u128);
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of every recorded value, in nanoseconds.
    ///
    /// `u128`: a `u64` would overflow after ~584 sample-years of summed
    /// latency, which TB-scale endurance runs can reach.
    pub fn sum_nanos(&self) -> u128 {
        self.sum_ns
    }

    /// Exact arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
    }

    /// Exact minimum recorded value, or zero if empty.
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min_ns)
        }
    }

    /// Exact maximum recorded value, or zero if empty.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// The value at percentile `p` (0–100), within bucket quantization.
    ///
    /// Returns zero for an empty histogram. `p` is clamped to `[0, 100]`.
    /// The returned value is the representative (midpoint) of the bucket
    /// containing the `ceil(p/100 · count)`-th smallest sample, clamped to
    /// the exact observed min/max so percentile queries never escape the
    /// recorded range.
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let p = p.clamp(0.0, 100.0);
        let mut target = ((p / 100.0) * self.count as f64).ceil() as u64;
        target = target.clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let mid = Self::bucket_midpoint(idx).clamp(self.min_ns, self.max_ns);
                return SimDuration::from_nanos(mid);
            }
        }
        SimDuration::from_nanos(self.max_ns)
    }

    /// Convenience accessor for the paper's two headline metrics.
    ///
    /// Returns `(average, p99.9)`.
    pub fn headline(&self) -> (SimDuration, SimDuration) {
        (self.mean(), self.percentile(99.9))
    }

    /// Merges all samples of `other` into `self`.
    ///
    /// Used to aggregate per-lane histograms into pool-level percentiles;
    /// saturates like [`LatencyHistogram::record_n`] so merging two
    /// near-full histograms cannot wrap.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Discards all samples.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum_ns = 0;
        self.min_ns = u64::MAX;
        self.max_ns = 0;
    }

    fn index_for(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let exp = 63 - v.leading_zeros(); // exp >= SUB_BITS
            let group = ((exp - SUB_BITS + 1) as usize).min(GROUPS - 1);
            let sub = ((v >> (group - 1)) - SUB).min(SUB - 1);
            group * SUB as usize + sub as usize
        }
    }

    fn bucket_midpoint(idx: usize) -> u64 {
        let group = idx / SUB as usize;
        let sub = (idx % SUB as usize) as u64;
        if group == 0 {
            sub
        } else {
            let width = 1u64 << (group - 1);
            (SUB + sub) * width + width / 2
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

uc_persist::persist_struct! {
    LatencyHistogram { buckets, count, sum_ns, min_ns, max_ns },
    check = check_histogram
}

fn check_histogram(h: &LatencyHistogram) -> Result<(), uc_persist::DecodeError> {
    uc_persist::ensure(
        h.buckets.len() == SUB as usize * GROUPS,
        "LatencyHistogram.buckets",
    )
}

impl fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.percentile(50.0))
            .field("p99.9", &self.percentile(99.9))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB {
            h.record(SimDuration::from_nanos(v));
        }
        assert_eq!(h.min(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::from_nanos(SUB - 1));
        assert_eq!(h.percentile(100.0), SimDuration::from_nanos(SUB - 1));
    }

    #[test]
    fn quantization_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let value = 123_456_789u64;
        h.record(SimDuration::from_nanos(value));
        let p = h.percentile(50.0).as_nanos() as f64;
        let rel = (p - value as f64).abs() / value as f64;
        assert!(rel <= 1.0 / 64.0 + 1e-9, "relative error {rel}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(1));
        h.record(SimDuration::from_nanos(1_000_003));
        assert_eq!(h.mean().as_nanos(), 500_002);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut seed = 12345u64;
        for _ in 0..10_000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_nanos(seed % 10_000_000));
        }
        let mut last = SimDuration::ZERO;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) regressed");
            last = v;
        }
    }

    #[test]
    fn percentile_respects_observed_bounds() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(700));
        assert_eq!(h.percentile(0.0), h.percentile(100.0));
        assert!(h.percentile(50.0) >= h.min());
        assert!(h.percentile(50.0) <= h.max());
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_micros(1));
        b.record(SimDuration::from_micros(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), SimDuration::from_micros(1));
        assert_eq!(a.max(), SimDuration::from_micros(1000));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..5 {
            a.record(SimDuration::from_micros(42));
        }
        b.record_n(SimDuration::from_micros(42), 5);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.percentile(99.0), b.percentile(99.0));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(9));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn headline_matches_components() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100 {
            h.record(SimDuration::from_micros(us));
        }
        let (avg, p999) = h.headline();
        assert_eq!(avg, h.mean());
        assert_eq!(p999, h.percentile(99.9));
    }

    #[test]
    fn persist_round_trip_is_lossless() {
        let mut h = LatencyHistogram::new();
        let mut seed = 99u64;
        for _ in 0..5000 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(SimDuration::from_nanos(seed % 50_000_000));
        }
        let mut w = uc_persist::Encoder::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = uc_persist::Decoder::new(&bytes);
        let back = LatencyHistogram::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.count(), h.count());
        assert_eq!(back.mean(), h.mean());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
    }

    #[test]
    fn persist_rejects_resized_bucket_table() {
        let mut w = uc_persist::Encoder::new();
        vec![0u64; 3].encode(&mut w); // wrong bucket count
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(0);
        w.put_u64(u64::MAX);
        w.put_u64(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            LatencyHistogram::decode(&mut uc_persist::Decoder::new(&bytes)),
            Err(uc_persist::DecodeError::InvalidValue {
                what: "LatencyHistogram.buckets"
            })
        ));
    }

    #[test]
    fn record_n_saturates_count_and_sum() {
        let mut h = LatencyHistogram::new();
        h.record_n(SimDuration::from_nanos(1), u64::MAX);
        h.record_n(SimDuration::from_nanos(1), u64::MAX);
        assert_eq!(h.count(), u64::MAX, "count must pin, not wrap");
        // Percentiles stay answerable on a saturated histogram.
        assert_eq!(h.percentile(99.9), SimDuration::from_nanos(1));
        assert_eq!(h.max(), SimDuration::from_nanos(1));
    }

    #[test]
    fn sum_saturates_at_u128_max() {
        let mut h = LatencyHistogram::new();
        // Each call adds (2^64-1)^2 ≈ 2^128 - 2^65; two of them overflow
        // u128 and must clamp instead of wrapping to a tiny sum.
        h.record_n(SimDuration::from_nanos(u64::MAX), u64::MAX);
        h.record_n(SimDuration::from_nanos(u64::MAX), u64::MAX);
        assert_eq!(h.sum_nanos(), u128::MAX);
        // Mean degrades gracefully (clamped sum / saturated count).
        assert!(h.mean() >= SimDuration::from_nanos(1));
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(SimDuration::from_nanos(7), u64::MAX);
        b.record_n(SimDuration::from_nanos(7), u64::MAX);
        b.record(SimDuration::from_nanos(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.max(), SimDuration::from_nanos(1_000_000));
        assert_eq!(a.min(), SimDuration::from_nanos(7));
        // The saturated bucket cannot shrink percentiles below min.
        assert!(a.percentile(50.0) >= a.min());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(SimDuration::from_micros(5));
        let before_count = a.count();
        let before_p99 = a.percentile(99.0);
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), before_count);
        assert_eq!(a.percentile(99.0), before_p99);
        assert_eq!(a.min(), SimDuration::from_micros(5));

        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty.count(), before_count);
        assert_eq!(empty.min(), SimDuration::from_micros(5));
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_nanos(u64::MAX));
        h.record(SimDuration::from_secs(86_400));
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) > SimDuration::from_secs(1));
    }
}
