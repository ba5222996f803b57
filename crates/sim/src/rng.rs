//! Seedable, forkable random-number generation.
//!
//! The generator is a self-contained xoshiro256++ implementation rather than
//! a wrapper over an external crate: simulation results must be reproducible
//! bit-for-bit across library versions and platforms, and xoshiro256++ is a
//! small, well-studied generator with a fixed, portable output sequence.

/// A deterministic random-number generator for simulation use.
///
/// Every source of randomness in the workspace flows through a `SimRng`
/// seeded from a user-supplied `u64`, so any experiment can be replayed
/// exactly. Independent sub-streams (one per device, per workload, per
/// placement map…) are derived with [`SimRng::fork`], which mixes a stream
/// identifier into the parent seed so sibling streams are uncorrelated and
/// insensitive to how many draws the parent has made.
///
/// # Example
///
/// ```
/// use uc_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_f64(), b.next_f64()); // same seed, same stream
///
/// let mut net = a.fork(1);
/// let mut gc = a.fork(2);
/// assert_ne!(net.next_f64(), gc.next_f64()); // independent sub-streams
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    pub(crate) seed: u64,
    pub(crate) state: [u64; 4],
}

/// SplitMix64 finalizer; used for seeding and to decorrelate forked seeds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four 64-bit words of xoshiro state are expanded from the seed
    /// with SplitMix64, as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let mut state = [0u64; 4];
        for w in &mut state {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *w = splitmix64(s);
        }
        // Guard against the (astronomically unlikely) all-zero state.
        if state == [0; 4] {
            state = [0xDEAD_BEEF, 1, 2, 3];
        }
        SimRng { seed, state }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator for stream `stream_id`.
    ///
    /// Forking depends only on the parent's seed and `stream_id`, never on
    /// how many values the parent has drawn, so adding a new consumer of
    /// randomness does not perturb existing streams.
    pub fn fork(&self, stream_id: u64) -> SimRng {
        SimRng::new(splitmix64(
            self.seed ^ splitmix64(stream_id.wrapping_add(1)),
        ))
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[low, high)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased samples.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "range_u64 requires low < high");
        let span = high - low;
        // Lemire's method with rejection to remove modulo bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            let lo = m as u64;
            if lo >= span {
                return low + (m >> 64) as u64;
            }
            // Rejection zone: only reached with probability < span/2^64.
            let threshold = span.wrapping_neg() % span;
            if lo >= threshold {
                return low + (m >> 64) as u64;
            }
        }
    }

    /// A uniform index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index requires a non-empty range");
        self.range_u64(0, len as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// One Box–Muller draw as its radius and angle, `(s, x)`.
    ///
    /// `s = sqrt(-2 ln u1)` with `u1 ∈ (0, 1]` and `x = TAU·u2` with
    /// `u2 ∈ [0, 1)`, so `s·cos x` is a standard-normal sample. Both
    /// uniforms have 53 bits, so `u1 ≥ 2⁻⁵³` and `s ≤ 8.5723`.
    /// [`LatencyDist`](crate::LatencyDist) takes the cosine itself (see
    /// its `sample`).
    pub fn box_muller(&mut self) -> (f64, f64) {
        let u1: f64 = 1.0 - self.next_f64();
        let u2: f64 = self.next_f64();
        ((-2.0 * u1.ln()).sqrt(), std::f64::consts::TAU * u2)
    }

    /// A bounded Pareto sample in `[scale, cap]` with tail index `shape`.
    ///
    /// Used for heavy-tailed network/replica delays where a hard upper bound
    /// (hedging / timeout) exists.
    pub fn bounded_pareto(&mut self, scale: f64, shape: f64, cap: f64) -> f64 {
        let l = scale.max(f64::MIN_POSITIVE);
        let h = cap.max(l);
        let a = shape.max(1e-9);
        let u = self.next_f64().clamp(0.0, 1.0 - 1e-15);
        let la = l.powf(a);
        let ha = h.powf(a);
        // Inverse CDF of the bounded Pareto distribution.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / a)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_is_stable_regardless_of_parent_draws() {
        let parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        for _ in 0..10 {
            parent2.next_f64();
        }
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn forked_streams_differ() {
        let parent = SimRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..32).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4, "forked streams should be uncorrelated");
    }

    #[test]
    fn fork_zero_differs_from_parent() {
        let parent = SimRng::new(7);
        let mut child = parent.fork(0);
        let mut parent = parent;
        let same = (0..32)
            .filter(|_| child.next_u64() == parent.next_u64())
            .count();
        assert!(same < 4, "fork(0) must not clone the parent stream");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SimRng::new(13);
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.range_u64(0, 8) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let expected = n / 8;
            assert!(
                (*c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket {i}: {c}"
            );
        }
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            let v = rng.bounded_pareto(10.0, 1.5, 1000.0);
            assert!(
                (10.0..=1000.0 + 1e-6).contains(&v),
                "sample {v} escaped bounds"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn snapshot_restore_continues_the_stream() {
        let mut a = SimRng::new(21);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = crate::persist::thaw(&a);
        assert_eq!(b.seed(), 21);
        assert_eq!(b, a, "restore is lossless");
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn clone_replays_identically() {
        let mut a = SimRng::new(9);
        a.next_u64();
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
