//! Latency distributions used to model service times and jitter.

use crate::cos::{fast_cos, FAST_COS_ERROR_BOUND};
use crate::{SimDuration, SimRng};
use uc_invariant::Violation;

/// A distribution over non-negative latencies.
///
/// Device models use `LatencyDist` wherever a service time is not a single
/// constant: NAND operation variation, network round-trip jitter, replica
/// tail events. All samples are clamped to be non-negative.
///
/// The [`LatencyDist::Mixture`] variant composes a common-case distribution
/// with a rare heavy tail, which is how the elastic-SSD models reproduce the
/// P99.9-vs-average separation of Figure 2 in the paper.
///
/// # Example
///
/// ```
/// use uc_sim::{LatencyDist, SimDuration, SimRng};
///
/// let dist = LatencyDist::lognormal(SimDuration::from_micros(300), 0.2)
///     .with_tail(LatencyDist::uniform(
///         SimDuration::from_millis(1),
///         SimDuration::from_millis(3),
///     ), 0.001);
/// let mut rng = SimRng::new(1);
/// let sample = dist.sample(&mut rng);
/// assert!(sample > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyDist {
    /// Always the same value.
    Constant(SimDuration),
    /// Uniform over `[low, high]`.
    Uniform {
        /// Inclusive lower bound.
        low: SimDuration,
        /// Inclusive upper bound.
        high: SimDuration,
    },
    /// Normal with the given mean and standard deviation, truncated at zero.
    Normal {
        /// Mean of the untruncated normal.
        mean: SimDuration,
        /// Standard deviation of the untruncated normal.
        std_dev: SimDuration,
    },
    /// Log-normal with the given median and shape parameter.
    LogNormal {
        /// Median of the distribution (50th percentile).
        median: SimDuration,
        /// Shape (standard deviation of the underlying normal, in log space).
        sigma: f64,
    },
    /// Bounded Pareto over `[scale, cap]` with tail index `shape`.
    BoundedPareto {
        /// Minimum value (also the Pareto scale parameter).
        scale: SimDuration,
        /// Tail index; smaller values give heavier tails.
        shape: f64,
        /// Hard upper bound (e.g. a hedging timeout).
        cap: SimDuration,
    },
    /// With probability `tail_prob` sample `tail`, otherwise sample `base`.
    Mixture {
        /// Common-case distribution.
        base: Box<LatencyDist>,
        /// Rare-event distribution.
        tail: Box<LatencyDist>,
        /// Probability of drawing from `tail`, in `[0, 1]`.
        tail_prob: f64,
    },
}

impl LatencyDist {
    /// A constant latency.
    pub fn constant(value: SimDuration) -> Self {
        LatencyDist::Constant(value)
    }

    /// A uniform latency over `[low, high]`.
    pub fn uniform(low: SimDuration, high: SimDuration) -> Self {
        LatencyDist::Uniform {
            low: low.min(high),
            high: low.max(high),
        }
    }

    /// A zero-truncated normal latency.
    pub fn normal(mean: SimDuration, std_dev: SimDuration) -> Self {
        LatencyDist::Normal { mean, std_dev }
    }

    /// A log-normal latency with the given median and shape.
    pub fn lognormal(median: SimDuration, sigma: f64) -> Self {
        LatencyDist::LogNormal { median, sigma }
    }

    /// A bounded-Pareto latency over `[scale, cap]`.
    pub fn bounded_pareto(scale: SimDuration, shape: f64, cap: SimDuration) -> Self {
        LatencyDist::BoundedPareto { scale, shape, cap }
    }

    /// Wraps `self` as the common case of a mixture with the given rare tail.
    pub fn with_tail(self, tail: LatencyDist, tail_prob: f64) -> Self {
        LatencyDist::Mixture {
            base: Box::new(self),
            tail: Box::new(tail),
            tail_prob: tail_prob.clamp(0.0, 1.0),
        }
    }

    /// Draws one sample.
    ///
    /// The `Normal` and `LogNormal` arms take the Box–Muller cosine from a
    /// compile-time table instead of libm, and keep the result only when
    /// it provably truncates to the same whole nanosecond as libm's
    /// `cos` would give; otherwise they recompute with libm. Every sample
    /// is therefore the one libm gives, on the platform whose libm made
    /// the golden outputs. Debug and `strict-invariants` builds recompute
    /// every kept sample with libm and panic on a difference.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyDist::Constant(v) => *v,
            LatencyDist::Uniform { low, high } => {
                if low == high {
                    *low
                } else {
                    let end = high.as_nanos().saturating_add(1);
                    SimDuration::from_nanos(rng.range_u64(low.as_nanos(), end))
                }
            }
            LatencyDist::Normal { mean, std_dev } => {
                let (m, sd) = (mean.as_nanos() as f64, std_dev.as_nanos() as f64);
                let margin = (m + 16.0 * sd) * 1e-10 + 1e-9;
                let (s, x) = rng.box_muller();
                guarded(x, |c| m + sd * (s * c), |_| margin)
            }
            LatencyDist::LogNormal { median, sigma } => {
                let ln_median = (median.as_nanos() as f64).ln();
                let relative = if sigma.abs() <= 1e3 {
                    1e-10 * (1.0 + sigma.abs())
                } else {
                    f64::INFINITY
                };
                let (s, x) = rng.box_muller();
                guarded(
                    x,
                    |c| (ln_median + sigma * (s * c)).exp(),
                    |v| v * relative + 1e-9,
                )
            }
            LatencyDist::BoundedPareto { scale, shape, cap } => {
                nanos(rng.bounded_pareto(scale.as_nanos() as f64, *shape, cap.as_nanos() as f64))
            }
            LatencyDist::Mixture {
                base,
                tail,
                tail_prob,
            } => {
                if rng.chance(*tail_prob) {
                    tail.sample(rng)
                } else {
                    base.sample(rng)
                }
            }
        }
    }

    /// The mean of the distribution, computed analytically where possible.
    ///
    /// For [`LatencyDist::BoundedPareto`] this is the exact bounded-Pareto
    /// mean; for mixtures it is the probability-weighted mean of the parts.
    pub fn mean(&self) -> SimDuration {
        match self {
            LatencyDist::Constant(v) => *v,
            LatencyDist::Uniform { low, high } => {
                SimDuration::from_nanos(low.as_nanos().midpoint(high.as_nanos()))
            }
            LatencyDist::Normal { mean, .. } => *mean,
            LatencyDist::LogNormal { median, sigma } => {
                let m = median.as_nanos() as f64 * (sigma * sigma / 2.0).exp();
                SimDuration::from_nanos(m as u64)
            }
            LatencyDist::BoundedPareto { scale, shape, cap } => {
                let l = scale.as_nanos() as f64;
                let h = cap.as_nanos() as f64;
                let a = *shape;
                let mean = if (a - 1.0).abs() < 1e-9 {
                    // alpha == 1: mean = ln(h/l) * l*h/(h-l)
                    (h.ln() - l.ln()) * l * h / (h - l)
                } else {
                    (l.powf(a) / (1.0 - (l / h).powf(a)))
                        * (a / (a - 1.0))
                        * (1.0 / l.powf(a - 1.0) - 1.0 / h.powf(a - 1.0))
                };
                SimDuration::from_nanos(mean.max(0.0) as u64)
            }
            LatencyDist::Mixture {
                base,
                tail,
                tail_prob,
            } => {
                let b = base.mean().as_nanos() as f64;
                let t = tail.mean().as_nanos() as f64;
                SimDuration::from_nanos((b * (1.0 - tail_prob) + t * tail_prob) as u64)
            }
        }
    }
}

/// A sample value in whole nanoseconds: truncated, negatives and NaN to 0.
#[inline(always)]
fn nanos(v: f64) -> SimDuration {
    SimDuration::from_nanos(v.max(0.0) as u64)
}

/// `value(cos x)` in whole nanoseconds, computed with [`fast_cos`] when
/// that provably gives the nanosecond libm's `x.cos()` gives.
///
/// `margin(v)` must bound `|value(fast_cos(x)) − value(x.cos())|` when
/// the fast value is `v`. The margins in [`LatencyDist::sample`] follow
/// from `|fast_cos(x) − x.cos()| ≤ FAST_COS_ERROR_BOUND + (libm's error)
/// < 2.5e-12` and the Box–Muller radius `s ≤ 8.5723`:
///
/// - Normal, `v = m + sd·(s·c)` with `m, sd ≥ 0`: the product `s·c`
///   moves by at most `8.5723 · 2.5e-12 + 2·8.5723·ε < 2.2e-11`
///   (`ε = 2⁻⁵³`), `sd·(s·c)` by `sd · 2.3e-11`, and the sum by that plus
///   `2ε(m + 8.58·sd)`: under `2.5e-11·sd + 2.3e-16·m`. The margin
///   `(m + 16·sd)·1e-10 + 1e-9` covers it 64-fold in `sd` and far more
///   in `m`.
/// - Log-normal, `v = exp(ln m + σ·(s·c))`: the exponent moves by at most
///   `|σ|·2.3e-11 + 2ε(44.4 + 8.58·|σ|)` (`ln m ≤ ln 2⁶⁴ < 44.4`), under
///   `2.5e-11·|σ| + 1e-14`. For `|σ| ≤ 1000` that is below `2.6e-8`, where
///   `e^d − 1` is `d` to within `1e-7` relative, so `v` moves by under
///   `v·(2.6e-11·|σ| + 1.1e-14)`, plus libm's own `exp` error of a few
///   `ε·v`. The margin `v·1e-10·(1 + |σ|) + 1e-9` covers it 3.8-fold in
///   `σ`, and 3000-fold against `exp` being 100 ULP off. A larger (or
///   NaN) `σ` gets an infinite margin: always libm.
///
/// A cosine that were `k` ULP off in libm adds `k·1.1e-16` to the
/// cosine difference, immaterial next to `2.33e-12` for any plausible `k`.
/// `ln`, `sqrt` and `exp` are the same libm calls on both paths, so only
/// the cosine and the arithmetic after it can differ.
#[inline(always)]
fn guarded(x: f64, value: impl Fn(f64) -> f64, margin: impl Fn(f64) -> f64) -> SimDuration {
    let fast = value(fast_cos(x));
    if settled(fast, margin(fast)) {
        uc_invariant::enforce(|| fast_sample_equals_libm(x, fast, value(x.cos())));
        nanos(fast)
    } else {
        nanos(value(x.cos()))
    }
}

/// Whether every value within `margin` of `v` truncates, as [`nanos`]
/// does, to the same whole nanosecond as `v`: `v` lies below `1 − margin`
/// (every such value gives 0), or more than `margin` from the nearest
/// integer. Non-finite values and values of `1e15` or more never settle.
#[inline(always)]
fn settled(v: f64, margin: f64) -> bool {
    // For `0 ≤ v < 1e15` truncation is floor and `v − trunc(v)` is exact
    // (Sterbenz); a negative `v` has a negative `frac` and fails the
    // second clause.
    let frac = v - (v as i64) as f64;
    (v > -1e15 && v < 1.0 - margin) || (v < 1e15 && frac > margin && frac < 1.0 - margin)
}

/// The strict oracle: the kept fast value and libm's value give the same
/// nanosecond.
fn fast_sample_equals_libm(x: f64, fast: f64, libm: f64) -> Result<(), Violation> {
    if nanos(fast) == nanos(libm) {
        Ok(())
    } else {
        Err(Violation::new(
            "uc-sim/LatencyDist",
            "fast-sample-equals-libm",
            format!(
                "angle {x:e}: table cosine gave {fast:e}, libm {libm:e} (bound {FAST_COS_ERROR_BOUND:e})"
            ),
        ))
    }
}

impl Default for LatencyDist {
    /// A zero-latency constant, the identity for latency composition.
    fn default() -> Self {
        LatencyDist::Constant(SimDuration::ZERO)
    }
}

impl From<SimDuration> for LatencyDist {
    fn from(value: SimDuration) -> Self {
        LatencyDist::Constant(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(dist: &LatencyDist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n)
            .map(|_| dist.sample(&mut rng).as_nanos() as f64)
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn constant_always_same() {
        let d = LatencyDist::constant(SimDuration::from_micros(5));
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), SimDuration::from_micros(5));
        }
    }

    #[test]
    fn uniform_respects_bounds_and_swapped_args() {
        let d = LatencyDist::uniform(SimDuration::from_micros(9), SimDuration::from_micros(3));
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!(s >= SimDuration::from_micros(3) && s <= SimDuration::from_micros(9));
        }
    }

    #[test]
    fn uniform_degenerate_is_constant() {
        let d = LatencyDist::uniform(SimDuration::from_micros(4), SimDuration::from_micros(4));
        let mut rng = SimRng::new(3);
        assert_eq!(d.sample(&mut rng), SimDuration::from_micros(4));
    }

    #[test]
    fn normal_is_truncated_at_zero() {
        let d = LatencyDist::normal(SimDuration::from_nanos(10), SimDuration::from_micros(1));
        let mut rng = SimRng::new(4);
        for _ in 0..1000 {
            // All samples representable (>= 0 by type); just exercise sampling.
            let _ = d.sample(&mut rng);
        }
    }

    #[test]
    fn empirical_means_track_analytic_means() {
        let cases = [
            LatencyDist::uniform(SimDuration::from_micros(2), SimDuration::from_micros(10)),
            LatencyDist::normal(SimDuration::from_micros(50), SimDuration::from_micros(5)),
            LatencyDist::lognormal(SimDuration::from_micros(100), 0.4),
            LatencyDist::bounded_pareto(
                SimDuration::from_micros(10),
                1.5,
                SimDuration::from_millis(10),
            ),
        ];
        for (i, d) in cases.iter().enumerate() {
            let analytic = d.mean().as_nanos() as f64;
            let empirical = sample_mean(d, 60_000, 100 + i as u64);
            let rel = (empirical - analytic).abs() / analytic;
            assert!(
                rel < 0.08,
                "case {i}: analytic {analytic} empirical {empirical}"
            );
        }
    }

    #[test]
    fn mixture_tail_frequency() {
        let d = LatencyDist::constant(SimDuration::from_micros(1))
            .with_tail(LatencyDist::constant(SimDuration::from_millis(1)), 0.01);
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let tails = (0..n)
            .filter(|_| d.sample(&mut rng) == SimDuration::from_millis(1))
            .count();
        let frac = tails as f64 / n as f64;
        assert!((frac - 0.01).abs() < 0.003, "tail fraction {frac}");
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let d = LatencyDist::constant(SimDuration::from_nanos(100))
            .with_tail(LatencyDist::constant(SimDuration::from_nanos(10_000)), 0.5);
        assert_eq!(d.mean(), SimDuration::from_nanos(5050));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let d = LatencyDist::normal(SimDuration::from_micros(100), SimDuration::from_micros(15));
        let mut rng = SimRng::new(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| d.sample(&mut rng).as_nanos() as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100_000.0).abs() < 1000.0, "mean {mean}");
        assert!((var.sqrt() - 15_000.0).abs() < 1000.0, "std {}", var.sqrt());
    }

    #[test]
    fn lognormal_median_is_plausible() {
        let d = LatencyDist::lognormal(SimDuration::from_micros(50), 0.8);
        let mut rng = SimRng::new(3);
        let mut samples: Vec<SimDuration> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_unstable();
        let median = samples[5000].as_nanos() as f64;
        assert!((median - 50_000.0).abs() < 5000.0, "median {median}");
    }

    #[test]
    fn exact_integers_fall_back_to_libm() {
        // With `sd = 0` every fast value is the mean itself, an exact
        // integer: zero distance to the nearest nanosecond, so the guard
        // must send each draw to libm.
        let m = 2_000.0;
        let margin = m * 1e-10 + 1e-9;
        assert!(!settled(m, margin));
        let d = LatencyDist::normal(SimDuration::from_nanos(2_000), SimDuration::ZERO);
        let (mut rng, mut twin) = (SimRng::new(8), SimRng::new(8));
        for _ in 0..1000 {
            let (s, x) = twin.box_muller();
            assert_eq!(d.sample(&mut rng), nanos(m + 0.0 * (s * x.cos())));
        }
        assert_eq!(rng, twin);
    }

    #[test]
    fn the_guard_settles_only_clear_nanoseconds() {
        let margin = 1e-6;
        assert!(settled(0.5, margin), "below one: always 0");
        assert!(settled(-3.7, margin), "negative: always 0");
        assert!(settled(12.5, margin));
        assert!(!settled(1.0 - margin / 2.0, margin), "just below one");
        assert!(!settled(12.0 + margin / 2.0, margin));
        assert!(!settled(13.0 - margin / 2.0, margin));
        assert!(!settled(1e15 + 0.5, margin), "too large");
        assert!(!settled(-1e16, margin), "too negative");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!settled(v, margin), "{v}");
        }
        assert!(!settled(12.5, f64::NAN), "a NaN margin never settles");
        assert!(!settled(0.0, f64::INFINITY));
    }

    #[test]
    fn the_strict_oracle_names_a_moved_nanosecond() {
        assert_eq!(fast_sample_equals_libm(1.0, 41.2, 41.9), Ok(()));
        assert_eq!(fast_sample_equals_libm(1.0, -3.0, 0.5), Ok(()));
        let v = fast_sample_equals_libm(1.0, 41.99, 42.01).unwrap_err();
        assert_eq!(
            (v.contract, v.invariant),
            ("uc-sim/LatencyDist", "fast-sample-equals-libm")
        );
    }

    #[test]
    fn lognormal_with_a_huge_or_nan_sigma_stays_on_libm() {
        for sigma in [1e300, -1e300, f64::NAN] {
            let d = LatencyDist::lognormal(SimDuration::from_micros(50), sigma);
            let (mut rng, mut twin) = (SimRng::new(9), SimRng::new(9));
            for _ in 0..1000 {
                let (s, x) = twin.box_muller();
                let libm = nanos((50_000f64.ln() + sigma * (s * x.cos())).exp());
                assert_eq!(d.sample(&mut rng), libm, "sigma {sigma}");
            }
        }
    }

    #[test]
    fn uniform_up_to_the_last_nanosecond_does_not_overflow() {
        let d = LatencyDist::Uniform {
            low: SimDuration::from_nanos(u64::MAX - 8),
            high: SimDuration::from_nanos(u64::MAX),
        };
        let mut rng = SimRng::new(10);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= SimDuration::from_nanos(u64::MAX - 8));
        }
        assert_eq!(d.mean(), SimDuration::from_nanos(u64::MAX - 4));
    }

    #[test]
    fn from_duration_is_constant() {
        let d: LatencyDist = SimDuration::from_micros(3).into();
        assert_eq!(d, LatencyDist::constant(SimDuration::from_micros(3)));
    }
}
