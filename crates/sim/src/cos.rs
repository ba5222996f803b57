//! A table-driven cosine for the Box–Muller angle, built at compile time.
//!
//! [`fast_cos`] reads the knot `a_j = j·TAU/256` nearest to `x` from a
//! static table of `(a_j, cos a_j, sin a_j)` and corrects by the angle
//! addition formula with short Taylor series in `r = x − a_j`:
//!
//! ```text
//! cos x = cos a_j · (1 − r²/2 + r⁴/24) − sin a_j · (r − r³/6),   |r| ≤ π/256
//! ```
//!
//! The truncated series are off by at most `r⁵/120` (sine) and `r⁶/720`
//! (cosine), so `|fast_cos(x) − cos x| ≤ (π/256)⁵/120 + (π/256)⁶/720`
//! plus a few roundings of values below 1: [`FAST_COS_ERROR_BOUND`].
//! `LatencyDist::sample` turns that bound into the margin that decides
//! when the fast value is guaranteed to give libm's nanosecond.
//!
//! The table is a `static` evaluated by `const fn`s: no heap, no lazy
//! initialisation, no unsafe code.

use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// Knots per full turn.
const KNOTS: usize = 256;

/// The knot spacing, `TAU / 256` (exact: a power-of-two division).
const STEP: f64 = TAU / KNOTS as f64;

/// `π/2 − FRAC_PI_2`: the part of `π/2` that `FRAC_PI_2` rounds away.
const FRAC_PI_2_LO: f64 = 6.123_233_995_736_766e-17;

/// The largest `|fast_cos(x) − cos x|` over `x ∈ [0, TAU]`:
/// `(π/256)⁵/120 ≈ 2.3195e-12` from the sine series, `(π/256)⁶/720 ≈
/// 4.7e-15` from the cosine series, and under `1e-15` of rounding.
pub(crate) const FAST_COS_ERROR_BOUND: f64 = 2.33e-12;

/// `(a_j, cos a_j, sin a_j)` for `j = 0..=256`.
static TABLE: [(f64, f64, f64); KNOTS + 1] = table();

/// `cos x` to within [`FAST_COS_ERROR_BOUND`], for `x ∈ [0, TAU]`.
#[inline(always)]
pub(crate) fn fast_cos(x: f64) -> f64 {
    debug_assert!((0.0..=TAU).contains(&x), "fast_cos({x}) outside [0, TAU]");
    let j = ((x * (KNOTS as f64 / TAU) + 0.5) as usize).min(KNOTS);
    let (a, cos_a, sin_a) = TABLE[j];
    let r = x - a;
    let r2 = r * r;
    let cos_r = 1.0 - r2 * (0.5 - r2 * (1.0 / 24.0));
    let sin_r = r - r * r2 * (1.0 / 6.0);
    cos_a * cos_r - sin_a * sin_r
}

const fn table() -> [(f64, f64, f64); KNOTS + 1] {
    let mut table = [(0.0, 0.0, 0.0); KNOTS + 1];
    let mut j = 0;
    while j <= KNOTS {
        let a = j as f64 * STEP;
        // Reduce about the nearest multiple of π/2, carrying the low part
        // of π/2 so knots next to a zero of cos or sin keep their
        // relative precision. Each `a − k·FRAC_PI_2` step is exact
        // (Sterbenz), since `a` lies within π/4 of the multiple.
        let (cos_a, sin_a) = match (j + KNOTS / 8) / (KNOTS / 4) {
            0 => taylor(a),
            1 => {
                let (c, s) = taylor((a - FRAC_PI_2) - FRAC_PI_2_LO);
                (-s, c)
            }
            2 => {
                let (c, s) = taylor((a - PI) - 2.0 * FRAC_PI_2_LO);
                (-c, -s)
            }
            3 => {
                let (c, s) = taylor(((a - PI) - FRAC_PI_2) - 3.0 * FRAC_PI_2_LO);
                (s, -c)
            }
            _ => taylor((a - TAU) - 4.0 * FRAC_PI_2_LO),
        };
        table[j] = (a, cos_a, sin_a);
        j += 1;
    }
    table
}

/// `(cos r, sin r)` for `|r| ≤ π/4` by Taylor series through `r²⁵`,
/// evaluated by Horner's rule; the first omitted term is below `1e-28`.
const fn taylor(r: f64) -> (f64, f64) {
    let r2 = r * r;
    let (mut cos, mut sin) = (1.0, 1.0);
    let mut k = 13.0;
    while k > 0.0 {
        cos = 1.0 - r2 / ((2.0 * k - 1.0) * (2.0 * k)) * cos;
        sin = 1.0 - r2 / ((2.0 * k) * (2.0 * k + 1.0)) * sin;
        k -= 1.0;
    }
    (cos, r * sin)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place, across zero too.
    fn ulps(a: f64, b: f64) -> u64 {
        let ordered = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        ordered(a).abs_diff(ordered(b))
    }

    #[test]
    fn every_knot_is_within_four_ulps_of_libm() {
        for (j, &(a, cos_a, sin_a)) in TABLE.iter().enumerate() {
            assert_eq!(a, j as f64 * STEP);
            assert!(
                ulps(cos_a, a.cos()) <= 4,
                "cos knot {j}: {cos_a:e} vs {:e}",
                a.cos()
            );
            assert!(
                ulps(sin_a, a.sin()) <= 4,
                "sin knot {j}: {sin_a:e} vs {:e}",
                a.sin()
            );
            assert!(ulps(fast_cos(a), a.cos()) <= 4, "fast_cos at knot {j}");
        }
    }

    #[test]
    fn the_documented_bound_covers_the_series_remainders() {
        let r: f64 = PI / KNOTS as f64;
        let analytic = r.powi(5) / 120.0 + r.powi(6) / 720.0;
        assert!(analytic < FAST_COS_ERROR_BOUND);
        assert!(FAST_COS_ERROR_BOUND - analytic < 1e-14, "bound is tight");
    }

    #[test]
    fn dense_grid_stays_within_the_documented_bound() {
        let n = 1 << 21;
        let worst = (0..=n)
            .map(|i| {
                let x = TAU * i as f64 / n as f64;
                (fast_cos(x) - x.cos()).abs()
            })
            .fold(0.0, f64::max);
        assert!(worst <= FAST_COS_ERROR_BOUND, "max error {worst:e}");
        // The grid reaches the knot midpoints, where the bound is attained.
        assert!(worst > 0.9 * FAST_COS_ERROR_BOUND, "max error {worst:e}");
    }

    #[test]
    fn the_end_of_the_turn_stays_within_the_bound() {
        let mut x = TAU;
        for _ in 0..10_000 {
            assert!(
                (fast_cos(x) - x.cos()).abs() <= FAST_COS_ERROR_BOUND,
                "x = {x:e}"
            );
            x = x.next_down();
        }
        for i in 0..10_000 {
            let x = TAU - STEP * i as f64 / 10_000.0;
            assert!(
                (fast_cos(x) - x.cos()).abs() <= FAST_COS_ERROR_BOUND,
                "x = {x:e}"
            );
        }
    }
}
