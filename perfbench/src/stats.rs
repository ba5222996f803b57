//! Order statistics over measured samples.

/// The nearest-rank `p`-th percentile of `samples` (0 < p <= 100): the
/// smallest sample with at least `p`% of the samples at or below it.
/// Reorders `samples`; 0 for an empty slice.
pub fn percentile<T: Copy + Ord + Default>(samples: &mut [T], p: f64) -> T {
    if samples.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let index = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(index).1
}

/// The median of `values`: the middle value, or the mean of the two
/// middle values for an even count. 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of `values`, 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_a_known_sample() {
        // 1..=100 shuffled: the nearest-rank p-th percentile is p itself.
        let mut v: Vec<u64> = (1..=100).map(|i| (i * 37) % 101).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 1.0), 1);
        assert_eq!(percentile(&mut v, 0.5), 1);
        let mut four = vec![40u32, 10, 30, 20];
        assert_eq!(percentile(&mut four, 50.0), 20);
        assert_eq!(percentile(&mut four, 75.0), 30);
        assert_eq!(percentile(&mut four, 99.0), 40);
        let mut none: Vec<u32> = Vec::new();
        assert_eq!(percentile(&mut none, 50.0), 0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
