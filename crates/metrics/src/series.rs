//! A labelled `(x, y)` series.

use std::fmt;

/// An ordered series of `(x, y)` points with a label.
///
/// Experiments return `Series` values for anything the paper plots as a
/// line: throughput over time (Figure 3), throughput versus I/O size
/// (Figure 4), throughput versus write ratio (Figure 5).
///
/// # Example
///
/// ```
/// use uc_metrics::Series;
///
/// let mut s = Series::new("total GB/s");
/// s.push(0.0, 3.0);
/// s.push(50.0, 3.02);
/// assert_eq!(s.len(), 2);
/// assert!((s.mean_y() - 3.01).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    label: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// A series built from existing points.
    pub fn from_points(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// All points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the y values, or zero if empty.
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Maximum y value, or zero if empty.
    pub fn max_y(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// Minimum y value, or zero if empty.
    pub fn min_y(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points
                .iter()
                .map(|p| p.1)
                .fold(f64::INFINITY, f64::min)
        }
    }

    /// The x of the first point where y drops below `threshold`, scanning
    /// left to right from the first point where y was at or above it.
    ///
    /// Used to locate throughput-collapse knees in Figure 3: "when did the
    /// device first fall below X GB/s after having reached it?".
    pub fn first_drop_below(&self, threshold: f64) -> Option<f64> {
        let mut reached = false;
        for &(x, y) in &self.points {
            if y >= threshold {
                reached = true;
            } else if reached {
                return Some(x);
            }
        }
        None
    }

    /// A centred moving average of the y values over a window of `k`
    /// points (`k` is clamped to be odd and at least 1); x values are
    /// preserved.
    ///
    /// Used to de-noise windowed throughput series before knee detection.
    pub fn moving_average(&self, k: usize) -> Series {
        let k = k.max(1) | 1; // odd
        let half = k / 2;
        let n = self.points.len();
        let points = (0..n)
            .map(|i| {
                let lo = i.saturating_sub(half);
                let hi = (i + half + 1).min(n);
                let mean = self.points[lo..hi].iter().map(|p| p.1).sum::<f64>() / (hi - lo) as f64;
                (self.points[i].0, mean)
            })
            .collect();
        Series::from_points(format!("{} (ma{k})", self.label), points)
    }

    /// Renders the series as `x<TAB>y` lines (one per point), suitable for
    /// pasting into plotting tools.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for &(x, y) in &self.points {
            out.push_str(&format!("{x}\t{y}\n"));
        }
        out
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} pts, mean {:.3}, max {:.3}]",
            self.label,
            self.len(),
            self.mean_y(),
            self.max_y()
        )
    }
}

impl Extend<(f64, f64)> for Series {
    fn extend<I: IntoIterator<Item = (f64, f64)>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let s = Series::from_points("t", vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.mean_y(), 2.0);
        assert_eq!(s.max_y(), 3.0);
        assert_eq!(s.min_y(), 1.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = Series::new("empty");
        assert!(s.is_empty());
        assert_eq!(s.mean_y(), 0.0);
        assert_eq!(s.max_y(), 0.0);
        assert_eq!(s.min_y(), 0.0);
        assert_eq!(s.first_drop_below(1.0), None);
    }

    #[test]
    fn first_drop_below_requires_prior_reach() {
        // Never reaches 5.0, so never "drops" below it.
        let low = Series::from_points("low", vec![(0.0, 1.0), (1.0, 0.5)]);
        assert_eq!(low.first_drop_below(5.0), None);

        // Reaches 5.0 at x=1, drops at x=3.
        let s = Series::from_points("knee", vec![(0.0, 1.0), (1.0, 6.0), (2.0, 7.0), (3.0, 2.0)]);
        assert_eq!(s.first_drop_below(5.0), Some(3.0));
    }

    #[test]
    fn tsv_rendering() {
        let s = Series::from_points("t", vec![(1.0, 2.0)]);
        assert_eq!(s.to_tsv(), "1\t2\n");
    }

    #[test]
    fn extend_appends() {
        let mut s = Series::new("t");
        s.extend(vec![(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.len(), 2);
    }
}
