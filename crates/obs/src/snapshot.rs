//! Rendered metric snapshots: stable text, Prometheus text, persist codec.

use std::fmt::Write as _;

use uc_metrics::LatencyHistogram;
use uc_persist::{persist_enum, DecodeError, Decoder, Encoder, Persist};

/// Integer summary of a [`LatencyHistogram`].
///
/// Snapshots carry only integers — no floating-point formatting — so that
/// rendering is byte-stable across platforms and two same-seed runs
/// compare equal with `cmp`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples in nanoseconds.
    pub sum_ns: u128,
    /// Exact minimum (0 if empty).
    pub min_ns: u64,
    /// Exact maximum (0 if empty).
    pub max_ns: u64,
    /// Median, within bucket quantization.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LatencyHistogram) -> Self {
        HistSummary {
            count: h.count(),
            sum_ns: h.sum_nanos(),
            min_ns: h.min().as_nanos(),
            max_ns: h.max().as_nanos(),
            p50_ns: h.percentile(50.0).as_nanos(),
            p99_ns: h.percentile(99.0).as_nanos(),
            p999_ns: h.percentile(99.9).as_nanos(),
        }
    }

    /// Exact integer mean (sum / count), or 0 if empty.
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / self.count as u128) as u64
        }
    }
}

impl Persist for HistSummary {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.count);
        w.put_u64((self.sum_ns >> 64) as u64);
        w.put_u64(self.sum_ns as u64);
        w.put_u64(self.min_ns);
        w.put_u64(self.max_ns);
        w.put_u64(self.p50_ns);
        w.put_u64(self.p99_ns);
        w.put_u64(self.p999_ns);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let count = r.get_u64()?;
        let sum_hi = r.get_u64()?;
        let sum_lo = r.get_u64()?;
        Ok(HistSummary {
            count,
            sum_ns: ((sum_hi as u128) << 64) | sum_lo as u128,
            min_ns: r.get_u64()?,
            max_ns: r.get_u64()?,
            p50_ns: r.get_u64()?,
            p99_ns: r.get_u64()?,
            p999_ns: r.get_u64()?,
        })
    }
}

/// One metric's value inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time level (may be negative).
    Gauge(i64),
    /// Latency distribution summary.
    Histogram(HistSummary),
}

persist_enum! { MetricValue { 0 = Counter(v), 1 = Gauge(v), 2 = Histogram(summary) } }

/// An ordered list of `(name, value)` metric rows.
///
/// Order is registration order, preserved end to end: registry →
/// snapshot → render → persist → decode. Merging snapshots appends.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsSnapshot {
    /// Metric rows in registration order.
    pub entries: Vec<(String, MetricValue)>,
}

impl ObsSnapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        ObsSnapshot::default()
    }

    /// Appends one row.
    pub fn push(&mut self, name: String, value: MetricValue) {
        self.entries.push((name, value));
    }

    /// Appends every row of `other`, prefixing each name with `prefix.`.
    /// An empty prefix appends names unchanged.
    pub fn extend_prefixed(&mut self, prefix: &str, other: &ObsSnapshot) {
        for (name, value) in &other.entries {
            let full = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            self.entries.push((full, value.clone()));
        }
    }

    /// Looks up a row by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Convenience: counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        match self.get(name)? {
            MetricValue::Histogram(s) => Some(s),
            _ => None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the snapshot as stable plain text, one metric per line.
    ///
    /// This is the byte-compared form: integers only, registration order,
    /// `\n` separators.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "counter {name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "gauge {name} {v}");
                }
                MetricValue::Histogram(s) => {
                    let _ = writeln!(
                        out,
                        "hist {name} count={} mean_ns={} min_ns={} max_ns={} \
                         p50_ns={} p99_ns={} p999_ns={}",
                        s.count,
                        s.mean_ns(),
                        s.min_ns,
                        s.max_ns,
                        s.p50_ns,
                        s.p99_ns,
                        s.p999_ns
                    );
                }
            }
        }
        out
    }

    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// Dots (and any other non-`[a-zA-Z0-9_]` byte) in metric names become
    /// underscores. Histograms expand to `_count`, `_sum_ns`, and
    /// `_p50/_p99/_p999/_min/_max` nanosecond gauges.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let mut out = String::new();
        for (name, value) in &self.entries {
            let n = sanitize(name);
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {n} counter");
                    let _ = writeln!(out, "{n} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {n} gauge");
                    let _ = writeln!(out, "{n} {v}");
                }
                MetricValue::Histogram(s) => {
                    let _ = writeln!(out, "# TYPE {n}_count counter");
                    let _ = writeln!(out, "{n}_count {}", s.count);
                    let _ = writeln!(out, "# TYPE {n}_sum_ns counter");
                    let _ = writeln!(out, "{n}_sum_ns {}", s.sum_ns);
                    for (suffix, v) in [
                        ("min_ns", s.min_ns),
                        ("max_ns", s.max_ns),
                        ("p50_ns", s.p50_ns),
                        ("p99_ns", s.p99_ns),
                        ("p999_ns", s.p999_ns),
                    ] {
                        let _ = writeln!(out, "# TYPE {n}_{suffix} gauge");
                        let _ = writeln!(out, "{n}_{suffix} {v}");
                    }
                }
            }
        }
        out
    }
}

impl Persist for ObsSnapshot {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.entries.len() as u64);
        for (name, value) in &self.entries {
            w.put_str(name);
            value.encode(w);
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = r.get_u64()? as usize;
        // Each entry costs at least a length-prefixed name (8 bytes) plus a
        // tag byte; reject counts the remaining buffer cannot possibly hold.
        uc_persist::ensure(n <= r.remaining() / 9 + 1, "ObsSnapshot.len")?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_string()?;
            let value = MetricValue::decode(r)?;
            entries.push((name, value));
        }
        Ok(ObsSnapshot { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::SimDuration;

    fn sample() -> ObsSnapshot {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_micros(10));
        h.record(SimDuration::from_micros(20));
        let mut snap = ObsSnapshot::new();
        snap.push("a.count".into(), MetricValue::Counter(3));
        snap.push("a.depth".into(), MetricValue::Gauge(-2));
        snap.push(
            "a.lat_ns".into(),
            MetricValue::Histogram(HistSummary::of(&h)),
        );
        snap
    }

    #[test]
    fn text_render_is_stable_and_integer_only() {
        let text = sample().render_text();
        assert!(text.starts_with("counter a.count 3\n"));
        assert!(text.contains("gauge a.depth -2\n"));
        assert!(text.contains("hist a.lat_ns count=2 mean_ns=15000"));
        assert!(
            !text.contains('.') || !text.contains("e-"),
            "no float formatting"
        );
    }

    #[test]
    fn prometheus_render_sanitizes_names() {
        let prom = sample().render_prometheus();
        assert!(prom.contains("# TYPE a_count counter"));
        assert!(prom.contains("a_count 3"));
        assert!(prom.contains("a_lat_ns_p99_ns "));
        assert!(!prom.contains("a.count"), "dots must be sanitized");
    }

    #[test]
    fn persist_round_trip_is_exact() {
        let snap = sample();
        let mut w = Encoder::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = ObsSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = Encoder::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            ObsSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn bad_value_tag_is_rejected() {
        let mut w = Encoder::new();
        w.put_u64(1);
        w.put_str("x");
        w.put_u8(9);
        let bytes = w.into_bytes();
        assert!(matches!(
            ObsSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "MetricValue tag"
            })
        ));
    }

    #[test]
    fn extend_prefixed_rewrites_names() {
        let mut base = ObsSnapshot::new();
        base.extend_prefixed("fleet.device0", &sample());
        assert_eq!(base.entries[0].0, "fleet.device0.a.count");
        assert_eq!(base.counter("fleet.device0.a.count"), Some(3));
    }

    #[test]
    fn hist_summary_mean_is_exact() {
        let s = HistSummary {
            count: 3,
            sum_ns: 10,
            ..HistSummary::default()
        };
        assert_eq!(s.mean_ns(), 3);
        assert_eq!(HistSummary::default().mean_ns(), 0);
    }
}
