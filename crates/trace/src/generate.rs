//! Synthetic trace generators: steady, diurnal, and bursty ON/OFF
//! arrival shapes.
//!
//! Each shape is a deterministic function of a [`TraceSpec`] (same seed →
//! same trace, byte for byte), parameterized like a `uc-workload`
//! [`JobSpec`](uc_workload::JobSpec): I/O size, write ratio, offset span,
//! seed. Where a job spec describes *how hard to push*, a trace spec
//! describes *when requests arrive* — which is exactly the axis the
//! paper's Implication 4 (burst smoothing) varies.

use uc_blockdev::IoKind;
use uc_sim::{SimDuration, SimRng, SimTime};
use uc_workload::{Trace, TraceEntry};

/// When requests arrive over the trace's duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalShape {
    /// A constant arrival rate.
    Steady {
        /// Arrivals per second.
        iops: f64,
    },
    /// A smooth day/night swing: the rate follows a raised cosine from
    /// `base_iops` (trough) to `peak_iops` (crest) over each `period`.
    Diurnal {
        /// Trough arrival rate, per second.
        base_iops: f64,
        /// Crest arrival rate, per second.
        peak_iops: f64,
        /// Length of one full swing.
        period: SimDuration,
    },
    /// Bursty ON/OFF traffic (the paper's Implication 4 shape): requests
    /// arrive at `burst_iops` during each `on` window, then nothing for
    /// `off`.
    OnOff {
        /// Length of each active window.
        on: SimDuration,
        /// Length of each silent window.
        off: SimDuration,
        /// Arrival rate inside active windows, per second.
        burst_iops: f64,
    },
}

/// A declarative description of a synthetic trace.
///
/// # Example
///
/// ```
/// use uc_sim::SimDuration;
/// use uc_trace::TraceSpec;
///
/// let trace = TraceSpec::bursty(
///     SimDuration::from_millis(2),
///     SimDuration::from_millis(8),
///     20_000.0,
/// )
/// .with_duration(SimDuration::from_millis(100))
/// .with_span(16 << 20)
/// .generate();
/// // 10 bursts x 2 ms x 20 kIOPS = ~400 I/Os, all inside ON windows.
/// assert!((350..=450).contains(&trace.len()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// The arrival shape.
    pub shape: ArrivalShape,
    /// Total trace duration.
    pub duration: SimDuration,
    /// Bytes per I/O.
    pub io_size: u32,
    /// Fraction of requests that are writes, in `[0, 1]`.
    pub write_ratio: f64,
    /// Offsets are drawn aligned and uniform from `[0, span)` bytes.
    pub span: u64,
    /// Seed for offset/direction randomness.
    pub seed: u64,
}

impl TraceSpec {
    fn new(shape: ArrivalShape) -> Self {
        TraceSpec {
            shape,
            duration: SimDuration::from_secs(1),
            io_size: 4096,
            write_ratio: 1.0,
            span: 64 << 20,
            seed: 0x7ACE,
        }
    }

    /// A steady arrival stream at `iops` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `iops` is not positive and finite.
    pub fn steady(iops: f64) -> Self {
        assert!(iops.is_finite() && iops > 0.0, "iops must be positive");
        TraceSpec::new(ArrivalShape::Steady { iops })
    }

    /// A diurnal swing between `base_iops` and `peak_iops` over `period`.
    ///
    /// # Panics
    ///
    /// Panics if the rates are not positive and finite, `peak_iops <
    /// base_iops`, or `period` is zero.
    pub fn diurnal(base_iops: f64, peak_iops: f64, period: SimDuration) -> Self {
        assert!(
            base_iops.is_finite() && base_iops > 0.0 && peak_iops.is_finite(),
            "rates must be positive"
        );
        assert!(peak_iops >= base_iops, "peak must not fall below base");
        assert!(!period.is_zero(), "period must be non-zero");
        TraceSpec::new(ArrivalShape::Diurnal {
            base_iops,
            peak_iops,
            period,
        })
    }

    /// Bursty ON/OFF traffic: `burst_iops` during each `on` window,
    /// silence for `off`.
    ///
    /// # Panics
    ///
    /// Panics if `burst_iops` is not positive and finite or `on` is zero.
    pub fn bursty(on: SimDuration, off: SimDuration, burst_iops: f64) -> Self {
        assert!(
            burst_iops.is_finite() && burst_iops > 0.0,
            "burst iops must be positive"
        );
        assert!(!on.is_zero(), "on window must be non-zero");
        TraceSpec::new(ArrivalShape::OnOff {
            on,
            off,
            burst_iops,
        })
    }

    /// Replaces the total duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        assert!(!duration.is_zero(), "duration must be non-zero");
        self.duration = duration;
        self
    }

    /// Replaces the per-I/O size.
    ///
    /// # Panics
    ///
    /// Panics if `io_size` is zero.
    pub fn with_io_size(mut self, io_size: u32) -> Self {
        assert!(io_size > 0, "i/o size must be positive");
        self.io_size = io_size;
        self
    }

    /// Replaces the write ratio.
    ///
    /// # Panics
    ///
    /// Panics if `write_ratio` is outside `[0, 1]`.
    pub fn with_write_ratio(mut self, write_ratio: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&write_ratio),
            "write ratio must be in [0, 1]"
        );
        self.write_ratio = write_ratio;
        self
    }

    /// Replaces the offset span.
    ///
    /// # Panics
    ///
    /// Panics if `span` cannot hold one I/O.
    pub fn with_span(mut self, span: u64) -> Self {
        assert!(span >= self.io_size as u64, "span cannot hold one i/o");
        self.span = span;
        self
    }

    /// Replaces the randomness seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The mean arrival rate over one shape cycle, per second (useful
    /// for sizing a replay against a device's throughput budget).
    pub fn mean_iops(&self) -> f64 {
        match self.shape {
            ArrivalShape::Steady { iops } => iops,
            ArrivalShape::Diurnal {
                base_iops,
                peak_iops,
                ..
            } => (base_iops + peak_iops) / 2.0,
            ArrivalShape::OnOff {
                on,
                off,
                burst_iops,
            } => {
                let cycle = on.as_secs_f64() + off.as_secs_f64();
                burst_iops * on.as_secs_f64() / cycle
            }
        }
    }

    /// Generates the trace: arrival instants from the shape, offsets and
    /// directions from the seed. Deterministic — the same spec always
    /// produces the same trace.
    pub fn generate(&self) -> Trace {
        // A push loop: `collect` compiles to a loop ≈15% slower per
        // entry on bursty specs.
        let mut entries = Vec::new();
        for entry in self.cursor() {
            entries.push(entry);
        }
        Trace::from_entries(entries)
    }

    /// The same entries as [`generate`](TraceSpec::generate), yielded
    /// lazily in arrival order: a consumer that reads them once holds one
    /// entry at a time instead of the whole trace.
    pub fn cursor(&self) -> TraceCursor {
        self.cursor_at(SimRng::new(self.seed), 0.0)
    }

    /// A cursor at a [`position`](TraceCursor::into_position) an earlier
    /// cursor of this spec reported: it yields exactly the entries that
    /// cursor had not yet yielded.
    ///
    /// # Panics
    ///
    /// Panics if the span cannot hold one I/O or `t` is not finite and
    /// non-negative.
    pub fn cursor_at(&self, rng: SimRng, t: f64) -> TraceCursor {
        assert!(self.span >= self.io_size as u64, "span cannot hold one i/o");
        assert!(t.is_finite() && t >= 0.0, "cursor instant {t} out of range");
        TraceCursor {
            spec: *self,
            rng,
            slots: self.span / self.io_size as u64,
            horizon: self.duration.as_nanos() as f64,
            t,
        }
    }
}

/// A lazy [`TraceSpec`] trace: the generator's state between two
/// entries. Every gap is positive and a silent window only jumps
/// forward, so the entries come out in non-decreasing arrival order —
/// exactly the order [`TraceSpec::generate`] stores them in.
///
/// An entry's kind and offset are drawn only when it is yielded, so the
/// cursor's whole position is its RNG and its next arrival instant
/// ([`into_position`](TraceCursor::into_position)); [`TraceSpec::cursor_at`]
/// rebuilds it there.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    spec: TraceSpec,
    rng: SimRng,
    /// I/O-sized offset slots in the span.
    slots: u64,
    /// The duration, in nanoseconds.
    horizon: f64,
    /// The next arrival instant, in nanoseconds.
    t: f64,
}

impl TraceCursor {
    /// The cursor's position: its RNG and the next arrival instant, in
    /// nanoseconds.
    pub fn into_position(self) -> (SimRng, f64) {
        (self.rng, self.t)
    }

    /// Takes the next entry if it arrives before `cut`. Its arrival
    /// instant is compared before its kind and offset are drawn, so a
    /// refused entry leaves the cursor where it was.
    // Inlined into the consuming loop, the cursor's state stays in
    // registers; `generate` and the fleet's grant loop rely on it.
    #[inline]
    pub fn next_before(&mut self, cut: SimTime) -> Option<TraceEntry> {
        let spec = &self.spec;
        while self.t < self.horizon {
            let t = self.t;
            let gap = match spec.shape {
                ArrivalShape::Steady { iops } => 1e9 / iops,
                ArrivalShape::Diurnal {
                    base_iops,
                    peak_iops,
                    period,
                } => {
                    // Raised cosine: trough at t = 0, crest at period/2.
                    let phase = (t / period.as_nanos() as f64) * std::f64::consts::TAU;
                    let rate = base_iops + (peak_iops - base_iops) * 0.5 * (1.0 - phase.cos());
                    1e9 / rate
                }
                ArrivalShape::OnOff {
                    on,
                    off,
                    burst_iops,
                } => {
                    let cycle = (on.as_nanos() + off.as_nanos()) as f64;
                    let in_cycle = t % cycle;
                    if in_cycle >= on.as_nanos() as f64 {
                        // Silent window: jump to the next cycle, emitting
                        // nothing.
                        self.t = (t / cycle).floor() * cycle + cycle;
                        continue;
                    }
                    1e9 / burst_iops
                }
            };
            let at = SimTime::from_nanos(t.round() as u64);
            if at >= cut {
                return None;
            }
            self.t = t + gap;
            return Some(TraceEntry {
                at,
                kind: if self.rng.chance(spec.write_ratio) {
                    IoKind::Write
                } else {
                    IoKind::Read
                },
                offset: self.rng.range_u64(0, self.slots) * spec.io_size as u64,
                len: spec.io_size,
            });
        }
        None
    }
}

impl Iterator for TraceCursor {
    type Item = TraceEntry;

    /// Every entry arrives before [`SimTime::MAX`]: `t` stays below the
    /// horizon, at most 2⁶⁴ ns, and so does its rounded instant.
    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        self.next_before(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_shape_is_evenly_spaced() {
        let spec = TraceSpec::steady(10_000.0).with_duration(SimDuration::from_millis(10));
        let trace = spec.generate();
        assert_eq!(trace.len(), 100, "10 ms at 10 kIOPS");
        let profile = trace.demand_profile(SimDuration::from_millis(1));
        assert!(
            profile.iter().all(|&b| b == profile[0]),
            "every window carries the same demand: {profile:?}"
        );
        assert_eq!(spec.mean_iops(), 10_000.0);
    }

    #[test]
    fn bursty_shape_alternates_demand_and_silence() {
        let spec = TraceSpec::bursty(
            SimDuration::from_millis(1),
            SimDuration::from_millis(3),
            50_000.0,
        )
        .with_duration(SimDuration::from_millis(16));
        let trace = spec.generate();
        let profile = trace.demand_profile(SimDuration::from_millis(1));
        // ON windows (every 4th, starting at 0) carry all the demand.
        for (i, &bytes) in profile.iter().enumerate() {
            if i % 4 == 0 {
                assert!(bytes > 0, "window {i} is an ON window");
            } else {
                assert_eq!(bytes, 0, "window {i} is an OFF window");
            }
        }
        // Mean rate: 50 kIOPS x 1/4 duty cycle.
        assert!((spec.mean_iops() - 12_500.0).abs() < 1e-6);
    }

    #[test]
    fn diurnal_shape_swings_between_base_and_peak() {
        let period = SimDuration::from_millis(20);
        let spec = TraceSpec::diurnal(1_000.0, 50_000.0, period)
            .with_duration(period)
            .with_io_size(4096);
        let trace = spec.generate();
        let profile = trace.demand_profile(SimDuration::from_millis(1));
        // The crest (mid-period) must far out-demand the trough (edges).
        let trough = profile[0].max(1);
        let crest = profile[10];
        assert!(
            crest > 10 * trough,
            "crest {crest} vs trough {trough}: {profile:?}"
        );
        assert_eq!(spec.mean_iops(), 25_500.0);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = TraceSpec::bursty(
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            30_000.0,
        )
        .with_duration(SimDuration::from_millis(10))
        .with_write_ratio(0.5);
        assert_eq!(spec.generate(), spec.generate());
        let reseeded = spec.with_seed(99).generate();
        assert_ne!(spec.generate(), reseeded, "a new seed moves the offsets");
        // Same arrivals either way: the seed only drives offsets/kinds.
        let a: Vec<_> = spec.generate().entries().iter().map(|e| e.at).collect();
        let b: Vec<_> = reseeded.entries().iter().map(|e| e.at).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn write_ratio_drives_direction_mix() {
        let all_writes = TraceSpec::steady(5_000.0)
            .with_duration(SimDuration::from_millis(20))
            .generate();
        assert!(all_writes.entries().iter().all(|e| e.kind.is_write()));
        let all_reads = TraceSpec::steady(5_000.0)
            .with_duration(SimDuration::from_millis(20))
            .with_write_ratio(0.0)
            .generate();
        assert!(all_reads.entries().iter().all(|e| e.kind.is_read()));
        let mixed = TraceSpec::steady(5_000.0)
            .with_duration(SimDuration::from_millis(20))
            .with_write_ratio(0.5)
            .generate();
        let writes = mixed.entries().iter().filter(|e| e.kind.is_write()).count();
        assert!((20..=80).contains(&writes), "{writes}/100 writes");
    }

    #[test]
    fn offsets_stay_aligned_and_in_span() {
        let spec = TraceSpec::steady(20_000.0)
            .with_duration(SimDuration::from_millis(5))
            .with_io_size(8192)
            .with_span(1 << 20);
        let trace = spec.generate();
        for e in trace.entries() {
            assert_eq!(e.len, 8192);
            assert!(e.offset.is_multiple_of(8192));
            assert!(e.offset + e.len as u64 <= 1 << 20);
        }
        // Generated traces validate against any device at least as large
        // as the span.
        assert!(trace.validate(1 << 20).is_ok());
    }

    /// One spec of each shape; the bursty one's 10 ms horizon ends
    /// inside an OFF window (cycles of 1 ms on + 3 ms off).
    fn shapes() -> [TraceSpec; 3] {
        [
            TraceSpec::steady(7_000.0).with_duration(SimDuration::from_millis(9)),
            TraceSpec::diurnal(2_000.0, 40_000.0, SimDuration::from_millis(6))
                .with_duration(SimDuration::from_millis(15))
                .with_write_ratio(0.3),
            TraceSpec::bursty(
                SimDuration::from_millis(1),
                SimDuration::from_millis(3),
                50_000.0,
            )
            .with_duration(SimDuration::from_millis(10))
            .with_write_ratio(0.5),
        ]
    }

    #[test]
    fn cursor_yields_the_generated_trace() {
        for spec in shapes() {
            let lazy: Vec<TraceEntry> = spec.cursor().collect();
            assert!(!lazy.is_empty(), "{spec:?}");
            assert!(lazy.windows(2).all(|w| w[0].at <= w[1].at), "{spec:?}");
            assert_eq!(lazy, spec.generate().entries(), "{spec:?}");
        }
        // The bursty horizon really ends in silence: its last arrival
        // lies in the ON window that starts at 8 ms.
        let bursty = shapes()[2].generate();
        assert!(bursty.entries().last().unwrap().at < SimTime::from_nanos(9_000_000));
    }

    #[test]
    fn skipped_cursor_yields_the_tail() {
        for spec in shapes() {
            let whole = spec.generate();
            for n in [0, 1, whole.len() / 2, whole.len() - 1, whole.len()] {
                let tail: Vec<TraceEntry> = spec.cursor().skip(n).collect();
                assert_eq!(tail, whole.entries()[n..], "{spec:?} from {n}");
            }
        }
    }

    #[test]
    fn cursor_rebuilt_at_its_position_continues_the_trace() {
        for spec in shapes() {
            let whole = spec.generate();
            let horizon = spec.duration.as_nanos();
            let mut cuts = SimRng::new(spec.seed ^ 0xC07);
            for _ in 0..8 {
                // Drain up to ascending random cuts, rebuilding the cursor
                // from its position after each; the last cut lies past
                // the horizon.
                let mut lazy = Vec::new();
                let mut cursor = spec.cursor();
                let mut cut = 0;
                while cut <= horizon {
                    cut += cuts.range_u64(1, horizon / 3);
                    while let Some(e) = cursor.next_before(SimTime::from_nanos(cut)) {
                        assert!(e.at < SimTime::from_nanos(cut), "{spec:?}");
                        lazy.push(e);
                    }
                    let (rng, t) = cursor.into_position();
                    cursor = spec.cursor_at(rng, t);
                }
                assert_eq!(cursor.next(), None, "{spec:?}");
                assert_eq!(lazy, whole.entries(), "{spec:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "span cannot hold")]
    fn degenerate_span_rejected() {
        let _ = TraceSpec::steady(1000.0).with_io_size(8192).with_span(4096);
    }
}
