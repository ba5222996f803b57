//! Block I/O traces: record, generate, parse and replay.
//!
//! Traces make the burst-smoothing analyses of Implication 4 concrete: a
//! production-like arrival pattern can be generated (or imported from a
//! simple text format), inspected as a per-window demand profile for the
//! smoothing planner in `uc-core`, and replayed open-loop against any
//! device — shaped or unshaped.

use std::fmt;
use std::str::FromStr;
use uc_blockdev::IoKind;
use uc_sim::{SimDuration, SimRng, SimTime};

/// One traced I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Arrival instant.
    pub at: SimTime,
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u32,
}

impl TraceEntry {
    /// Validates this entry in isolation: the length must be non-zero
    /// and, when a device `capacity` is known, `offset + len` must fit
    /// inside it.
    ///
    /// This is the entry-level half of the shared trace validation — the
    /// text parser calls it per line, the binary decoder per record, and
    /// [`Trace::validate`] over a whole trace — so a malformed entry is a
    /// typed [`TraceError`] at ingest time, never a mid-replay failure on
    /// its first I/O.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::ZeroLength`] or [`TraceError::OutOfRange`]
    /// (with `index` as given).
    pub fn validate(&self, index: usize, capacity: Option<u64>) -> Result<(), TraceError> {
        if self.len == 0 {
            return Err(TraceError::ZeroLength { index });
        }
        let end = self.offset.saturating_add(self.len as u64);
        if let Some(capacity) = capacity {
            if end > capacity {
                return Err(TraceError::OutOfRange {
                    index,
                    end,
                    capacity,
                });
            }
        }
        Ok(())
    }
}

/// Why a trace (or one of its entries) is invalid.
///
/// Shared by the text parser, the binary decoder in `uc-trace`, and the
/// replay drivers: an invalid trace is rejected with one of these typed
/// errors *before* any I/O is issued, instead of surfacing as the first
/// request's [`IoError`](uc_blockdev::IoError) halfway through a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// An entry's length is zero.
    ZeroLength {
        /// Index of the offending entry.
        index: usize,
    },
    /// An entry extends past the device capacity.
    OutOfRange {
        /// Index of the offending entry.
        index: usize,
        /// First byte past the entry's range.
        end: u64,
        /// The device capacity the trace was validated against.
        capacity: u64,
    },
    /// An entry arrives earlier than its predecessor (the sequence is
    /// not arrival-ordered).
    TimestampRegression {
        /// Index of the offending entry.
        index: usize,
        /// The predecessor's arrival instant.
        prev: SimTime,
        /// The offending entry's arrival instant.
        at: SimTime,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ZeroLength { index } => {
                write!(f, "trace entry {index}: zero-length i/o")
            }
            TraceError::OutOfRange {
                index,
                end,
                capacity,
            } => write!(
                f,
                "trace entry {index}: i/o extends to byte {end} beyond capacity {capacity}"
            ),
            TraceError::TimestampRegression { index, prev, at } => write!(
                f,
                "trace entry {index}: arrival {} ns precedes the previous entry's {} ns",
                at.as_nanos(),
                prev.as_nanos()
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Validates an arrival-ordered entry sequence: every entry passes
/// [`TraceEntry::validate`] and timestamps never decrease.
///
/// A [`Trace`] is sorted by construction, so its own
/// [`Trace::validate`] can never report a regression — this standalone
/// form exists for decoders (the binary trace reader) that ingest entry
/// streams *before* they become a `Trace` and must reject unsorted
/// input rather than silently reorder it.
///
/// # Errors
///
/// Returns the first [`TraceError`] found, with the offending entry's
/// index.
pub fn validate_entries(entries: &[TraceEntry], capacity: Option<u64>) -> Result<(), TraceError> {
    let mut prev = SimTime::ZERO;
    for (index, entry) in entries.iter().enumerate() {
        entry.validate(index, capacity)?;
        if entry.at < prev {
            return Err(TraceError::TimestampRegression {
                index,
                prev,
                at: entry.at,
            });
        }
        prev = entry.at;
    }
    Ok(())
}

/// An arrival-ordered block I/O trace.
///
/// # Text format
///
/// One entry per line: `<nanos> <R|W> <offset> <len>`, e.g.
///
/// ```text
/// 0 W 0 4096
/// 1000000 R 8192 4096
/// ```
///
/// # Example
///
/// ```
/// use uc_workload::Trace;
///
/// let trace: Trace = "0 W 0 4096\n1000 R 4096 4096".parse()?;
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.total_bytes(), 8192);
/// # Ok::<(), uc_workload::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

/// Error parsing the trace text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from entries, sorting them by arrival time (stable).
    pub fn from_entries(mut entries: Vec<TraceEntry>) -> Self {
        entries.sort_by_key(|e| e.at);
        Trace { entries }
    }

    /// The entries in arrival order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of I/Os.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes across all entries.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len as u64).sum()
    }

    /// The arrival instant of the last entry, or zero if empty.
    pub fn duration(&self) -> SimDuration {
        self.entries
            .last()
            .map(|e| e.at.saturating_since(SimTime::ZERO))
            .unwrap_or(SimDuration::ZERO)
    }

    /// Generates an on/off bursty write trace: every `period`, a burst of
    /// `burst_ios` I/Os of `io_size` bytes arrives at once, at uniformly
    /// random aligned offsets within `span_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `io_size == 0` or `span_bytes < io_size`.
    pub fn bursty_writes(
        bursts: u64,
        burst_ios: u64,
        period: SimDuration,
        io_size: u32,
        span_bytes: u64,
        seed: u64,
    ) -> Self {
        assert!(io_size > 0, "i/o size must be positive");
        assert!(span_bytes >= io_size as u64, "span cannot hold one i/o");
        let mut rng = SimRng::new(seed);
        let slots = span_bytes / io_size as u64;
        let mut entries = Vec::with_capacity((bursts * burst_ios) as usize);
        for b in 0..bursts {
            let at = SimTime::ZERO + period * b;
            for _ in 0..burst_ios {
                entries.push(TraceEntry {
                    at,
                    kind: IoKind::Write,
                    offset: rng.range_u64(0, slots) * io_size as u64,
                    len: io_size,
                });
            }
        }
        Trace { entries }
    }

    /// The demand profile: bytes arriving in each consecutive window —
    /// the input shape `uc-core`'s smoothing planner consumes.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn demand_profile(&self, window: SimDuration) -> Vec<u64> {
        assert!(!window.is_zero(), "window must be non-zero");
        let mut out: Vec<u64> = Vec::new();
        for e in &self.entries {
            let idx = (e.at.as_nanos() / window.as_nanos()) as usize;
            if idx >= out.len() {
                out.resize(idx + 1, 0);
            }
            out[idx] += e.len as u64;
        }
        out
    }

    /// Renders the text format (same output as the [`fmt::Display`] impl).
    pub fn to_text(&self) -> String {
        self.to_string()
    }

    /// Validates every entry against a device of `capacity` bytes:
    /// non-zero lengths and in-range offsets (arrival order holds by
    /// construction).
    ///
    /// The replay drivers call this before issuing any I/O, so a bad
    /// trace is a typed [`TraceError`] up front instead of an
    /// [`IoError`](uc_blockdev::IoError) on whichever entry first hits the
    /// device.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceError`] found.
    pub fn validate(&self, capacity: u64) -> Result<(), TraceError> {
        validate_entries(&self.entries, Some(capacity))
    }
}

/// Structural audit of a trace: entries are arrival-ordered (the property
/// `Trace::from_entries` sorting establishes and every later operation
/// must preserve) and individually well-formed. O(entries).
impl uc_invariant::Contract for Trace {
    fn contract_name(&self) -> &'static str {
        "uc-workload/Trace"
    }

    fn check(&self) -> Result<(), uc_invariant::Violation> {
        validate_entries(&self.entries, None).map_err(|e| {
            uc_invariant::Violation::new(self.contract_name(), "entry-monotonicity", e.to_string())
        })
    }
}

impl fmt::Display for Trace {
    /// Writes the parseable text format: one `<nanos> <R|W> <offset>
    /// <len>` line per entry, so `trace.to_string().parse::<Trace>()`
    /// round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(
                f,
                "{} {} {} {}",
                e.at.as_nanos(),
                if e.kind.is_write() { 'W' } else { 'R' },
                e.offset,
                e.len
            )?;
        }
        Ok(())
    }
}

impl FromStr for Trace {
    type Err = ParseTraceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut entries = Vec::new();
        for (i, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |reason: &str| ParseTraceError {
                line: i + 1,
                reason: reason.to_string(),
            };
            let mut parts = line.split_whitespace();
            let at: u64 = parts
                .next()
                .ok_or_else(|| err("missing arrival time"))?
                .parse()
                .map_err(|_| err("bad arrival time"))?;
            let kind = match parts.next().ok_or_else(|| err("missing direction"))? {
                "R" | "r" => IoKind::Read,
                "W" | "w" => IoKind::Write,
                other => return Err(err(&format!("bad direction `{other}`"))),
            };
            let offset: u64 = parts
                .next()
                .ok_or_else(|| err("missing offset"))?
                .parse()
                .map_err(|_| err("bad offset"))?;
            let len: u32 = parts
                .next()
                .ok_or_else(|| err("missing length"))?
                .parse()
                .map_err(|_| err("bad length"))?;
            if parts.next().is_some() {
                return Err(err("trailing fields"));
            }
            let entry = TraceEntry {
                at: SimTime::from_nanos(at),
                kind,
                offset,
                len,
            };
            // The shared entry validation (capacity is unknown at parse
            // time; range checks happen against a concrete device in
            // `Trace::validate`).
            entry
                .validate(entries.len(), None)
                .map_err(|e| err(&e.to_string()))?;
            entries.push(entry);
        }
        Ok(Trace::from_entries(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render_round_trip() {
        let text = "0 W 0 4096\n1000 R 8192 4096\n";
        let trace: Trace = text.parse().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.to_text(), text);
        assert_eq!(trace.entries()[1].kind, IoKind::Read);
    }

    #[test]
    fn parse_skips_comments_and_blank_lines() {
        let trace: Trace = "# header\n\n0 W 0 4096\n".parse().unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = "0 W 0 4096\nbogus".parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 2);
        assert!(!err.to_string().is_empty());
        let err = "0 X 0 4096".parse::<Trace>().unwrap_err();
        assert!(err.reason.contains("direction"));
        let err = "0 W 0 4096 extra".parse::<Trace>().unwrap_err();
        assert!(err.reason.contains("trailing"));
    }

    #[test]
    fn display_from_str_round_trip() {
        // Generate a non-trivial trace, render it through `Display`, parse
        // it back, and require exact equality (and a stable re-render).
        let original = Trace::bursty_writes(3, 7, SimDuration::from_millis(2), 8192, 4 << 20, 42);
        let text = original.to_string();
        let reparsed: Trace = text.parse().unwrap();
        assert_eq!(reparsed, original);
        assert_eq!(reparsed.to_string(), text);
        assert_eq!(original.to_text(), text, "to_text delegates to Display");
        // An empty trace renders to nothing and parses back empty.
        assert_eq!(Trace::new().to_string(), "");
        assert_eq!("".parse::<Trace>().unwrap(), Trace::new());
    }

    #[test]
    fn parse_error_line_numbers_are_one_based_and_count_skipped_lines() {
        // The bad line is line 5 of the input: a header comment, a blank
        // line and two good entries precede it. Skipped lines still count.
        let text = "# header\n\n0 W 0 4096\n10 R 4096 4096\n20 Q 0 4096\n";
        let err = text.parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.reason.contains("direction"));
        assert_eq!(err.to_string(), "trace line 5: bad direction `Q`");
    }

    #[test]
    fn entries_sort_by_arrival() {
        let trace = Trace::from_entries(vec![
            TraceEntry {
                at: SimTime::from_nanos(500),
                kind: IoKind::Write,
                offset: 0,
                len: 4096,
            },
            TraceEntry {
                at: SimTime::from_nanos(100),
                kind: IoKind::Read,
                offset: 4096,
                len: 4096,
            },
        ]);
        assert_eq!(trace.entries()[0].at, SimTime::from_nanos(100));
    }

    #[test]
    fn bursty_generator_shape() {
        let t = Trace::bursty_writes(4, 10, SimDuration::from_millis(10), 4096, 1 << 20, 7);
        assert_eq!(t.len(), 40);
        assert_eq!(t.total_bytes(), 40 * 4096);
        let profile = t.demand_profile(SimDuration::from_millis(10));
        assert_eq!(profile, vec![40960; 4]);
        // Finer windows expose the burstiness.
        let fine = t.demand_profile(SimDuration::from_millis(1));
        assert_eq!(fine.iter().filter(|&&d| d > 0).count(), 4);
    }

    #[test]
    fn replay_reports_queueing() {
        let trace = Trace::bursty_writes(1, 10, SimDuration::from_secs(1), 4096, 1 << 20, 1);
        let mut dev = crate::testdev::TestDevice::new(100, 1);
        let report =
            crate::replay_with(&mut dev, &trace, &crate::ReplayConfig::open_loop()).unwrap();
        assert_eq!(report.ios, 10);
        assert_eq!(report.latency.max(), SimDuration::from_micros(1000));
    }

    #[test]
    fn validation_is_typed_and_shared() {
        // Zero length: caught by the parser (with a line number)…
        let err = "0 W 0 0".parse::<Trace>().unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("zero-length"));
        // …and by the trace-level validator (with an entry index).
        let zero = TraceEntry {
            at: SimTime::ZERO,
            kind: IoKind::Write,
            offset: 0,
            len: 0,
        };
        assert_eq!(
            zero.validate(3, None),
            Err(TraceError::ZeroLength { index: 3 })
        );
        // Range checks need a capacity.
        let far = TraceEntry {
            at: SimTime::ZERO,
            kind: IoKind::Read,
            offset: 1 << 20,
            len: 4096,
        };
        assert_eq!(far.validate(0, None), Ok(()));
        assert_eq!(
            far.validate(0, Some(1 << 20)),
            Err(TraceError::OutOfRange {
                index: 0,
                end: (1 << 20) + 4096,
                capacity: 1 << 20,
            })
        );
        // A whole trace validates against a device capacity; the first
        // offender's index is reported.
        let trace = Trace::from_entries(vec![
            TraceEntry {
                at: SimTime::ZERO,
                kind: IoKind::Write,
                offset: 0,
                len: 4096,
            },
            far,
        ]);
        assert!(trace.validate(2 << 20).is_ok());
        assert_eq!(
            trace.validate(1 << 20),
            Err(TraceError::OutOfRange {
                index: 1,
                end: (1 << 20) + 4096,
                capacity: 1 << 20,
            })
        );
        // The standalone entry-sequence validator also rejects unsorted
        // streams (a binary decoder must not silently reorder).
        let unsorted = vec![far, zero];
        assert!(matches!(
            validate_entries(&unsorted, None),
            Err(TraceError::ZeroLength { index: 1 })
        ));
        let regressing = vec![
            TraceEntry {
                at: SimTime::from_nanos(100),
                kind: IoKind::Write,
                offset: 0,
                len: 4096,
            },
            TraceEntry {
                at: SimTime::from_nanos(50),
                kind: IoKind::Write,
                offset: 0,
                len: 4096,
            },
        ];
        let err = validate_entries(&regressing, None).unwrap_err();
        assert!(matches!(
            err,
            TraceError::TimestampRegression { index: 1, .. }
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn deterministic_generation() {
        let a = Trace::bursty_writes(2, 5, SimDuration::from_millis(1), 4096, 1 << 20, 9);
        let b = Trace::bursty_writes(2, 5, SimDuration::from_millis(1), 4096, 1 << 20, 9);
        assert_eq!(a, b);
    }
}
