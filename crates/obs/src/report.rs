//! The `uc.obs.v1` telemetry record: snapshot + flight events.

use std::io;
use std::path::Path;

use uc_persist::{DecodeError, Decoder, Encoder, Persist};

use crate::flight::{FlightRecorder, ObsEvent};
use crate::snapshot::ObsSnapshot;

/// Record kind tag for persisted telemetry dumps.
pub const OBS_RECORD_KIND: &str = "uc.obs.v1";

/// A complete telemetry capture: every metric plus the flight-recorder
/// tail, persisted through the standard checksummed record envelope.
///
/// Dumped in three situations: on demand (`--obs-dump`), when a contract
/// violation fires (the last events name the violating seam), and from
/// crash hooks right before a seeded kill.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObsReport {
    /// All metrics at capture time, registration-ordered.
    pub snapshot: ObsSnapshot,
    /// Flight-recorder tail, oldest first.
    pub events: Vec<ObsEvent>,
    /// Events evicted from the ring before capture.
    pub dropped_events: u64,
}

impl ObsReport {
    /// Captures a registry snapshot together with the flight tail.
    pub fn capture(reg: &crate::MetricsRegistry, flight: &FlightRecorder) -> Self {
        ObsReport {
            snapshot: reg.snapshot(),
            events: flight.to_vec(),
            dropped_events: flight.dropped(),
        }
    }

    /// Renders the whole report as stable text: snapshot rows, then the
    /// event tail. This is the byte-compared determinism surface.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("uc.obs.v1\n");
        out.push_str(&self.snapshot.render_text());
        out.push_str(&format!(
            "flight events={} dropped={}\n",
            self.events.len(),
            self.dropped_events
        ));
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Serializes into a framed `uc.obs.v1` record.
    pub fn to_record_bytes(&self) -> Vec<u8> {
        let mut record = Vec::new();
        uc_persist::encode_record_into(&mut record, OBS_RECORD_KIND, |w| self.encode(w));
        record
    }

    /// Writes the report to `path` atomically (tmp + rename).
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        uc_persist::write_record_file(path, OBS_RECORD_KIND, |w| self.encode(w))
    }

    /// Reads a report back from `path`, verifying envelope and kind.
    pub fn load_from(path: &Path) -> Result<Self, DecodeError> {
        let payload = uc_persist::read_record_file(path, OBS_RECORD_KIND)?;
        let mut r = Decoder::new(&payload);
        let report = ObsReport::decode(&mut r)?;
        r.finish()?;
        Ok(report)
    }
}

impl Persist for ObsReport {
    fn encode(&self, w: &mut Encoder) {
        self.snapshot.encode(w);
        w.put_u64(self.dropped_events);
        w.put_u64(self.events.len() as u64);
        for e in &self.events {
            e.encode(w);
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let snapshot = ObsSnapshot::decode(r)?;
        let dropped_events = r.get_u64()?;
        let n = r.get_u64()? as usize;
        // Each event is at least seq+at+len(what)+a+b = 40 bytes.
        uc_persist::ensure(n <= r.remaining() / 40 + 1, "ObsReport.events.len")?;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(ObsEvent::decode(r)?);
        }
        Ok(ObsReport {
            snapshot,
            events,
            dropped_events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;
    use uc_sim::{SimDuration, SimTime};

    fn sample() -> ObsReport {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("x.ios");
        let h = reg.hist("x.lat_ns");
        reg.add(c, 11);
        reg.record(h, SimDuration::from_micros(100));
        let mut flight = FlightRecorder::new(2);
        flight.record(SimTime::from_nanos(1), "first", 0, 0);
        flight.record(SimTime::from_nanos(2), "second", 1, 2);
        flight.record(SimTime::from_nanos(3), "third", 3, 4);
        ObsReport::capture(&reg, &flight)
    }

    #[test]
    fn capture_takes_flight_tail_and_drop_count() {
        let r = sample();
        assert_eq!(r.events.len(), 2);
        assert_eq!(r.dropped_events, 1);
        assert_eq!(r.events[0].what, "second");
        assert_eq!(r.snapshot.counter("x.ios"), Some(11));
    }

    #[test]
    fn render_text_lists_snapshot_then_events() {
        let text = sample().render_text();
        assert!(text.starts_with("uc.obs.v1\ncounter x.ios 11\n"));
        assert!(text.contains("flight events=2 dropped=1\n"));
        assert!(text.ends_with("flight[2] t=3 third a=3 b=4\n"));
    }

    #[test]
    fn file_round_trip_preserves_everything() {
        let dir = std::env::temp_dir().join(format!("uc-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.obs");
        let report = sample();
        report.save_to(&path).unwrap();
        let back = ObsReport::load_from(&path).unwrap();
        assert_eq!(back, report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let dir = std::env::temp_dir().join(format!("uc-obs-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("other.rec");
        uc_persist::write_record_file(&path, "uc.other.v1", |w| w.put_raw(b"payload")).unwrap();
        assert!(matches!(
            ObsReport::load_from(&path),
            Err(DecodeError::UnknownKind { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absurd_event_count_is_rejected() {
        let mut w = Encoder::new();
        ObsSnapshot::new().encode(&mut w);
        w.put_u64(0); // dropped
        w.put_u64(u64::MAX); // event count
        let bytes = w.into_bytes();
        assert!(matches!(
            ObsReport::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { .. })
        ));
    }
}
