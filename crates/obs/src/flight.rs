//! Bounded flight-recorder ring of sim-time-stamped events.

use std::collections::VecDeque;

use uc_sim::SimTime;

/// One structured event in the flight recorder.
///
/// Events are deliberately flat — a label plus two untyped operands —
/// so recording never allocates beyond the label and rendering stays
/// byte-stable. Conventions: `a` identifies the subject (tenant, lane,
/// block), `b` carries a quantity (bytes, pages, epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotone sequence number across the whole recorder lifetime,
    /// including dropped events (so gaps are visible in a dump).
    pub seq: u64,
    /// Simulated time the event fired at.
    pub at: SimTime,
    /// What happened, e.g. `"migration-freeze"` or
    /// `"contract-violation: …"`.
    pub what: String,
    /// First operand (subject id).
    pub a: u64,
    /// Second operand (quantity).
    pub b: u64,
}

impl ObsEvent {
    /// Stable one-line rendering used in dumps.
    pub fn render(&self) -> String {
        format!(
            "flight[{}] t={} {} a={} b={}",
            self.seq,
            self.at.as_nanos(),
            self.what,
            self.a,
            self.b
        )
    }
}

uc_persist::persist_struct! { ObsEvent { seq, at, what, a, b } }

/// A bounded ring buffer of the last N [`ObsEvent`]s.
///
/// When a contract violation fires or a crash hook trips, the most recent
/// events are exactly the postmortem trail: what the stack was doing right
/// before things went wrong. Old events are dropped (and counted) rather
/// than blocking or growing without bound.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<ObsEvent>,
    next_seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// Default ring capacity used by subsystems that don't override it.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, at: SimTime, what: impl Into<String>, a: u64, b: u64) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ObsEvent {
            seq: self.next_seq,
            at,
            what: what.into(),
            a,
            b,
        });
        self.next_seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
        self.ring.iter()
    }

    /// The retained events as an owned vec, oldest first.
    pub fn to_vec(&self) -> Vec<ObsEvent> {
        self.ring.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// How many events were evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::{Decoder, Encoder, Persist};

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut f = FlightRecorder::new(3);
        for i in 0..5u64 {
            f.record(t(i), "e", i, 0);
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.dropped(), 2);
        let seqs: Vec<u64> = f.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
    }

    #[test]
    fn sequence_numbers_survive_eviction() {
        let mut f = FlightRecorder::new(1);
        f.record(t(0), "first", 0, 0);
        f.record(t(1), "second", 0, 0);
        assert_eq!(f.events().next().unwrap().seq, 1);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut f = FlightRecorder::new(0);
        f.record(t(0), "e", 0, 0);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn event_round_trips_through_persist() {
        let e = ObsEvent {
            seq: 7,
            at: t(1234),
            what: "migration-freeze".into(),
            a: 3,
            b: 9,
        };
        let mut w = Encoder::new();
        e.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = ObsEvent::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn render_is_stable() {
        let e = ObsEvent {
            seq: 0,
            at: t(5),
            what: "gc-start".into(),
            a: 1,
            b: 2,
        };
        assert_eq!(e.render(), "flight[0] t=5 gc-start a=1 b=2");
    }
}
