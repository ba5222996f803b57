//! Offset/direction generation.

use crate::AccessPattern;
use uc_blockdev::IoKind;
use uc_sim::SimRng;

/// Generates the `(kind, offset)` sequence of a job.
///
/// Offsets are aligned to the I/O size and wrap within the span.
/// Sequential patterns keep separate cursors for reads and writes (as FIO
/// does for mixed sequential jobs); random patterns draw aligned uniform
/// offsets.
///
/// # Example
///
/// ```
/// use uc_workload::{AccessPattern, AddressStream};
///
/// let mut s = AddressStream::new(AccessPattern::SeqWrite, 4096, 0, 3 * 4096, 1);
/// let offsets: Vec<u64> = (0..4).map(|_| s.next_io().1).collect();
/// assert_eq!(offsets, vec![0, 4096, 8192, 0]); // wraps at span end
/// ```
#[derive(Debug, Clone)]
pub struct AddressStream {
    pattern: AccessPattern,
    io_size: u64,
    start: u64,
    slots: u64,
    read_cursor: u64,
    write_cursor: u64,
    rng: SimRng,
}

impl AddressStream {
    /// A stream over `[start, end)` with the given pattern and I/O size.
    ///
    /// # Panics
    ///
    /// Panics if the span cannot hold a single I/O.
    pub fn new(pattern: AccessPattern, io_size: u32, start: u64, end: u64, seed: u64) -> Self {
        let io_size = io_size as u64;
        assert!(
            end > start && end - start >= io_size,
            "span [{start}, {end}) cannot hold one {io_size}-byte i/o"
        );
        let slots = (end - start) / io_size;
        AddressStream {
            pattern,
            io_size,
            start,
            slots,
            read_cursor: 0,
            write_cursor: 0,
            rng: SimRng::new(seed),
        }
    }

    /// Number of distinct aligned offsets in the span.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    /// The next `(kind, offset)` pair.
    pub fn next_io(&mut self) -> (IoKind, u64) {
        let kind = match self.pattern {
            AccessPattern::RandRead | AccessPattern::SeqRead => IoKind::Read,
            AccessPattern::RandWrite | AccessPattern::SeqWrite => IoKind::Write,
            AccessPattern::Mixed { write_ratio, .. }
            | AccessPattern::Hotspot { write_ratio, .. } => {
                if self.rng.chance(write_ratio) {
                    IoKind::Write
                } else {
                    IoKind::Read
                }
            }
        };
        let slot = match self.pattern {
            AccessPattern::Hotspot {
                hot_fraction,
                hot_probability,
                ..
            } => {
                // The hot region occupies the head of the span; at least
                // one slot so degenerate fractions still work.
                let hot_slots = ((self.slots as f64 * hot_fraction.clamp(0.0, 1.0)) as u64)
                    .clamp(1, self.slots);
                if self.rng.chance(hot_probability) {
                    self.rng.range_u64(0, hot_slots)
                } else if hot_slots < self.slots {
                    self.rng.range_u64(hot_slots, self.slots)
                } else {
                    self.rng.range_u64(0, self.slots)
                }
            }
            _ if self.pattern.is_random() => self.rng.range_u64(0, self.slots),
            _ => {
                let cursor = match kind {
                    IoKind::Read => &mut self.read_cursor,
                    IoKind::Write => &mut self.write_cursor,
                };
                let s = *cursor % self.slots;
                *cursor += 1;
                s
            }
        };
        (kind, self.start + slot * self.io_size)
    }
}

uc_persist::persist_struct! {
    AddressStream { pattern, io_size, start, slots, read_cursor, write_cursor, rng },
    check = check_span
}

fn check_span(stream: &AddressStream) -> Result<(), uc_persist::DecodeError> {
    uc_persist::ensure(
        stream.io_size != 0 && stream.slots != 0,
        "AddressStream span",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_wraps() {
        let mut s = AddressStream::new(AccessPattern::SeqRead, 4096, 8192, 8192 + 2 * 4096, 1);
        assert_eq!(s.next_io(), (IoKind::Read, 8192));
        assert_eq!(s.next_io(), (IoKind::Read, 8192 + 4096));
        assert_eq!(s.next_io(), (IoKind::Read, 8192));
    }

    #[test]
    fn random_offsets_are_aligned_and_in_span() {
        let mut s =
            AddressStream::new(AccessPattern::RandWrite, 8192, 16384, 16384 + 100 * 8192, 2);
        for _ in 0..1000 {
            let (kind, off) = s.next_io();
            assert_eq!(kind, IoKind::Write);
            assert!(off >= 16384);
            assert!(off + 8192 <= 16384 + 100 * 8192);
            assert_eq!((off - 16384) % 8192, 0);
        }
    }

    #[test]
    fn mixed_ratio_is_respected() {
        let mut s = AddressStream::new(
            AccessPattern::Mixed {
                write_ratio: 0.3,
                random: true,
            },
            4096,
            0,
            4096 * 1000,
            3,
        );
        let n = 20_000;
        let writes = (0..n).filter(|_| s.next_io().0 == IoKind::Write).count();
        let frac = writes as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn mixed_sequential_keeps_separate_cursors() {
        let mut s = AddressStream::new(
            AccessPattern::Mixed {
                write_ratio: 0.5,
                random: false,
            },
            4096,
            0,
            4096 * 1000,
            4,
        );
        let mut last_read = None;
        let mut last_write = None;
        for _ in 0..100 {
            let (kind, off) = s.next_io();
            match kind {
                IoKind::Read => {
                    if let Some(prev) = last_read {
                        assert_eq!(off, prev + 4096);
                    }
                    last_read = Some(off);
                }
                IoKind::Write => {
                    if let Some(prev) = last_write {
                        assert_eq!(off, prev + 4096);
                    }
                    last_write = Some(off);
                }
            }
        }
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let mut s = AddressStream::new(
            AccessPattern::Hotspot {
                hot_fraction: 0.1,
                hot_probability: 0.9,
                write_ratio: 1.0,
            },
            4096,
            0,
            4096 * 1000,
            5,
        );
        let n = 20_000;
        let hot_end = 4096 * 100; // first 10% of the span
        let hot_hits = (0..n).filter(|_| s.next_io().1 < hot_end).count();
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn hotspot_cold_accesses_stay_out_of_hot_region() {
        let mut s = AddressStream::new(
            AccessPattern::Hotspot {
                hot_fraction: 0.5,
                hot_probability: 0.0,
                write_ratio: 0.5,
            },
            4096,
            0,
            4096 * 10,
            6,
        );
        for _ in 0..200 {
            let (_, off) = s.next_io();
            assert!(off >= 4096 * 5, "cold access {off} landed in hot region");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let collect = |seed| {
            let mut s = AddressStream::new(AccessPattern::RandRead, 4096, 0, 4096 * 50, seed);
            (0..20).map(|_| s.next_io().1).collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn tiny_span_rejected() {
        let _ = AddressStream::new(AccessPattern::RandRead, 8192, 0, 4096, 1);
    }
}
