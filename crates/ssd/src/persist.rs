//! [`Persist`] codecs for the local-SSD checkpoint types.
//!
//! [`SsdCheckpoint`] is a [`PersistPayload`], so an `Ssd`'s type-erased
//! [`DeviceCheckpoint`](uc_blockdev::DeviceCheckpoint) can be saved to
//! and loaded from disk under the stable record tag
//! [`SsdCheckpoint::KIND`].

use crate::buffer::resident_view;
use crate::{PrefetcherSnapshot, SsdCheckpoint, SsdConfig, SsdStats, WriteBufferSnapshot};
use uc_blockdev::PersistPayload;
use uc_persist::{ensure, persist_struct, DecodeError};

persist_struct! {
    SsdConfig {
        name, ftl, firmware_per_cmd, host_bus_bytes_per_sec, write_buffer_bytes, buffer_latency,
        prefetch_trigger, prefetch_window_pages
    },
    check = check_config
}
persist_struct! {
    WriteBufferSnapshot { capacity, ring, admitted, resident, pending },
    check = check_buffer
}
persist_struct! {
    PrefetcherSnapshot { trigger, window, last_end, streak, issued_up_to, ready }
}
persist_struct! {
    SsdStats { reads, writes, read_bytes, write_bytes, buffer_hits, prefetch_hits, prefetch_issued }
}
persist_struct! {
    SsdCheckpoint { config, ftl, firmware, read_lane, write_lane, buffer, prefetcher, rng, stats }
}

fn check_config(c: &SsdConfig) -> Result<(), DecodeError> {
    ensure(
        c.host_bus_bytes_per_sec > 0.0 && c.host_bus_bytes_per_sec.is_finite(),
        "SsdConfig.host_bus_bytes_per_sec",
    )
}

fn check_buffer(s: &WriteBufferSnapshot) -> Result<(), DecodeError> {
    ensure(
        s.capacity != 0 && s.ring.len() == s.capacity,
        "WriteBufferSnapshot.ring",
    )?;
    // `WriteBuffer::restore` rebuilds residency from `pending`, so a stored
    // view that disagrees would not survive a thaw-freeze round trip.
    ensure(
        s.resident == resident_view(&s.pending),
        "WriteBufferSnapshot.resident",
    )
}

impl PersistPayload for SsdCheckpoint {
    const KIND: &'static str = "uc.ssd-checkpoint.v2";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ssd;
    use uc_blockdev::{BlockDevice, IoRequest};
    use uc_persist::{Decoder, Encoder, Persist};
    use uc_sim::SimTime;

    #[test]
    fn busy_ssd_checkpoint_round_trips() {
        let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
        let mut now = SimTime::ZERO;
        let mut state = 17u64;
        for _ in 0..96 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = (state % 2048) * 4096;
            let req = if state.is_multiple_of(3) {
                IoRequest::read(off, 4096, now)
            } else {
                IoRequest::write(off, 8192, now)
            };
            now = ssd.submit(&req).unwrap();
        }
        let checkpoint = ssd.snapshot();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = SsdCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, checkpoint);

        // The decoded checkpoint restores into a device whose future
        // schedule is identical to the original's.
        let mut restored = Ssd::restore(back);
        let req = IoRequest::write(0, 8192, now);
        assert_eq!(restored.submit(&req), ssd.submit(&req));
    }

    #[test]
    fn corrupt_buffer_ring_is_typed() {
        let mut checkpoint = Ssd::new(SsdConfig::samsung_970_pro(256 << 20)).snapshot();
        checkpoint.buffer.ring.pop();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            SsdCheckpoint::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "WriteBufferSnapshot.ring"
            })
        ));
    }

    #[test]
    fn resident_view_must_match_pending() {
        let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
        // Rewrites of the same pages leave stale pending records behind
        // the newest one of each page.
        let mut now = SimTime::ZERO;
        for off in [0, 4096, 0, 8192, 4096] {
            now = ssd.submit(&IoRequest::write(off, 4096, now)).unwrap();
        }
        let base = ssd.snapshot();
        assert!(base.buffer.pending.len() > base.buffer.resident.len());
        assert!(!base.buffer.resident.is_empty());
        let decode = |checkpoint: &SsdCheckpoint| {
            let mut w = Encoder::new();
            checkpoint.encode(&mut w);
            SsdCheckpoint::decode(&mut Decoder::new(&w.into_bytes()))
        };
        assert_eq!(decode(&base).as_ref(), Ok(&base));
        for corruption in 0..4 {
            let mut checkpoint = base.clone();
            let resident = &mut checkpoint.buffer.resident;
            match corruption {
                0 => resident.clear(),                            // missing pages
                1 => resident.reverse(),                          // not sorted by page
                2 => resident[0].1 = u64::MAX,                    // not the newest record
                _ => resident.push((u64::MAX, 0, SimTime::ZERO)), // page not pending
            }
            assert!(matches!(
                decode(&checkpoint),
                Err(DecodeError::InvalidValue {
                    what: "WriteBufferSnapshot.resident"
                })
            ));
        }
    }
}
