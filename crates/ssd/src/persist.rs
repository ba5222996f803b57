//! [`Persist`] codecs for the local SSD's state.
//!
//! [`Ssd`] is a [`PersistPayload`], so an `Ssd`'s type-erased
//! [`DeviceCheckpoint`](uc_blockdev::DeviceCheckpoint) can be saved to
//! and loaded from disk under the stable record tag [`Ssd::KIND`].

use crate::buffer::resident_view;
use crate::{Prefetcher, Ssd, SsdConfig, SsdStats, WriteBuffer};
use std::collections::HashMap;
use uc_blockdev::{DeviceInfo, PersistPayload};
use uc_ftl::Ftl;
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};
use uc_sim::SimTime;

persist_struct! {
    SsdConfig {
        name, ftl, firmware_per_cmd, host_bus_bytes_per_sec, write_buffer_bytes, buffer_latency,
        prefetch_trigger, prefetch_window_pages
    },
    check = check_config
}
persist_struct! {
    SsdStats { reads, writes, read_bytes, write_bytes, buffer_hits, prefetch_hits, prefetch_issued }
}

fn check_config(c: &SsdConfig) -> Result<(), DecodeError> {
    ensure(
        c.host_bus_bytes_per_sec > 0.0 && c.host_bus_bytes_per_sec.is_finite(),
        "SsdConfig.host_bus_bytes_per_sec",
    )
}

/// Capacity, ring and admission count, then the resident set as
/// `(lpn, sequence, drain finish)` sorted by page and the pending
/// records in admission order. The resident set is derived from the
/// pending records, so decode checks it against them and starts the
/// residency index empty.
impl Persist for WriteBuffer {
    fn encode(&self, w: &mut Encoder) {
        self.capacity.encode(w);
        self.ring.encode(w);
        self.admitted.encode(w);
        resident_view(&self.pending).encode(w);
        w.put_u64(self.pending.len() as u64);
        for record in &self.pending {
            record.encode(w);
        }
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let capacity = usize::decode(r)?;
        let ring: Vec<SimTime> = Vec::decode(r)?;
        let admitted = u64::decode(r)?;
        let resident: Vec<(u64, u64, SimTime)> = Vec::decode(r)?;
        let pending: Vec<(SimTime, u64, u64)> = Vec::decode(r)?;
        ensure(
            capacity != 0 && ring.len() == capacity,
            "WriteBufferSnapshot.ring",
        )?;
        ensure(
            resident == resident_view(&pending),
            "WriteBufferSnapshot.resident",
        )?;
        Ok(WriteBuffer {
            capacity,
            ring,
            admitted,
            pending: pending.into(),
            resident: HashMap::new(),
            indexed: 0,
        })
    }
}

/// The streak state, then outstanding readahead as `(lpn, ready)` sorted
/// by page.
impl Persist for Prefetcher {
    fn encode(&self, w: &mut Encoder) {
        self.trigger.encode(w);
        self.window.encode(w);
        self.last_end.encode(w);
        self.streak.encode(w);
        self.issued_up_to.encode(w);
        let mut ready: Vec<(u64, SimTime)> =
            self.ready.iter().map(|(&lpn, &at)| (lpn, at)).collect();
        ready.sort_unstable_by_key(|&(lpn, _)| lpn);
        ready.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Prefetcher {
            trigger: u32::decode(r)?.max(1),
            window: Persist::decode(r)?,
            last_end: Persist::decode(r)?,
            streak: Persist::decode(r)?,
            issued_up_to: Persist::decode(r)?,
            ready: Vec::<(u64, SimTime)>::decode(r)?.into_iter().collect(),
        })
    }
}

/// Every field but the device info, which is derived from the
/// configuration's name and the FTL's capacity.
impl Persist for Ssd {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.ftl.encode(w);
        self.firmware.encode(w);
        self.read_lane.encode(w);
        self.write_lane.encode(w);
        self.buffer.encode(w);
        self.prefetcher.encode(w);
        self.rng.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = SsdConfig::decode(r)?;
        let ftl = Ftl::decode(r)?;
        let capacity = ftl.logical_pages() * ftl.page_size() as u64;
        Ok(Ssd {
            info: DeviceInfo::new(config.name.clone(), capacity, ftl.page_size()),
            config,
            ftl,
            firmware: Persist::decode(r)?,
            read_lane: Persist::decode(r)?,
            write_lane: Persist::decode(r)?,
            buffer: Persist::decode(r)?,
            prefetcher: Persist::decode(r)?,
            rng: Persist::decode(r)?,
            stats: Persist::decode(r)?,
        })
    }
}

impl PersistPayload for Ssd {
    const KIND: &'static str = "uc.ssd-checkpoint.v2";
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_blockdev::{BlockDevice, IoRequest};

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
        let bytes = ssd.to_bytes();
        let mut restored = Ssd::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);

        // The decoded device's future schedule is identical to the
        // original's.
        let req = IoRequest::write(0, 8192, now);
        assert_eq!(restored.submit(&req), ssd.submit(&req));
    }

    #[test]
    fn corrupt_buffer_ring_is_typed() {
        let mut ssd = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
        ssd.buffer.ring.pop();
        assert!(matches!(
            Ssd::from_bytes(&ssd.to_bytes()),
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
        let buffer = &ssd.buffer;
        let base = resident_view(&buffer.pending);
        assert!(buffer.pending.len() > base.len());
        assert!(!base.is_empty());
        // The buffer's fields, encoded directly with `resident` as the
        // stored view.
        let decode = |resident: &Vec<(u64, u64, SimTime)>| {
            let mut w = Encoder::new();
            buffer.capacity.encode(&mut w);
            buffer.ring.encode(&mut w);
            buffer.admitted.encode(&mut w);
            resident.encode(&mut w);
            buffer
                .pending
                .iter()
                .copied()
                .collect::<Vec<_>>()
                .encode(&mut w);
            WriteBuffer::from_bytes(w.as_bytes()).map(|b| b.to_bytes())
        };
        assert_eq!(decode(&base), Ok(buffer.to_bytes()));
        for corruption in 0..4 {
            let mut resident = base.clone();
            match corruption {
                0 => resident.clear(),                            // missing pages
                1 => resident.reverse(),                          // not sorted by page
                2 => resident[0].1 = u64::MAX,                    // not the newest record
                _ => resident.push((u64::MAX, 0, SimTime::ZERO)), // page not pending
            }
            assert!(matches!(
                decode(&resident),
                Err(DecodeError::InvalidValue {
                    what: "WriteBufferSnapshot.resident"
                })
            ));
        }
    }
}
