//! [`Persist`] codecs for the flash layer's snapshot types.
//!
//! Geometry is validated through [`FlashGeometry::new`] on decode, so a
//! corrupted dimension comes back as a typed error instead of a
//! zero-sized array that panics downstream.

use crate::{DiePoolSnapshot, FlashArraySnapshot, FlashGeometry, FlashOpStats, FlashTiming};
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};

impl Persist for FlashGeometry {
    fn encode(&self, w: &mut Encoder) {
        w.put_u32(self.channels());
        w.put_u32(self.dies_per_channel());
        w.put_u32(self.planes_per_die());
        w.put_u32(self.blocks_per_plane());
        w.put_u32(self.pages_per_block());
        w.put_u32(self.page_size());
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        FlashGeometry::new(
            r.get_u32()?,
            r.get_u32()?,
            r.get_u32()?,
            r.get_u32()?,
            r.get_u32()?,
            r.get_u32()?,
        )
        .map_err(|_| DecodeError::InvalidValue {
            what: "FlashGeometry",
        })
    }
}

persist_struct! { FlashTiming { read_page, program_page, erase_block, bus_ns_per_byte } }
persist_struct! { FlashOpStats { reads, programs, erases } }
persist_struct! {
    FlashArraySnapshot { geometry, timing, dies, channels, stats },
    check = check_array
}
persist_struct! { DiePoolSnapshot { pool, timing, page_size } }

/// `FlashArray::restore` indexes dies/channels by the geometry's counts;
/// mismatched lengths must fail here, not panic there.
fn check_array(s: &FlashArraySnapshot) -> Result<(), DecodeError> {
    ensure(
        s.dies.len() == s.geometry.total_dies() as usize,
        "FlashArraySnapshot.dies",
    )?;
    ensure(
        s.channels.len() == s.geometry.channels() as usize,
        "FlashArraySnapshot.channels",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiePool, FlashArray};
    use uc_sim::SimTime;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn geometry_timing_stats_round_trip() {
        let g = FlashGeometry::new(4, 2, 2, 16, 64, 4096).unwrap();
        round_trip(g);
        round_trip(FlashTiming::tlc());
        round_trip(FlashOpStats {
            reads: 1,
            programs: 2,
            erases: 3,
        });
    }

    #[test]
    fn zero_dimension_geometry_rejected() {
        let mut w = Encoder::new();
        for v in [0u32, 2, 2, 16, 64, 4096] {
            w.put_u32(v);
        }
        let bytes = w.into_bytes();
        assert_eq!(
            FlashGeometry::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "FlashGeometry"
            })
        );
    }

    #[test]
    fn busy_array_snapshot_round_trips() {
        let g = FlashGeometry::new(2, 2, 1, 8, 16, 4096).unwrap();
        let mut array = FlashArray::new(g, FlashTiming::mlc());
        for die in 0..4 {
            array.read_page(SimTime::ZERO, die);
            array.program_page(SimTime::ZERO, die);
        }
        round_trip(array.snapshot());
    }

    #[test]
    fn mismatched_die_count_rejected() {
        let g = FlashGeometry::new(2, 2, 1, 8, 16, 4096).unwrap();
        let mut snapshot = FlashArray::new(g, FlashTiming::mlc()).snapshot();
        snapshot.dies.pop();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            FlashArraySnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "FlashArraySnapshot.dies"
            })
        );
    }

    #[test]
    fn die_pool_snapshot_round_trips() {
        let mut pool = DiePool::new(4, FlashTiming::slc(), 4096);
        pool.read(SimTime::ZERO, 8192);
        pool.program(SimTime::ZERO, 4096);
        round_trip(pool.snapshot());
    }
}
