//! [`Persist`] codecs for the flash layer's stateful types.
//!
//! Geometry is validated through [`FlashGeometry::new`] on decode, so a
//! corrupted dimension comes back as a typed error instead of a
//! zero-sized array that panics downstream.

use crate::{DiePool, FlashArray, FlashGeometry, FlashOpStats, FlashTiming};
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};
use uc_sim::Resource;

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
persist_struct! { DiePool { pool, timing, page_size }, check = check_pool }

/// The array's geometry, timing, timelines and counters; the page bus
/// time is derived from the first two.
impl Persist for FlashArray {
    fn encode(&self, w: &mut Encoder) {
        self.geometry.encode(w);
        self.timing.encode(w);
        self.dies.encode(w);
        self.channels.encode(w);
        self.stats.encode(w);
    }

    /// The array indexes dies and channels by the geometry's counts, so
    /// mismatched lengths fail here instead of panicking there.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let geometry = FlashGeometry::decode(r)?;
        let timing = FlashTiming::decode(r)?;
        let dies: Vec<Resource> = Vec::decode(r)?;
        let channels: Vec<Resource> = Vec::decode(r)?;
        let stats = FlashOpStats::decode(r)?;
        ensure(
            dies.len() == geometry.total_dies() as usize,
            "FlashArraySnapshot.dies",
        )?;
        ensure(
            channels.len() == geometry.channels() as usize,
            "FlashArraySnapshot.channels",
        )?;
        Ok(FlashArray {
            page_bus_time: timing.bus_time(geometry.page_size()),
            geometry,
            timing,
            dies,
            channels,
            stats,
        })
    }
}

/// A pool rounds requests up to whole pages, so it needs a page size.
fn check_pool(p: &DiePool) -> Result<(), DecodeError> {
    ensure(p.page_size > 0, "DiePoolSnapshot.page_size")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use uc_sim::SimTime;

    /// `value` encoded and decoded back, as a resumed run gets it.
    pub(crate) fn thaw<T: Persist>(value: &T) -> T {
        T::from_bytes(&value.to_bytes()).expect("decodes")
    }

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
        assert_eq!(thaw(&array).to_bytes(), array.to_bytes());
    }

    #[test]
    fn mismatched_die_count_rejected() {
        let g = FlashGeometry::new(2, 2, 1, 8, 16, 4096).unwrap();
        let mut array = FlashArray::new(g, FlashTiming::mlc());
        array.dies.pop();
        let bytes = array.to_bytes();
        assert_eq!(
            FlashArray::decode(&mut Decoder::new(&bytes)).map(|a| a.stats()),
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
        assert_eq!(thaw(&pool).to_bytes(), pool.to_bytes());

        // A pool rounds requests up to whole pages of a positive size.
        pool.page_size = 0;
        assert_eq!(
            DiePool::from_bytes(&pool.to_bytes()).map(drop),
            Err(DecodeError::InvalidValue {
                what: "DiePoolSnapshot.page_size"
            })
        );
    }
}
