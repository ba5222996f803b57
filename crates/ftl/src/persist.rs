//! [`Persist`] codecs for the FTL's checkpoint types.
//!
//! An [`FtlCheckpoint`] is the largest leaf of a device checkpoint — the
//! full logical↔physical mapping plus per-block bookkeeping — so its wire
//! form is a straight field-by-field dump of the plain-data snapshot.
//! Structural invariants that [`Ftl::restore`](crate::Ftl::restore)
//! relies on (map and block-table lengths matching the geometry) are
//! validated on decode, so corrupted bytes surface as typed errors.

use crate::{BlockState, FtlCheckpoint, FtlConfig, FtlStats, GcPolicy};
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};

impl Persist for GcPolicy {
    fn encode(&self, w: &mut Encoder) {
        w.put_u8(match self {
            GcPolicy::Greedy => 0,
            GcPolicy::CostBenefit => 1,
            GcPolicy::Fifo => 2,
        });
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            0 => Ok(GcPolicy::Greedy),
            1 => Ok(GcPolicy::CostBenefit),
            2 => Ok(GcPolicy::Fifo),
            _ => Err(DecodeError::InvalidValue {
                what: "GcPolicy tag",
            }),
        }
    }
}

persist_struct! {
    FtlConfig { geometry, timing, over_provisioning, gc_trigger_free, gc_target_free, gc_policy }
}
persist_struct! { BlockState { written, valid, erase_count, opened_seq } }
persist_struct! {
    FtlStats {
        host_pages_written, gc_pages_relocated, gc_blocks_erased, host_pages_read, pages_trimmed,
        gc_invocations
    }
}
persist_struct! {
    FtlCheckpoint { config, flash, l2p, p2l, blocks, free, open_host, open_gc, cursor, seq, stats },
    check = check_checkpoint
}

fn check_checkpoint(c: &FtlCheckpoint) -> Result<(), DecodeError> {
    let g = c.config.geometry;
    let dies = g.total_dies() as usize;
    ensure(
        c.l2p.len() as u64 == c.config.effective_logical_pages(),
        "FtlCheckpoint.l2p",
    )?;
    ensure(c.p2l.len() == g.total_pages() as usize, "FtlCheckpoint.p2l")?;
    ensure(
        c.blocks.len() == g.total_blocks() as usize,
        "FtlCheckpoint.blocks",
    )?;
    ensure(
        c.free.len() == dies && c.open_host.len() == dies && c.open_gc.len() == dies,
        "FtlCheckpoint per-die tables",
    )?;
    // Every mapped entry must index the opposite map (`u64::MAX` =
    // unmapped), or restoring would panic at the first lookup.
    let in_range =
        |map: &[u64], bound: usize| map.iter().all(|&e| e == u64::MAX || e < bound as u64);
    ensure(in_range(&c.l2p, c.p2l.len()), "FtlCheckpoint.l2p entry")?;
    ensure(in_range(&c.p2l, c.l2p.len()), "FtlCheckpoint.p2l entry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ftl;
    use uc_flash::{FlashGeometry, FlashTiming};
    use uc_sim::SimTime;

    fn busy_ftl() -> Ftl {
        let geometry = FlashGeometry::new(2, 2, 1, 16, 32, 4096).unwrap();
        let mut ftl =
            Ftl::new(FtlConfig::new(geometry, FlashTiming::slc()).with_over_provisioning(0.12));
        let pages = ftl.logical_pages();
        let mut now = SimTime::ZERO;
        let mut state = 3u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            now = ftl.write_page(now, state % pages);
        }
        ftl
    }

    #[test]
    fn checkpoint_round_trips_after_gc_activity() {
        let ftl = busy_ftl();
        let checkpoint = ftl.checkpoint();
        assert!(checkpoint.stats.gc_invocations > 0, "exercise GC state");
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = FtlCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, checkpoint);
        // The decoded checkpoint restores into a working FTL.
        let restored = Ftl::restore(back);
        assert_eq!(restored.stats(), ftl.stats());
    }

    #[test]
    fn mismatched_tables_are_rejected() {
        let mut checkpoint = busy_ftl().checkpoint();
        checkpoint.blocks.pop();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            FtlCheckpoint::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "FtlCheckpoint.blocks"
            })
        );
    }

    #[test]
    fn shortened_l2p_is_rejected() {
        // A CRC-valid but shortened logical map must fail at decode time,
        // not panic later inside `Ftl::write_page`.
        let mut checkpoint = busy_ftl().checkpoint();
        checkpoint.l2p.pop();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            FtlCheckpoint::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "FtlCheckpoint.l2p"
            })
        );
    }

    #[test]
    fn out_of_range_map_entries_are_rejected() {
        // A CRC-valid map entry that points past the opposite map must fail
        // at decode time, not panic (or truncate) inside the FTL.
        let base = busy_ftl().checkpoint();
        let physical = base.p2l.len() as u64;
        let logical = base.l2p.len() as u64;
        for (l2p, value) in [
            (true, physical),
            (true, u64::MAX - 1),
            (false, logical),
            (false, 1 << 32),
        ] {
            let mut checkpoint = base.clone();
            let (map, what) = if l2p {
                (&mut checkpoint.l2p, "FtlCheckpoint.l2p entry")
            } else {
                (&mut checkpoint.p2l, "FtlCheckpoint.p2l entry")
            };
            map[1] = value;
            let mut w = Encoder::new();
            checkpoint.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                FtlCheckpoint::decode(&mut Decoder::new(&bytes)),
                Err(DecodeError::InvalidValue { what }),
                "{what} = {value}"
            );
        }
        // The largest in-range entries and the unmapped marker still decode.
        let mut checkpoint = base;
        checkpoint.l2p[1] = physical - 1;
        checkpoint.p2l[1] = logical - 1;
        checkpoint.l2p[2] = u64::MAX;
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(FtlCheckpoint::decode(&mut Decoder::new(&bytes)).is_ok());
    }

    #[test]
    fn effective_logical_pages_matches_built_ftl() {
        for (op, trigger, target) in [(0.12, 4, 6), (0.0, 1, 1), (0.3, 8, 20)] {
            let geometry = FlashGeometry::new(2, 2, 1, 32, 32, 4096).unwrap();
            let config = FtlConfig::new(geometry, FlashTiming::slc())
                .with_over_provisioning(op)
                .with_gc_watermarks(trigger, target);
            let ftl = Ftl::new(config);
            assert_eq!(
                config.effective_logical_pages(),
                ftl.logical_pages(),
                "op={op} trigger={trigger} target={target}"
            );
        }
    }

    #[test]
    fn gc_policy_tags_round_trip() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
            let mut w = Encoder::new();
            policy.encode(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(GcPolicy::decode(&mut Decoder::new(&bytes)), Ok(policy));
        }
        assert_eq!(
            GcPolicy::decode(&mut Decoder::new(&[9])),
            Err(DecodeError::InvalidValue {
                what: "GcPolicy tag"
            })
        );
    }
}
