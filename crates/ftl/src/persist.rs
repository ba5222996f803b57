//! [`Persist`] codecs for the FTL's state.
//!
//! An [`Ftl`] is the largest leaf of a device checkpoint — the full
//! logical↔physical mapping plus per-block bookkeeping — so its wire
//! form is a straight field-by-field dump of the live FTL. The two maps
//! are [`PageMap`](crate::PageMap)s, written as they are held: one `u32`
//! per entry. The structural invariants the FTL relies on (map and
//! block-table lengths matching the geometry, every mapped entry inside
//! the opposite map) are validated on decode, so corrupted bytes surface
//! as typed errors. The configuration is used verbatim: it was sanitized
//! when the original FTL was built.

use crate::{BlockState, Ftl, FtlConfig, FtlStats, GcPolicy};
use uc_persist::{ensure, persist_enum, persist_struct, DecodeError, Decoder, Encoder, Persist};

persist_enum! { GcPolicy { 0 = Greedy, 1 = CostBenefit, 2 = Fifo } }

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

/// Every field but the armed test fault, which a decoded FTL never has.
impl Persist for Ftl {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.flash.encode(w);
        self.l2p.encode(w);
        self.p2l.encode(w);
        self.blocks.encode(w);
        self.free.encode(w);
        self.open_host.encode(w);
        self.open_gc.encode(w);
        self.cursor.encode(w);
        self.seq.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let ftl = Ftl {
            config: Persist::decode(r)?,
            flash: Persist::decode(r)?,
            l2p: Persist::decode(r)?,
            p2l: Persist::decode(r)?,
            blocks: Persist::decode(r)?,
            free: Persist::decode(r)?,
            open_host: Persist::decode(r)?,
            open_gc: Persist::decode(r)?,
            cursor: Persist::decode(r)?,
            seq: Persist::decode(r)?,
            stats: Persist::decode(r)?,
            #[cfg(feature = "fault-injection")]
            armed_fault: None,
        };
        check_checkpoint(&ftl)?;
        Ok(ftl)
    }
}

fn check_checkpoint(c: &Ftl) -> Result<(), DecodeError> {
    let g = c.config.geometry;
    let dies = g.total_dies() as usize;
    ensure(
        c.l2p.len() == c.config.effective_logical_pages(),
        "FtlCheckpoint.l2p",
    )?;
    ensure(c.p2l.len() == g.total_pages(), "FtlCheckpoint.p2l")?;
    ensure(
        c.blocks.len() == g.total_blocks() as usize,
        "FtlCheckpoint.blocks",
    )?;
    ensure(
        c.free.len() == dies && c.open_host.len() == dies && c.open_gc.len() == dies,
        "FtlCheckpoint per-die tables",
    )?;
    // Every mapped entry must index the opposite map, or restoring would
    // panic at the first lookup.
    ensure(c.l2p.all_below(c.p2l.len()), "FtlCheckpoint.l2p entry")?;
    ensure(c.p2l.all_below(c.l2p.len()), "FtlCheckpoint.p2l entry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PageMap;
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
        assert!(ftl.stats.gc_invocations > 0, "exercise GC state");
        let bytes = ftl.to_bytes();
        let restored = Ftl::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
        // The decoded checkpoint is a working FTL.
        assert_eq!(restored.stats(), ftl.stats());
    }

    /// Pins the exact bytes of a checkpoint taken after GC, whose `p2l`
    /// holds stale (unmapped) entries among mapped ones. Moving them
    /// changes the SSD checkpoint format.
    #[test]
    fn checkpoint_bytes_after_gc_are_pinned() {
        let checkpoint = busy_ftl();
        assert!(checkpoint.stats.gc_invocations > 0, "exercise GC state");
        let stale: u64 = checkpoint
            .blocks
            .iter()
            .map(|b| u64::from(b.written - b.valid))
            .sum();
        assert!(stale > 0, "exercise stale p2l entries");
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.as_bytes();
        assert_eq!(
            (bytes.len(), uc_persist::crc32(bytes)),
            (14_037, 0xc603_73e1)
        );
    }

    #[test]
    fn mismatched_tables_are_rejected() {
        let mut checkpoint = busy_ftl();
        checkpoint.blocks.pop();
        let bytes = checkpoint.to_bytes();
        assert_eq!(
            decode_err(&bytes),
            Err(DecodeError::InvalidValue {
                what: "FtlCheckpoint.blocks"
            })
        );
    }

    /// Decodes `bytes` as an FTL, keeping only the error.
    fn decode_err(bytes: &[u8]) -> Result<(), DecodeError> {
        Ftl::from_bytes(bytes).map(drop)
    }

    /// A map's entries in their stored form, `page + 1` (0 = none).
    fn stored(map: &PageMap) -> Vec<u32> {
        map.iter().map(|e| e.map_or(0, entry)).collect()
    }

    /// The stored form of `page`.
    fn entry(page: u64) -> u32 {
        u32::try_from(page + 1).unwrap()
    }

    /// Encodes `c` field by field with its maps replaced by the stored
    /// entries `l2p` and `p2l`, which need not index the opposite map.
    fn encode_with_maps(c: &Ftl, l2p: &[u32], p2l: &[u32]) -> Vec<u8> {
        let mut w = Encoder::new();
        c.config.encode(&mut w);
        c.flash.encode(&mut w);
        l2p.to_vec().encode(&mut w);
        p2l.to_vec().encode(&mut w);
        c.blocks.encode(&mut w);
        c.free.encode(&mut w);
        c.open_host.encode(&mut w);
        c.open_gc.encode(&mut w);
        c.cursor.encode(&mut w);
        c.seq.encode(&mut w);
        c.stats.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn shortened_l2p_is_rejected() {
        // A CRC-valid but shortened logical map must fail at decode time,
        // not panic later inside `Ftl::write_page`.
        let checkpoint = busy_ftl();
        let mut l2p = stored(&checkpoint.l2p);
        l2p.pop();
        let bytes = encode_with_maps(&checkpoint, &l2p, &stored(&checkpoint.p2l));
        assert_eq!(
            decode_err(&bytes),
            Err(DecodeError::InvalidValue {
                what: "FtlCheckpoint.l2p"
            })
        );
    }

    #[test]
    fn out_of_range_map_entries_are_rejected() {
        // A CRC-valid map entry that points past the opposite map must fail
        // at decode time, not panic inside the FTL.
        let base = busy_ftl();
        let (l2p, p2l) = (stored(&base.l2p), stored(&base.p2l));
        assert_eq!(
            encode_with_maps(&base, &l2p, &p2l),
            base.to_bytes(),
            "the stored maps are the durable form"
        );
        let physical = base.p2l.len();
        let logical = base.l2p.len();
        // The largest page a stored entry can name.
        let max = u64::from(u32::MAX) - 1;
        for (in_l2p, page, what) in [
            (true, physical, "FtlCheckpoint.l2p entry"),
            (true, max - 1, "FtlCheckpoint.l2p entry"),
            (true, max, "FtlCheckpoint.l2p entry"),
            (false, logical, "FtlCheckpoint.p2l entry"),
            (false, max - 1, "FtlCheckpoint.p2l entry"),
            (false, max, "FtlCheckpoint.p2l entry"),
        ] {
            let (mut l2p, mut p2l) = (l2p.clone(), p2l.clone());
            if in_l2p {
                l2p[1] = entry(page);
            } else {
                p2l[1] = entry(page);
            }
            let bytes = encode_with_maps(&base, &l2p, &p2l);
            assert_eq!(
                decode_err(&bytes),
                Err(DecodeError::InvalidValue { what }),
                "{} page = {page}",
                if in_l2p { "l2p" } else { "p2l" }
            );
        }
        // The largest in-range entries and the unmapped marker still decode.
        let (mut l2p, mut p2l) = (l2p, p2l);
        l2p[1] = entry(physical - 1);
        p2l[1] = entry(logical - 1);
        l2p[2] = 0;
        let bytes = encode_with_maps(&base, &l2p, &p2l);
        assert!(Ftl::from_bytes(&bytes).is_ok());
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
