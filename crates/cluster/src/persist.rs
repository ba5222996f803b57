//! [`Persist`] codecs for the storage-cluster snapshot types.
//!
//! The chunk map is not serialized: placement is a pure function of the
//! configuration (including its placement seed), so
//! [`Cluster::restore`](crate::Cluster::restore) rebuilds it
//! deterministically — the on-disk form only carries what cannot be
//! recomputed.

use crate::{
    lanes_fit, ClusterConfig, ClusterSnapshot, ClusterStats, NodeConfig, NodeStats,
    StorageNodeSnapshot,
};
use uc_persist::{ensure, persist_struct, DecodeError};

persist_struct! {
    NodeConfig {
        lane_header, per_io, stream_bytes_per_sec, staged_ack, replica_hop, flash_dies,
        flash_timing, flash_page
    },
    check = check_node
}
persist_struct! { NodeStats { writes, reads, bytes_written, bytes_read } }
persist_struct! { StorageNodeSnapshot { flash, stats } }
persist_struct! {
    ClusterConfig { nodes, replication, chunk_bytes, capacity, node, placement_seed },
    check = check_config
}
persist_struct! { ClusterStats { write_fragments, read_fragments, bytes_written, bytes_read } }
persist_struct! { ClusterSnapshot { config, nodes, lanes, stats }, check = check_snapshot }

fn check_node(c: &NodeConfig) -> Result<(), DecodeError> {
    ensure(
        c.stream_bytes_per_sec > 0.0 && c.stream_bytes_per_sec.is_finite(),
        "NodeConfig.stream_bytes_per_sec",
    )?;
    ensure(c.flash_dies != 0, "NodeConfig.flash_dies")
}

/// `Cluster::new`/`restore` assert these; reject here instead.
fn check_config(c: &ClusterConfig) -> Result<(), DecodeError> {
    ensure(
        c.nodes != 0 && (1..=c.nodes).contains(&c.replication),
        "ClusterConfig.replication",
    )?;
    ensure(c.chunk_bytes != 0, "ClusterConfig.chunk_bytes")
}

/// `Cluster::restore` panics on these mismatches; fail typed instead.
fn check_snapshot(s: &ClusterSnapshot) -> Result<(), DecodeError> {
    ensure(s.nodes.len() == s.config.nodes, "ClusterSnapshot.nodes")?;
    ensure(lanes_fit(s), "ClusterSnapshot.lanes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use uc_persist::{Decoder, Encoder, Persist};
    use uc_sim::{SimRng, SimTime};

    fn busy_cluster() -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig::small(1 << 30));
        let mut rng = SimRng::new(11);
        for i in 0..24u64 {
            cluster.write(SimTime::ZERO, i * (8 << 20), 64 << 10, &mut rng);
            cluster.read(SimTime::ZERO, i * (4 << 20), 4096, &mut rng);
        }
        cluster
    }

    #[test]
    fn busy_cluster_round_trips_and_restores() {
        let cluster = busy_cluster();
        let snapshot = cluster.snapshot();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = ClusterSnapshot::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, snapshot);
        let restored = Cluster::restore(back);
        assert_eq!(restored.stats(), cluster.stats());
        assert_eq!(restored.node_stats(), cluster.node_stats());
    }

    #[test]
    fn fresh_cluster_has_an_empty_lane_table_that_round_trips() {
        let fresh = Cluster::new(ClusterConfig::small(1 << 30));
        let snapshot = fresh.snapshot();
        assert!(
            snapshot.lanes.is_empty(),
            "no lane before the first fragment"
        );
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        let back = ClusterSnapshot::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back, snapshot);
        // The restored cluster allocates its table at its first fragment
        // and then schedules exactly as the original does.
        let (mut a, mut b) = (fresh, Cluster::restore(back));
        let (mut ra, mut rb) = (SimRng::new(3), SimRng::new(3));
        for i in 0..8u64 {
            let off = i * (3 << 20);
            assert_eq!(
                a.write(SimTime::ZERO, off, 64 << 10, &mut ra),
                b.write(SimTime::ZERO, off, 64 << 10, &mut rb)
            );
            assert_eq!(
                a.read(SimTime::ZERO, off, 4096, &mut ra),
                b.read(SimTime::ZERO, off, 4096, &mut rb)
            );
        }
        // 1 GiB of 4 MiB chunks, 3 replicas each.
        assert_eq!(b.snapshot().lanes.len(), 256 * 3);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn lane_table_of_the_wrong_length_is_typed() {
        let mut snapshot = busy_cluster().snapshot();
        snapshot.lanes.pop();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.lanes"
            })
        );
    }

    #[test]
    fn node_count_mismatch_is_typed() {
        let mut snapshot = busy_cluster().snapshot();
        snapshot.nodes.pop();
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.nodes"
            })
        );
    }

    #[test]
    fn invalid_replication_is_typed() {
        let mut snapshot = busy_cluster().snapshot();
        snapshot.config.replication = 0;
        let mut w = Encoder::new();
        snapshot.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            ClusterSnapshot::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "ClusterConfig.replication"
            })
        );
    }
}
