//! [`Persist`] codecs for the storage-cluster snapshot types.
//!
//! The chunk map is not serialized: placement is a pure function of the
//! configuration (including its placement seed), so
//! [`Cluster::restore`](crate::Cluster::restore) rebuilds it
//! deterministically — the on-disk form only carries what cannot be
//! recomputed.

use crate::{
    ClusterConfig, ClusterSnapshot, ClusterStats, NodeConfig, NodeStats, StorageNodeSnapshot,
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
persist_struct! { StorageNodeSnapshot { config, lanes, flash, stats } }
persist_struct! {
    ClusterConfig { nodes, replication, chunk_bytes, capacity, node, placement_seed },
    check = check_config
}
persist_struct! { ClusterStats { write_fragments, read_fragments, bytes_written, bytes_read } }
persist_struct! { ClusterSnapshot { config, nodes, stats }, check = check_snapshot }

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

/// `Cluster::restore` panics on this mismatch; fail typed instead.
fn check_snapshot(s: &ClusterSnapshot) -> Result<(), DecodeError> {
    ensure(s.nodes.len() == s.config.nodes, "ClusterSnapshot.nodes")
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
