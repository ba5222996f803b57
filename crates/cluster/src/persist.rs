//! [`Persist`] codecs for the storage cluster's state.
//!
//! The chunk map is not serialized: placement is a pure function of the
//! configuration (including its placement seed), so decoding rebuilds it
//! deterministically. Neither is each node's copy of the node
//! parameters, which the cluster's configuration carries once — the
//! on-disk form only carries what cannot be recomputed.

use crate::{
    lanes_fit, ChunkMap, Cluster, ClusterConfig, ClusterStats, NodeConfig, NodeStats, StorageNode,
};
use uc_flash::DiePool;
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};

persist_struct! {
    NodeConfig {
        lane_header, per_io, stream_bytes_per_sec, staged_ack, replica_hop, flash_dies,
        flash_timing, flash_page
    },
    check = check_node
}
persist_struct! { NodeStats { writes, reads, bytes_written, bytes_read } }
persist_struct! {
    ClusterConfig { nodes, replication, chunk_bytes, capacity, node, placement_seed },
    check = check_config
}
persist_struct! { ClusterStats { write_fragments, read_fragments, bytes_written, bytes_read } }

/// The configuration, each node's flash pool and counters, the lane
/// table and the counters.
impl Persist for Cluster {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        w.put_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            node.flash.encode(w);
            node.stats.encode(w);
        }
        self.lanes.encode(w);
        self.stats.encode(w);
    }

    /// Fails typed where a mismatched node count or lane table would
    /// panic later.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = ClusterConfig::decode(r)?;
        let nodes: Vec<(DiePool, NodeStats)> = Vec::decode(r)?;
        let lanes: Vec<u64> = Vec::decode(r)?;
        let stats = ClusterStats::decode(r)?;
        ensure(nodes.len() == config.nodes, "ClusterSnapshot.nodes")?;
        ensure(lanes_fit(&config, &lanes), "ClusterSnapshot.lanes")?;
        Ok(Cluster {
            map: ChunkMap::new(
                config.chunk_bytes,
                config.nodes,
                config.replication,
                config.placement_seed,
            ),
            nodes: nodes
                .into_iter()
                .map(|(flash, stats)| StorageNode {
                    config: config.node.clone(),
                    flash,
                    stats,
                })
                .collect(),
            lanes,
            stats,
            config,
        })
    }
}

fn check_node(c: &NodeConfig) -> Result<(), DecodeError> {
    ensure(
        c.stream_bytes_per_sec > 0.0 && c.stream_bytes_per_sec.is_finite(),
        "NodeConfig.stream_bytes_per_sec",
    )?;
    ensure(c.flash_dies != 0, "NodeConfig.flash_dies")
}

/// `Cluster::new` and the chunk map assert these; reject here instead.
fn check_config(c: &ClusterConfig) -> Result<(), DecodeError> {
    ensure(
        c.nodes != 0 && (1..=c.nodes).contains(&c.replication),
        "ClusterConfig.replication",
    )?;
    ensure(c.chunk_bytes != 0, "ClusterConfig.chunk_bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Decodes `bytes` as a cluster, keeping only the error.
    fn decode_err(bytes: &[u8]) -> Result<(), DecodeError> {
        Cluster::from_bytes(bytes).map(drop)
    }

    #[test]
    fn busy_cluster_round_trips_and_restores() {
        let cluster = busy_cluster();
        let bytes = cluster.to_bytes();
        let restored = Cluster::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);
        assert_eq!(restored.stats(), cluster.stats());
        assert_eq!(restored.node_stats(), cluster.node_stats());
    }

    #[test]
    fn fresh_cluster_has_an_empty_lane_table_that_round_trips() {
        let fresh = Cluster::new(ClusterConfig::small(1 << 30));
        assert!(fresh.lanes.is_empty(), "no lane before the first fragment");
        let bytes = fresh.to_bytes();
        let back = Cluster::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        // The decoded cluster allocates its table at its first fragment
        // and then schedules exactly as the original does.
        let (mut a, mut b) = (fresh, back);
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
        assert_eq!(b.lanes.len(), 256 * 3);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn lane_table_of_the_wrong_length_is_typed() {
        // The cluster's fields, encoded directly with one lane short.
        let cluster = busy_cluster();
        let mut w = Encoder::new();
        cluster.config.encode(&mut w);
        w.put_u64(cluster.nodes.len() as u64);
        for node in &cluster.nodes {
            node.flash.encode(&mut w);
            node.stats.encode(&mut w);
        }
        cluster.lanes[1..].to_vec().encode(&mut w);
        cluster.stats.encode(&mut w);
        assert_eq!(
            decode_err(w.as_bytes()),
            Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.lanes"
            })
        );
    }

    #[test]
    fn node_count_mismatch_is_typed() {
        let mut cluster = busy_cluster();
        cluster.nodes.pop();
        assert_eq!(
            decode_err(&cluster.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "ClusterSnapshot.nodes"
            })
        );
    }

    #[test]
    fn invalid_replication_is_typed() {
        let mut cluster = busy_cluster();
        cluster.config.replication = 0;
        assert_eq!(
            decode_err(&cluster.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "ClusterConfig.replication"
            })
        );
    }
}
