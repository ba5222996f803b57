//! Disaggregated storage cluster model.
//!
//! In elastic block storage "the physical storage space of an ESSD is
//! distributed and replicated (e.g., three-way) across different nodes and
//! SSDs in the storage cluster" (paper §II-C, Figure 1). This crate models
//! that backend:
//!
//! * [`ChunkMap`] — deterministic striping of the virtual address space
//!   into fixed-size chunks, each placed on `replication` distinct nodes,
//! * [`StorageNode`] — a storage server: per-chunk service lanes (the
//!   serialization that caps a *single sequential stream*, Observation 3),
//!   a staging/NVRAM write ack path (why backend GC stays invisible,
//!   Observation 2), and a large flash pool for reads,
//! * [`Cluster`] — fans writes out to all replicas (completion = slowest
//!   replica) and reads from one replica.
//!
//! # Example
//!
//! ```
//! use uc_cluster::{Cluster, ClusterConfig};
//! use uc_sim::{SimRng, SimTime};
//!
//! let mut cluster = Cluster::new(ClusterConfig::small(1 << 30));
//! let mut rng = SimRng::new(1);
//! let ack = cluster.write(SimTime::ZERO, 0, 4096, &mut rng);
//! let data = cluster.read(ack, 0, 4096, &mut rng);
//! assert!(data > ack);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod map;
mod node;
mod persist;

pub use map::ChunkMap;
pub use node::{NodeConfig, NodeStats, StorageNode};

use uc_sim::{SimRng, SimTime};

/// Parameters of a [`Cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Copies of each chunk (the paper cites three-way replication).
    pub replication: usize,
    /// Striping granularity in bytes.
    pub chunk_bytes: u64,
    /// Virtual capacity served by this cluster, in bytes.
    pub capacity: u64,
    /// Per-node service parameters.
    pub node: NodeConfig,
    /// Seed for deterministic chunk placement.
    pub placement_seed: u64,
}

impl ClusterConfig {
    /// A small development cluster: 12 nodes, 3-way replication, 4 MiB
    /// chunks, default node parameters.
    pub fn small(capacity: u64) -> Self {
        ClusterConfig {
            nodes: 12,
            replication: 3,
            chunk_bytes: 4 << 20,
            capacity,
            node: NodeConfig::default(),
            placement_seed: 0xC1u64,
        }
    }

    /// Replaces the node count (minimum `replication`).
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes.max(self.replication);
        self
    }

    /// Replaces the replication factor (minimum 1; clamped to node count).
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.clamp(1, self.nodes);
        self
    }

    /// Replaces the chunk size (minimum 4 KiB).
    pub fn with_chunk_bytes(mut self, chunk_bytes: u64) -> Self {
        self.chunk_bytes = chunk_bytes.max(4096);
        self
    }

    /// Replaces the per-node parameters.
    pub fn with_node(mut self, node: NodeConfig) -> Self {
        self.node = node;
        self
    }
}

/// Per-operation accounting for a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Write fragments dispatched (after chunk splitting).
    pub write_fragments: u64,
    /// Read fragments dispatched.
    pub read_fragments: u64,
    /// Bytes written (pre-replication).
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

/// The storage backend of an elastic SSD.
///
/// See the crate docs for the model; constructed from a [`ClusterConfig`],
/// driven by `uc-essd`. A fragment past the configured capacity panics.
#[derive(Debug, Clone)]
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    /// Placement is a pure function of the configuration (and its
    /// placement seed), so the durable form does not carry it.
    pub(crate) map: ChunkMap,
    pub(crate) nodes: Vec<StorageNode>,
    /// The chunk-lane table as busy-until nanoseconds, lane
    /// `chunk * replication + i` for the chunk's `i`-th replica: empty
    /// before the first fragment, then `ceil(capacity / chunk_bytes) *
    /// replication` lanes, allocated idle at once.
    pub(crate) lanes: Vec<u64>,
    pub(crate) stats: ClusterStats,
}

/// Length of the chunk-lane table of `config`, `ceil(capacity /
/// chunk_bytes) * replication`, or `None` if it overflows.
fn lane_count(config: &ClusterConfig) -> Option<usize> {
    let chunks = usize::try_from(config.capacity.div_ceil(config.chunk_bytes)).ok()?;
    chunks.checked_mul(config.replication)
}

/// The replica lanes of `chunk`, allocating the table at the first
/// fragment.
fn chunk_lanes<'a>(lanes: &'a mut Vec<u64>, config: &ClusterConfig, chunk: u64) -> &'a mut [u64] {
    if lanes.is_empty() {
        *lanes = vec![0; lane_count(config).expect("lane table overflows")];
    }
    let first = chunk as usize * config.replication;
    &mut lanes[first..first + config.replication]
}

// Parallel experiment cells hand freshly built ESSDs — and therefore
// their backend clusters — to worker threads, so the whole backend must
// stay `Send` (no interior shared state).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Cluster>()
};

impl Cluster {
    /// Builds an idle cluster.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `replication == 0` (the `with_*` builders
    /// keep configurations valid; this guards hand-rolled ones).
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "cluster needs at least one node");
        assert!(
            (1..=config.nodes).contains(&config.replication),
            "replication must be in [1, nodes]"
        );
        let map = ChunkMap::new(
            config.chunk_bytes,
            config.nodes,
            config.replication,
            config.placement_seed,
        );
        let nodes = (0..config.nodes)
            .map(|_| StorageNode::new(config.node.clone()))
            .collect();
        Cluster {
            map,
            nodes,
            lanes: Vec::new(),
            stats: ClusterStats::default(),
            config,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Operation counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Per-node statistics, indexed by node id.
    pub fn node_stats(&self) -> Vec<NodeStats> {
        self.nodes.iter().map(|n| n.stats()).collect()
    }

    /// Writes `len` bytes at `offset`, arriving at the cluster at `now`.
    ///
    /// The request is split at chunk boundaries; each fragment is sent to
    /// every replica of its chunk and acknowledges when the slowest replica
    /// has staged it. Returns the final acknowledgement instant.
    pub fn write(&mut self, now: SimTime, offset: u64, len: u32, rng: &mut SimRng) -> SimTime {
        let mut done = now;
        self.stats.bytes_written += len as u64;
        for (chunk, frag_len) in self.map.fragments(offset, len) {
            self.stats.write_fragments += 1;
            let lanes = chunk_lanes(&mut self.lanes, &self.config, chunk);
            for ((i, node), lane) in self.map.replicas(chunk).enumerate().zip(lanes) {
                // Non-primary replicas see one extra backend hop.
                let arrival = if i == 0 {
                    now
                } else {
                    now + self.config.node.replica_hop.sample(rng)
                };
                let ack = self.nodes[node].write(arrival, lane, frag_len, rng);
                done = done.max(ack);
            }
        }
        done
    }

    /// Reads `len` bytes at `offset`, arriving at the cluster at `now`.
    ///
    /// Each fragment is served by one replica of its chunk, chosen
    /// uniformly at random (load spreading). Returns when the last
    /// fragment's data is ready to return to the VM.
    pub fn read(&mut self, now: SimTime, offset: u64, len: u32, rng: &mut SimRng) -> SimTime {
        let mut done = now;
        self.stats.bytes_read += len as u64;
        for (chunk, frag_len) in self.map.fragments(offset, len) {
            self.stats.read_fragments += 1;
            let mut replicas = self.map.replicas(chunk);
            let i = rng.index(replicas.len());
            let node = replicas.nth(i).expect("index is below the replica count");
            let lane = &mut chunk_lanes(&mut self.lanes, &self.config, chunk)[i];
            let ready = self.nodes[node].read(now, lane, frag_len, rng);
            done = done.max(ready);
        }
        done
    }
}

/// Whether `lanes` is empty or exactly as long as `config`'s table.
fn lanes_fit(config: &ClusterConfig, lanes: &[u64]) -> bool {
    lanes.is_empty() || lane_count(config) == Some(lanes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;
    use uc_sim::SimDuration;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(1 << 30))
    }

    #[test]
    fn write_slower_than_nothing_read_after_write() {
        let mut c = cluster();
        let mut rng = SimRng::new(2);
        let ack = c.write(SimTime::ZERO, 4096, 4096, &mut rng);
        assert!(ack > SimTime::ZERO);
        let read = c.read(ack, 4096, 4096, &mut rng);
        assert!(read > ack);
        let s = c.stats();
        assert_eq!(s.write_fragments, 1);
        assert_eq!(s.read_fragments, 1);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.bytes_read, 4096);
    }

    #[test]
    fn replication_touches_distinct_nodes() {
        let mut c = cluster();
        let mut rng = SimRng::new(3);
        c.write(SimTime::ZERO, 0, 4096, &mut rng);
        let busy: usize = c.node_stats().iter().filter(|s| s.writes > 0).count();
        assert_eq!(busy, 3, "3-way replication must hit 3 distinct nodes");
    }

    #[test]
    fn requests_split_at_chunk_boundaries() {
        let cfg = ClusterConfig::small(1 << 30).with_chunk_bytes(64 << 10);
        let mut c = Cluster::new(cfg);
        let mut rng = SimRng::new(4);
        // 128 KiB spanning a 64 KiB boundary: 3 fragments.
        c.write(SimTime::ZERO, 32 << 10, 128 << 10, &mut rng);
        assert_eq!(c.stats().write_fragments, 3);
    }

    #[test]
    fn sequential_stream_is_chunk_serialized() {
        // Writes inside one chunk serialize on the chunk lane; writes to
        // different chunks proceed in parallel.
        let cfg = ClusterConfig::small(1 << 30).with_chunk_bytes(1 << 20);
        let mut c = Cluster::new(cfg);
        let mut rng = SimRng::new(5);
        let same_a = c.write(SimTime::ZERO, 0, 256 << 10, &mut rng);
        let same_b = c.write(SimTime::ZERO, 256 << 10, 256 << 10, &mut rng);
        assert!(same_b > same_a, "same chunk: serialized");

        let mut c2 = Cluster::new(ClusterConfig::small(1 << 30).with_chunk_bytes(1 << 20));
        let far_a = c2.write(SimTime::ZERO, 0, 256 << 10, &mut rng);
        let far_b = c2.write(SimTime::ZERO, 13 << 20, 256 << 10, &mut rng);
        // Different chunks usually land on disjoint lanes; allow equality
        // when replica sets overlap on a node's flash pool.
        assert!(far_b <= same_b.max(far_a.max(far_b)));
        assert!(
            far_b < same_b || far_a == far_b,
            "cross-chunk writes should not serialize like same-chunk writes"
        );
    }

    #[test]
    fn read_replica_spreading() {
        let mut c = cluster();
        let mut rng = SimRng::new(6);
        for _ in 0..64 {
            c.read(SimTime::ZERO, 0, 4096, &mut rng);
        }
        let readers = c.node_stats().iter().filter(|s| s.reads > 0).count();
        assert!(
            (2..=3).contains(&readers),
            "reads of one chunk should spread over its replicas, got {readers}"
        );
    }

    #[test]
    fn staged_writes_ack_faster_than_flash_reads() {
        let mut c = cluster();
        let mut rng = SimRng::new(7);
        let base = SimTime::ZERO + SimDuration::from_secs(1);
        let w = c.write(base, 0, 4096, &mut rng) - base;
        let r = c.read(base, 1 << 20, 4096, &mut rng) - base;
        assert!(w < r, "staged write ack ({w}) should beat flash read ({r})");
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut a = cluster();
        let mut rng = SimRng::new(11);
        for i in 0..16u64 {
            a.write(SimTime::ZERO, i * (8 << 20), 64 << 10, &mut rng);
        }
        let snap = a.to_bytes();
        let mut b = Cluster::from_bytes(&snap).unwrap();
        assert_eq!(b.to_bytes(), snap, "round trip is lossless");
        let mut rng_b = rng.clone();
        for i in 0..16u64 {
            let off = (i * 3) % 200 * (1 << 20);
            assert_eq!(
                a.write(SimTime::ZERO, off, 128 << 10, &mut rng),
                b.write(SimTime::ZERO, off, 128 << 10, &mut rng_b)
            );
            assert_eq!(
                a.read(SimTime::ZERO, off, 4096, &mut rng),
                b.read(SimTime::ZERO, off, 4096, &mut rng_b)
            );
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.node_stats(), b.node_stats());
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn invalid_replication_rejected() {
        let mut cfg = ClusterConfig::small(1 << 30);
        cfg.replication = 99;
        let _ = Cluster::new(cfg);
    }
}
