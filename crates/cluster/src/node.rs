//! Storage node service model.

use uc_flash::{DiePool, FlashTiming};
use uc_sim::{LatencyDist, SimDuration, SimRng, SimTime};

/// Parameters of a [`StorageNode`].
///
/// The two cost knobs that shape the paper's observations:
///
/// * `stream_bytes_per_sec` — each *chunk* is served by one lane at this
///   bandwidth, so a single sequential stream cannot exceed it no matter
///   the tenant's budget (Observation 3),
/// * `staged_ack` — writes acknowledge from NVRAM/DRAM staging; flash
///   programs (and any backend GC they imply) happen off the critical
///   path, which is why device-side GC never surfaces to the tenant
///   (Observation 2).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Serialized per-fragment cost on the chunk lane (request framing);
    /// together with the lane transfer time this sets the per-chunk
    /// operation rate.
    pub lane_header: LatencyDist,
    /// Per-fragment processing latency off the serial path (index lookup,
    /// checksums) — adds latency but not chunk-lane occupancy.
    pub per_io: LatencyDist,
    /// Per-chunk service bandwidth in bytes/second.
    pub stream_bytes_per_sec: f64,
    /// Extra latency of the staging/NVRAM acknowledgement for writes.
    pub staged_ack: LatencyDist,
    /// One backend-fabric hop, paid by non-primary replicas.
    pub replica_hop: LatencyDist,
    /// Flash dies in the node's read pool.
    pub flash_dies: usize,
    /// NAND timing of the node's drives.
    pub flash_timing: FlashTiming,
    /// Flash page size in bytes.
    pub flash_page: u32,
}

impl Default for NodeConfig {
    /// A mid-range storage server: 25 µs per-fragment cost, 1 GB/s chunk
    /// lanes, 15 µs staged acks, 64-die flash pool with MLC timing.
    fn default() -> Self {
        NodeConfig {
            lane_header: LatencyDist::normal(
                SimDuration::from_micros(5),
                SimDuration::from_nanos(500),
            ),
            per_io: LatencyDist::normal(SimDuration::from_micros(25), SimDuration::from_micros(3)),
            stream_bytes_per_sec: 1.0e9,
            staged_ack: LatencyDist::normal(
                SimDuration::from_micros(15),
                SimDuration::from_micros(2),
            ),
            replica_hop: LatencyDist::normal(
                SimDuration::from_micros(20),
                SimDuration::from_micros(3),
            ),
            flash_dies: 64,
            flash_timing: FlashTiming::mlc(),
            flash_page: 4096,
        }
    }
}

impl NodeConfig {
    /// Replaces the per-chunk stream bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive and finite.
    pub fn with_stream_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "stream bandwidth must be positive"
        );
        self.stream_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Replaces the off-lane per-fragment processing latency.
    pub fn with_per_io(mut self, dist: LatencyDist) -> Self {
        self.per_io = dist;
        self
    }

    /// Replaces the serialized lane header cost.
    pub fn with_lane_header(mut self, dist: LatencyDist) -> Self {
        self.lane_header = dist;
        self
    }

    /// Replaces the flash pool (die count and timing).
    pub fn with_flash(mut self, dies: usize, timing: FlashTiming, page: u32) -> Self {
        self.flash_dies = dies.max(1);
        self.flash_timing = timing;
        self.flash_page = page.max(512);
        self
    }
}

/// Cumulative counters for one [`StorageNode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Write fragments staged.
    pub writes: u64,
    /// Read fragments served.
    pub reads: u64,
    /// Bytes staged for write.
    pub bytes_written: u64,
    /// Bytes read from flash.
    pub bytes_read: u64,
}

/// One storage server in the cluster.
///
/// Serving model:
///
/// * every fragment *occupies* the lane of its chunk for
///   `lane_header + bytes/stream` — this per-chunk FIFO occupancy is what
///   caps a single sequential stream (Observation 3). A lane is one
///   chunk replica's busy-until instant in nanoseconds; the
///   [`Cluster`](crate::Cluster) owns every lane and lends each fragment
///   its own,
/// * the fragment's own completion *overlaps* the stream: a write
///   acknowledges after `lane_header + per_io + staged_ack` once its lane
///   slot starts (data is staged as it arrives); a read is ready after
///   `lane_header + per_io + flash`, with the outbound transfer charged by
///   the network layer,
/// * flash programs happen off the critical path on the node's die pool
///   and only contend with reads (Observation 2's provider-side GC
///   absorption).
#[derive(Debug, Clone)]
pub struct StorageNode {
    /// The cluster's [`ClusterConfig::node`](crate::ClusterConfig::node),
    /// which the durable form carries once for every node.
    pub(crate) config: NodeConfig,
    pub(crate) flash: DiePool,
    pub(crate) stats: NodeStats,
}

/// Occupies `lane` (a busy-until instant in ns) for `occupancy`, starting
/// no earlier than `now`; returns the start of the slot.
fn occupy(lane: &mut u64, now: SimTime, occupancy: SimDuration) -> SimTime {
    let start = now.max(SimTime::from_nanos(*lane));
    *lane = (start + occupancy).as_nanos();
    start
}

impl StorageNode {
    /// An idle node.
    pub fn new(config: NodeConfig) -> Self {
        StorageNode {
            flash: DiePool::new(config.flash_dies, config.flash_timing, config.flash_page),
            stats: NodeStats::default(),
            config,
        }
    }

    /// This node's counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Stages a write fragment of `len` bytes on its chunk's `lane`;
    /// returns the acknowledgement instant.
    pub fn write(&mut self, now: SimTime, lane: &mut u64, len: u32, rng: &mut SimRng) -> SimTime {
        let header = self.config.lane_header.sample(rng);
        let start = occupy(lane, now, header + self.transfer_time(len));
        // The ack pipelines with the inbound stream: it leaves once the
        // lane slot starts and the header + lookup are done.
        let staged = start + header + self.config.per_io.sample(rng);
        // Flash program happens asynchronously after staging; it only
        // contends with reads on the die pool, never delays the ack.
        self.flash.program(staged, len);
        self.stats.writes += 1;
        self.stats.bytes_written += len as u64;
        staged + self.config.staged_ack.sample(rng)
    }

    /// Serves a read fragment of `len` bytes on its chunk's `lane`;
    /// returns when the data is ready to start streaming back (the
    /// outbound transfer itself is the network layer's job and overlaps
    /// this).
    pub fn read(&mut self, now: SimTime, lane: &mut u64, len: u32, rng: &mut SimRng) -> SimTime {
        let header = self.config.lane_header.sample(rng);
        let start = occupy(lane, now, header + self.transfer_time(len));
        let parsed = start + header + self.config.per_io.sample(rng);
        let fetched = self.flash.read(parsed, len);
        self.stats.reads += 1;
        self.stats.bytes_read += len as u64;
        fetched
    }

    fn transfer_time(&self, len: u32) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / self.config.stream_bytes_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> StorageNode {
        StorageNode::new(NodeConfig::default())
    }

    #[test]
    fn write_ack_is_staging_fast() {
        let mut n = node();
        let mut rng = SimRng::new(1);
        let ack = n.write(SimTime::ZERO, &mut 0, 4096, &mut rng);
        let us = (ack - SimTime::ZERO).as_micros_f64();
        // per_io ~25 + transfer ~4 + ack ~15: well under one NAND program.
        assert!(us < 100.0, "staged ack took {us} us");
    }

    #[test]
    fn read_pays_flash_sense() {
        let mut n = node();
        let mut rng = SimRng::new(2);
        let done = n.read(SimTime::ZERO, &mut 0, 4096, &mut rng);
        let us = (done - SimTime::ZERO).as_micros_f64();
        assert!(us > 50.0, "flash read should cost a sense, got {us} us");
    }

    #[test]
    fn same_chunk_serializes_different_chunks_do_not() {
        let mut n = node();
        let mut rng = SimRng::new(3);
        let big = 1 << 20;
        let mut lane = 0;
        let a = n.write(SimTime::ZERO, &mut lane, big, &mut rng);
        let b = n.write(SimTime::ZERO, &mut lane, big, &mut rng);
        assert!(
            (b - SimTime::ZERO).as_secs_f64() > 1.8 * (a - SimTime::ZERO).as_secs_f64(),
            "same-chunk writes must queue"
        );
        let mut n2 = node();
        let c = n2.write(SimTime::ZERO, &mut 0, big, &mut rng);
        let d = n2.write(SimTime::ZERO, &mut 0, big, &mut rng);
        let spread = (d - SimTime::ZERO)
            .as_secs_f64()
            .max((c - SimTime::ZERO).as_secs_f64());
        assert!(
            spread < 1.5 * (c - SimTime::ZERO).as_secs_f64(),
            "different chunks should be parallel"
        );
    }

    #[test]
    fn background_programs_contend_with_reads() {
        // Saturate the die pool with staged writes, then read: the read
        // queues behind the programs.
        let cfg = NodeConfig::default().with_flash(1, FlashTiming::mlc(), 4096);
        let mut n = StorageNode::new(cfg);
        let mut rng = SimRng::new(4);
        let baseline = {
            let mut fresh =
                StorageNode::new(NodeConfig::default().with_flash(1, FlashTiming::mlc(), 4096));
            fresh.read(SimTime::ZERO, &mut 0, 4096, &mut rng) - SimTime::ZERO
        };
        for _ in 0..8 {
            n.write(SimTime::ZERO, &mut 0, 64 << 10, &mut rng);
        }
        let slowed = n.read(SimTime::ZERO, &mut 0, 4096, &mut rng) - SimTime::ZERO;
        assert!(
            slowed > baseline,
            "read behind programs ({slowed}) should exceed clean read ({baseline})"
        );
    }

    #[test]
    fn stats_track_bytes() {
        let mut n = node();
        let mut rng = SimRng::new(5);
        n.write(SimTime::ZERO, &mut 0, 4096, &mut rng);
        n.read(SimTime::ZERO, &mut 0, 8192, &mut rng);
        assert_eq!(n.stats().writes, 1);
        assert_eq!(n.stats().reads, 1);
        assert_eq!(n.stats().bytes_written, 4096);
        assert_eq!(n.stats().bytes_read, 8192);
    }
}
