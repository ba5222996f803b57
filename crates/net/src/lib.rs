//! Datacenter network and host software-stack model.
//!
//! The paper attributes the elastic SSD's high small-I/O latency to "network
//! latency and software processing overhead within the cloud storage"
//! (§III-B). This crate models that path:
//!
//! * [`HostStack`] — the per-I/O cost of the virtualization/storage stack on
//!   the compute node (virtio/vhost queues, protocol encoding), modelled as
//!   a small worker pool with a per-I/O service distribution,
//! * [`NetPath`] — the VM-to-storage-cluster fabric: a pool of parallel
//!   connections, each serializing payload bytes at a per-stream bandwidth,
//!   plus a propagation/switching delay with configurable jitter and heavy
//!   tail (the P99.9-versus-average separation of Figure 2).
//!
//! # Example
//!
//! ```
//! use uc_net::{NetConfig, NetPath};
//! use uc_sim::{SimRng, SimTime};
//!
//! let mut path = NetPath::new(NetConfig::intra_dc());
//! let mut rng = SimRng::new(7);
//! let arrival = path.send(SimTime::ZERO, 4096, &mut rng);
//! assert!(arrival > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod persist;

use uc_sim::{LatencyDist, ParallelResource, SimDuration, SimRng, SimTime};

/// Parameters of a [`NetPath`].
///
/// # Example
///
/// ```
/// use uc_net::NetConfig;
/// use uc_sim::{LatencyDist, SimDuration};
///
/// let cfg = NetConfig::intra_dc()
///     .with_stream_bandwidth(1.0e9)
///     .with_connections(8);
/// assert_eq!(cfg.connections, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// One-way propagation + switching delay distribution.
    pub one_way: LatencyDist,
    /// Per-connection stream bandwidth in bytes/second.
    pub stream_bytes_per_sec: f64,
    /// Parallel connections available in each direction.
    pub connections: usize,
}

impl NetConfig {
    /// A typical intra-datacenter path: ~50 µs one-way median with
    /// log-normal jitter and a rare multi-millisecond tail, 1 GB/s per
    /// stream, 16 connections.
    pub fn intra_dc() -> Self {
        NetConfig {
            one_way: LatencyDist::lognormal(SimDuration::from_micros(50), 0.25).with_tail(
                LatencyDist::bounded_pareto(
                    SimDuration::from_micros(500),
                    1.2,
                    SimDuration::from_millis(5),
                ),
                0.001,
            ),
            stream_bytes_per_sec: 1.0e9,
            connections: 16,
        }
    }

    /// Replaces the one-way delay distribution.
    pub fn with_one_way(mut self, dist: LatencyDist) -> Self {
        self.one_way = dist;
        self
    }

    /// Replaces the per-stream bandwidth.
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

    /// Replaces the connection count (minimum 1).
    pub fn with_connections(mut self, connections: usize) -> Self {
        self.connections = connections.max(1);
        self
    }
}

/// One direction of a VM-to-cluster network path.
///
/// Transfers pick the earliest-free connection, serialize their bytes on it
/// at the per-stream bandwidth, then experience the one-way delay sample.
/// Aggregate bandwidth is therefore `connections × stream_bandwidth`, while
/// a single large transfer is bounded by one stream — exactly the behaviour
/// that makes a lone sequential stream unable to saturate an elastic SSD's
/// budget (Observation 3).
#[derive(Debug, Clone)]
pub struct NetPath {
    config: NetConfig,
    /// Per-connection busy-until timelines.
    lanes: ParallelResource,
}

impl NetPath {
    /// An idle path with the given configuration.
    pub fn new(config: NetConfig) -> Self {
        NetPath {
            lanes: ParallelResource::new(config.connections),
            config,
        }
    }

    /// The path configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Transfers `bytes` starting no earlier than `now`; returns the
    /// arrival instant at the far end.
    pub fn send(&mut self, now: SimTime, bytes: u64, rng: &mut SimRng) -> SimTime {
        let xfer = SimDuration::from_secs_f64(bytes as f64 / self.config.stream_bytes_per_sec);
        let (_, pushed) = self.lanes.acquire(now, xfer);
        pushed + self.config.one_way.sample(rng)
    }
}

/// The host-side storage software stack (virtio/vhost, protocol encoding).
///
/// A small worker pool with a per-I/O service-time distribution: enough
/// parallelism that moderate queue depths do not serialize (matching the
/// paper's flat ESSD latency versus queue depth), but a real per-I/O cost
/// that larger-scale deployments amortize.
#[derive(Debug, Clone)]
pub struct HostStack {
    /// The per-I/O service-time distribution.
    per_io: LatencyDist,
    /// Worker-pool busy-until timelines.
    workers: ParallelResource,
}

impl HostStack {
    /// A stack with `workers` parallel contexts and the given per-I/O cost.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize, per_io: LatencyDist) -> Self {
        HostStack {
            per_io,
            workers: ParallelResource::new(workers),
        }
    }

    /// Processes one I/O submission; returns when the stack hands it to the
    /// network.
    pub fn process(&mut self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let cost = self.per_io.sample(rng);
        self.workers.acquire(now, cost).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    fn fixed_config(one_way_us: u64) -> NetConfig {
        NetConfig::intra_dc()
            .with_one_way(LatencyDist::constant(SimDuration::from_micros(one_way_us)))
            .with_stream_bandwidth(1.0e9)
            .with_connections(2)
    }

    #[test]
    fn send_costs_transfer_plus_delay() {
        let mut path = NetPath::new(fixed_config(100));
        let mut rng = SimRng::new(1);
        let arrival = path.send(SimTime::ZERO, 1_000_000, &mut rng);
        // 1 MB at 1 GB/s = 1 ms, plus 100 us one-way.
        let expect = SimTime::ZERO + SimDuration::from_millis(1) + SimDuration::from_micros(100);
        assert_eq!(arrival, expect);
    }

    #[test]
    fn connections_parallelize_up_to_pool_size() {
        let mut path = NetPath::new(fixed_config(0));
        let mut rng = SimRng::new(1);
        let a = path.send(SimTime::ZERO, 1_000_000, &mut rng);
        let b = path.send(SimTime::ZERO, 1_000_000, &mut rng);
        let c = path.send(SimTime::ZERO, 1_000_000, &mut rng);
        assert_eq!(a, b, "two lanes run in parallel");
        assert!(c > a, "third transfer queues");
    }

    #[test]
    fn single_stream_is_bandwidth_bound() {
        let mut path = NetPath::new(fixed_config(0).with_connections(16));
        let mut rng = SimRng::new(1);
        // One big transfer cannot use more than one lane.
        let arrival = path.send(SimTime::ZERO, 16_000_000, &mut rng);
        assert_eq!(arrival, SimTime::ZERO + SimDuration::from_millis(16));
    }

    #[test]
    fn jittered_delay_varies() {
        let mut path = NetPath::new(NetConfig::intra_dc().with_connections(1));
        let mut rng = SimRng::new(3);
        let mut arrivals = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..32 {
            let a = path.send(now, 0, &mut rng);
            arrivals.push((a - now).as_nanos());
            now = a;
        }
        let first = arrivals[0];
        assert!(
            arrivals.iter().any(|&d| d != first),
            "lognormal jitter should vary"
        );
    }

    #[test]
    fn host_stack_parallelism() {
        let mut stack = HostStack::new(2, LatencyDist::constant(SimDuration::from_micros(10)));
        let mut rng = SimRng::new(1);
        let a = stack.process(SimTime::ZERO, &mut rng);
        let b = stack.process(SimTime::ZERO, &mut rng);
        let c = stack.process(SimTime::ZERO, &mut rng);
        assert_eq!(a, b);
        assert_eq!(c, a + SimDuration::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        let _ = NetConfig::intra_dc().with_stream_bandwidth(0.0);
    }

    #[test]
    fn snapshot_restore_resumes_path_and_stack() {
        let mut rng = SimRng::new(9);
        let mut path = NetPath::new(NetConfig::intra_dc().with_connections(2));
        path.send(SimTime::ZERO, 1_000_000, &mut rng);
        let snap = path.to_bytes();
        let mut resumed = NetPath::from_bytes(&snap).unwrap();
        assert_eq!(resumed.to_bytes(), snap, "round trip is lossless");
        let mut rng2 = rng.clone();
        assert_eq!(
            path.send(SimTime::ZERO, 500_000, &mut rng),
            resumed.send(SimTime::ZERO, 500_000, &mut rng2)
        );

        let mut stack = HostStack::new(2, LatencyDist::constant(SimDuration::from_micros(10)));
        stack.process(SimTime::ZERO, &mut rng);
        let mut resumed = HostStack::from_bytes(&stack.to_bytes()).unwrap();
        let mut rng2 = rng.clone();
        assert_eq!(
            stack.process(SimTime::ZERO, &mut rng),
            resumed.process(SimTime::ZERO, &mut rng2)
        );
    }
}
