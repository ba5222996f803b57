//! The assembled elastic SSD device.

use crate::EssdConfig;
use uc_blockdev::{
    BlockDevice, CheckpointDevice, CheckpointError, Completion, DeviceCheckpoint, DeviceInfo,
    IoBatch, IoError, IoKind, IoRequest, IoResult,
};
use uc_cluster::Cluster;
use uc_net::{HostStack, NetPath};
use uc_sim::{SimRng, SimTime, TokenBucket};

/// Protocol overhead bytes carried by every request/response message.
const HEADER_BYTES: u64 = 128;

/// Activity counters of an [`Essd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EssdStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// `true` once the provider throttle has engaged.
    pub throttled: bool,
}

/// A cloud elastic SSD.
///
/// Data path: host stack → budget token buckets → network (request) →
/// replicated cluster → network (response). See the crate docs for how
/// each stage maps to the paper's observations.
///
/// # Example
///
/// ```
/// use uc_blockdev::{BlockDevice, IoRequest};
/// use uc_essd::{Essd, EssdConfig};
/// use uc_sim::SimTime;
///
/// let mut essd = Essd::new(EssdConfig::alibaba_pl3(1 << 30));
/// let w = essd.submit(&IoRequest::write(0, 65536, SimTime::ZERO))?;
/// let r = essd.submit(&IoRequest::read(0, 65536, w))?;
/// assert!(r > w);
/// # Ok::<(), uc_blockdev::IoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Essd {
    pub(crate) config: EssdConfig,
    /// Derived from the configuration.
    pub(crate) info: DeviceInfo,
    pub(crate) stack: HostStack,
    pub(crate) tx: NetPath,
    pub(crate) rx: NetPath,
    pub(crate) cluster: Cluster,
    /// Throughput-budget bucket (its rate reflects any engaged throttle).
    pub(crate) bandwidth: TokenBucket,
    pub(crate) iops: Option<TokenBucket>,
    pub(crate) rng: SimRng,
    pub(crate) stats: EssdStats,
}

/// The host-visible description of a device built from `config`. A
/// request past the cluster's capacity would have no chunk lane.
pub(crate) fn device_info(config: &EssdConfig) -> DeviceInfo {
    assert!(
        config.cluster.capacity >= config.capacity,
        "cluster below device capacity"
    );
    DeviceInfo::new(
        config.name.clone(),
        config.capacity - config.capacity % config.logical_block as u64,
        config.logical_block,
    )
}

impl Essd {
    /// Builds the device described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cluster.capacity` is below `config.capacity`.
    pub fn new(config: EssdConfig) -> Self {
        let info = device_info(&config);
        let rng = SimRng::new(config.seed);
        let bandwidth = TokenBucket::new(
            config.bandwidth_burst_bytes.max(1.0),
            config.bandwidth_bytes_per_sec,
        );
        let iops = config
            .iops
            .map(|b| TokenBucket::new(b.burst_ops.max(1.0), b.ops_per_sec));
        Essd {
            info,
            stack: HostStack::new(config.stack_workers.max(1), config.stack_per_io.clone()),
            tx: NetPath::new(config.net.clone()),
            rx: NetPath::new(config.net.clone()),
            cluster: Cluster::new(config.cluster.clone()),
            bandwidth,
            iops,
            rng,
            stats: EssdStats::default(),
            config,
        }
    }

    /// Device activity counters.
    pub fn stats(&self) -> EssdStats {
        self.stats
    }

    /// The backend cluster (placement/load inspection).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The configured (pre-throttle) throughput budget in bytes/second.
    pub fn bandwidth_budget(&self) -> f64 {
        self.config.bandwidth_bytes_per_sec
    }

    /// The current token-bucket refill rate in bytes/second (reflects any
    /// engaged throttle).
    pub fn current_rate(&self) -> f64 {
        self.bandwidth.rate()
    }

    fn engage_throttle_if_due(&mut self, now: SimTime) {
        if self.stats.throttled {
            return;
        }
        let Some(policy) = self.config.throttle else {
            return;
        };
        let threshold = (self.config.capacity as f64 * policy.after_capacity_multiple) as u64;
        if self.stats.write_bytes >= threshold {
            self.bandwidth.set_rate(now, policy.limited_bytes_per_sec);
            self.stats.throttled = true;
        }
    }
}

impl BlockDevice for Essd {
    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        let cluster = self.cluster.stats();
        for (name, v) in [
            ("host.reads", self.stats.reads),
            ("host.writes", self.stats.writes),
            ("host.read_bytes", self.stats.read_bytes),
            ("host.write_bytes", self.stats.write_bytes),
            ("cluster.write_fragments", cluster.write_fragments),
            ("cluster.read_fragments", cluster.read_fragments),
            ("cluster.bytes_written", cluster.bytes_written),
            ("cluster.bytes_read", cluster.bytes_read),
        ] {
            let id = obs.counter(&format!("{prefix}.{name}"));
            obs.set_counter(id, v);
        }
        // Budgets are configured in whole bytes/second; the integer cast
        // is exact for every profile and keeps the snapshot float-free.
        for (name, v) in [
            ("throttled", self.stats.throttled as i64),
            ("budget_bytes_per_sec", self.bandwidth_budget() as i64),
            ("rate_bytes_per_sec", self.current_rate() as i64),
        ] {
            let id = obs.gauge(&format!("{prefix}.{name}"));
            obs.set(id, v);
        }
        // Per-node load spread: how evenly chunk placement fans fragments
        // out across the backend (node order is fixed by construction).
        for (i, node) in self.cluster.node_stats().iter().enumerate() {
            for (name, v) in [
                ("reads", node.reads),
                ("writes", node.writes),
                ("bytes_read", node.bytes_read),
                ("bytes_written", node.bytes_written),
            ] {
                let id = obs.counter(&format!("{prefix}.node{i}.{name}"));
                obs.set_counter(id, v);
            }
        }
    }

    fn info(&self) -> DeviceInfo {
        self.info.clone()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.info.validate(req)?;

        // 1. Host virtualization/storage stack.
        let t_stack = self.stack.process(req.submit_time, &mut self.rng);

        // 2. Tenant budgets: bytes and (optionally) size-weighted IOPS.
        let mut t_budget = self.bandwidth.reserve(t_stack, req.len as u64);
        if let (Some(bucket), Some(budget)) = (self.iops.as_mut(), self.config.iops) {
            let t_iops = bucket.reserve(t_stack, budget.tokens_for(req.len));
            t_budget = t_budget.max(t_iops);
        }

        // 3. Request over the fabric; 4. cluster service; 5. response.
        let done = match req.kind {
            IoKind::Write => {
                let arrival = self
                    .tx
                    .send(t_budget, HEADER_BYTES + req.len as u64, &mut self.rng);
                let ack = self
                    .cluster
                    .write(arrival, req.offset, req.len, &mut self.rng);
                self.stats.writes += 1;
                self.stats.write_bytes += req.len as u64;
                self.rx.send(ack, HEADER_BYTES, &mut self.rng)
            }
            IoKind::Read => {
                let arrival = self.tx.send(t_budget, HEADER_BYTES, &mut self.rng);
                let data = self
                    .cluster
                    .read(arrival, req.offset, req.len, &mut self.rng);
                self.stats.reads += 1;
                self.stats.read_bytes += req.len as u64;
                self.rx
                    .send(data, HEADER_BYTES + req.len as u64, &mut self.rng)
            }
        };

        self.engage_throttle_if_due(done);
        Ok(done)
    }

    // The doorbell is the request-at-a-time loop (`submit_each`),
    // monomorphized per impl, so batched submission is a loop of
    // statically dispatched `submit` calls with identical completion
    // instants (asserted by `batch_submission_matches_sequential`). It
    // posts straight into the caller's completion queue; `submit_batch`
    // stays on the trait default, which allocates a queue per call.
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        uc_blockdev::submit_each(self, batch, completions)
    }
}

impl CheckpointDevice for Essd {
    fn checkpoint(&self) -> DeviceCheckpoint {
        // `Essd` is a `PersistPayload`, so every checkpoint taken through
        // this seam has a durable on-disk form (`save_to`).
        DeviceCheckpoint::persistent(self.info.name(), self.clone())
    }

    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        checkpoint.expect_device(self.info.name())?;
        let restored = checkpoint.into_state::<Essd>()?;
        // Same name is not enough: a checkpoint from a differently-scaled
        // device must not silently shrink or grow this one.
        if restored.info != self.info {
            return Err(CheckpointError::DeviceMismatch {
                expected: format!("{} ({} B)", self.info.name(), self.info.capacity()),
                found: format!("{} ({} B)", restored.info.name(), restored.info.capacity()),
            });
        }
        *self = restored;
        Ok(())
    }
}

// Parallel experiment cells move built devices across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Essd>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThrottlePolicy;
    use uc_blockdev::IoBatch;
    use uc_persist::Persist;
    use uc_sim::SimDuration;

    fn essd1() -> Essd {
        Essd::new(EssdConfig::aws_io2(256 << 20))
    }

    #[test]
    fn batch_submission_matches_sequential() {
        let reqs: Vec<IoRequest> = (0..24u64)
            .map(|i| {
                let off = (i.wrapping_mul(2654435761) % 1024) * 65536;
                if i % 3 == 0 {
                    IoRequest::read(off, 65536, SimTime::ZERO)
                } else {
                    IoRequest::write(off, 4096, SimTime::ZERO)
                }
            })
            .collect();
        let mut sequential = essd1();
        let expected: Vec<SimTime> = reqs.iter().map(|r| sequential.submit(r).unwrap()).collect();
        let mut batched = essd1();
        let batch: IoBatch = reqs.iter().copied().collect();
        let done: Vec<SimTime> = batched
            .submit_batch(&batch)
            .unwrap()
            .iter()
            .map(|c| c.completes)
            .collect();
        assert_eq!(done, expected);
        assert_eq!(batched.stats(), sequential.stats());
    }

    fn us(d: SimDuration) -> f64 {
        d.as_micros_f64()
    }

    #[test]
    fn small_write_pays_network_overhead() {
        let mut dev = essd1();
        let done = dev
            .submit(&IoRequest::write(0, 4096, SimTime::ZERO))
            .unwrap();
        let lat = us(done - SimTime::ZERO);
        assert!(
            (150.0..800.0).contains(&lat),
            "cloud 4K write took {lat} us; expected hundreds of us"
        );
    }

    #[test]
    fn random_read_pays_backend_flash() {
        let mut dev = essd1();
        let done = dev
            .submit(&IoRequest::read(64 << 20, 4096, SimTime::ZERO))
            .unwrap();
        let lat = us(done - SimTime::ZERO);
        assert!(
            (250.0..1200.0).contains(&lat),
            "cloud 4K read took {lat} us"
        );
    }

    #[test]
    fn latency_stays_flat_at_moderate_depth() {
        // Unlike the local SSD's serialized firmware, the ESSD absorbs a
        // QD16 burst with roughly QD1 latency (Observation 1 mechanism).
        let mut dev = essd1();
        let mut completions = Vec::new();
        for i in 0..16u64 {
            let done = dev
                .submit(&IoRequest::write(i * (8 << 20), 4096, SimTime::ZERO))
                .unwrap();
            completions.push(us(done - SimTime::ZERO));
        }
        let min = completions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = completions.iter().cloned().fold(0.0, f64::max);
        assert!(
            max < 3.0 * min,
            "QD16 latency spread should be mild: min {min}, max {max}"
        );
    }

    #[test]
    fn throughput_budget_paces_sustained_load() {
        let mut dev = essd1();
        let io = 1 << 20;
        let n = 64u64;
        let mut last = SimTime::ZERO;
        let mut now = SimTime::ZERO;
        for i in 0..n {
            let off = (i * io as u64) % (dev.info().capacity() - io as u64);
            let done = dev.submit(&IoRequest::write(off, io, now)).unwrap();
            last = last.max(done);
            now = done; // closed loop, QD1 against the bucket
        }
        let gbps = (n * io as u64) as f64 / 1e9 / last.as_secs_f64();
        assert!(
            gbps <= dev.bandwidth_budget() / 1e9 * 1.1,
            "sustained rate {gbps} GB/s must respect the 3 GB/s budget"
        );
    }

    #[test]
    fn throttle_engages_after_cumulative_writes() {
        let cfg = EssdConfig::aws_io2(16 << 20).with_throttle(Some(ThrottlePolicy {
            after_capacity_multiple: 1.0,
            limited_bytes_per_sec: 1e6,
        }));
        let mut dev = Essd::new(cfg);
        let mut now = SimTime::ZERO;
        let io = 1 << 20;
        for i in 0..20u64 {
            let off = (i % 15) * io as u64;
            now = dev.submit(&IoRequest::write(off, io, now)).unwrap();
        }
        assert!(dev.stats().throttled);
        assert_eq!(dev.current_rate(), 1e6);
    }

    #[test]
    fn iops_budget_paces_small_ios() {
        use crate::IopsBudget;
        let cfg = EssdConfig::alibaba_pl3(256 << 20).with_iops(Some(IopsBudget {
            ops_per_sec: 1000.0,
            unit_bytes: 16 << 10,
            burst_ops: 1.0,
        }));
        let mut dev = Essd::new(cfg);
        let mut now = SimTime::ZERO;
        for i in 0..50u64 {
            now = dev.submit(&IoRequest::write(i * 4096, 4096, now)).unwrap();
        }
        // 50 ops at 1000 ops/s is at least ~49 ms.
        assert!(
            now.as_secs_f64() > 0.045,
            "IOPS pacing should stretch the run, got {}s",
            now.as_secs_f64()
        );
    }

    #[test]
    fn stats_and_validation() {
        let mut dev = essd1();
        assert!(dev
            .submit(&IoRequest::read(1, 4096, SimTime::ZERO))
            .is_err());
        dev.submit(&IoRequest::write(0, 8192, SimTime::ZERO))
            .unwrap();
        dev.submit(&IoRequest::read(0, 4096, SimTime::ZERO))
            .unwrap();
        let s = dev.stats();
        assert_eq!((s.writes, s.reads), (1, 1));
        assert_eq!(s.write_bytes, 8192);
        assert_eq!(s.read_bytes, 4096);
        assert!(!s.throttled);
    }

    #[test]
    fn checkpoint_restore_continues_identically() {
        // Drive the device across its throttle threshold midway, so the
        // checkpoint must carry the reduced token-bucket rate and the
        // engaged flag.
        let cfg = EssdConfig::aws_io2(32 << 20).with_throttle(Some(ThrottlePolicy {
            after_capacity_multiple: 1.0,
            limited_bytes_per_sec: 5e6,
        }));
        let mut a = Essd::new(cfg);
        let io = 1 << 20;
        let mut now = SimTime::ZERO;
        for i in 0..40u64 {
            let off = (i % 30) * io as u64;
            now = a.submit(&IoRequest::write(off, io, now)).unwrap();
        }
        assert!(a.stats().throttled, "midpoint must be past the throttle");
        let cp = CheckpointDevice::checkpoint(&a);
        let mut b = Essd::new(
            EssdConfig::aws_io2(32 << 20).with_throttle(Some(ThrottlePolicy {
                after_capacity_multiple: 1.0,
                limited_bytes_per_sec: 5e6,
            })),
        );
        b.restore_from(cp).unwrap();
        assert_eq!(b.to_bytes(), a.to_bytes(), "restore is lossless");
        assert_eq!(b.current_rate(), 5e6, "throttled rate survives");
        let mut now_b = now;
        for i in 0..24u64 {
            let off = ((i * 7) % 30) * io as u64;
            let kind_read = i % 3 == 0;
            let req_a = if kind_read {
                IoRequest::read(off, 4096, now)
            } else {
                IoRequest::write(off, 4096, now)
            };
            let req_b = if kind_read {
                IoRequest::read(off, 4096, now_b)
            } else {
                IoRequest::write(off, 4096, now_b)
            };
            now = a.submit(&req_a).unwrap();
            now_b = b.submit(&req_b).unwrap();
            assert_eq!(now, now_b);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn checkpoint_rejects_other_device_class() {
        use uc_ssd::{Ssd, SsdConfig};
        let ssd_cp = CheckpointDevice::checkpoint(&Ssd::new(SsdConfig::samsung_970_pro(256 << 20)));
        let mut essd = essd1();
        // Name mismatch is caught first; even a name collision would then
        // fail the payload downcast.
        assert!(essd.restore_from(ssd_cp).is_err());
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut dev = Essd::new(EssdConfig::aws_io2(64 << 20));
            let mut now = SimTime::ZERO;
            for i in 0..32u64 {
                now = dev
                    .submit(&IoRequest::write(
                        (i * 12345 * 4096) % (32 << 20),
                        4096,
                        now,
                    ))
                    .unwrap();
            }
            now
        };
        assert_eq!(run(), run());
    }
}
