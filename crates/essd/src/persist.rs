//! [`Persist`] codecs for the elastic SSD's state.
//!
//! [`Essd`] is a [`PersistPayload`], so an `Essd`'s type-erased
//! [`DeviceCheckpoint`](uc_blockdev::DeviceCheckpoint) — including an
//! engaged throttle's reduced token-bucket rate — can be saved to and
//! loaded from disk under the stable record tag [`Essd::KIND`].

use crate::device::device_info;
use crate::{Essd, EssdConfig, EssdStats, IopsBudget, ThrottlePolicy};
use uc_blockdev::PersistPayload;
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};

persist_struct! { IopsBudget { ops_per_sec, unit_bytes, burst_ops }, check = check_iops }
persist_struct! { ThrottlePolicy { after_capacity_multiple, limited_bytes_per_sec } }
persist_struct! {
    EssdConfig {
        name, capacity, logical_block, stack_workers, stack_per_io, net, cluster,
        bandwidth_bytes_per_sec, bandwidth_burst_bytes, iops, throttle, seed
    },
    check = check_config
}
persist_struct! { EssdStats { reads, writes, read_bytes, write_bytes, throttled } }

/// Every field but the device info, which is derived from the
/// configuration.
impl Persist for Essd {
    fn encode(&self, w: &mut Encoder) {
        self.config.encode(w);
        self.stack.encode(w);
        self.tx.encode(w);
        self.rx.encode(w);
        self.cluster.encode(w);
        self.bandwidth.encode(w);
        self.iops.encode(w);
        self.rng.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let config = EssdConfig::decode(r)?;
        Ok(Essd {
            info: device_info(&config),
            config,
            stack: Persist::decode(r)?,
            tx: Persist::decode(r)?,
            rx: Persist::decode(r)?,
            cluster: Persist::decode(r)?,
            bandwidth: Persist::decode(r)?,
            iops: Persist::decode(r)?,
            rng: Persist::decode(r)?,
            stats: Persist::decode(r)?,
        })
    }
}

fn check_iops(b: &IopsBudget) -> Result<(), DecodeError> {
    ensure(b.unit_bytes != 0, "IopsBudget.unit_bytes")
}

fn check_config(c: &EssdConfig) -> Result<(), DecodeError> {
    ensure(c.logical_block != 0, "EssdConfig.logical_block")?;
    // `Essd::new` asserts this.
    ensure(
        c.cluster.capacity >= c.capacity,
        "EssdConfig.cluster.capacity",
    )?;
    ensure(
        c.bandwidth_bytes_per_sec > 0.0 && c.bandwidth_bytes_per_sec.is_finite(),
        "EssdConfig.bandwidth_bytes_per_sec",
    )
}

impl PersistPayload for Essd {
    const KIND: &'static str = "uc.essd-checkpoint.v2";
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_blockdev::{BlockDevice, IoRequest};
    use uc_sim::SimTime;

    #[test]
    fn throttled_essd_checkpoint_round_trips() {
        // Drive past the throttle threshold so the checkpoint carries the
        // engaged flag and the reduced token-bucket rate.
        let cfg = EssdConfig::aws_io2(32 << 20).with_throttle(Some(ThrottlePolicy {
            after_capacity_multiple: 1.0,
            limited_bytes_per_sec: 5e6,
        }));
        let mut essd = Essd::new(cfg);
        let io = 1 << 20;
        let mut now = SimTime::ZERO;
        for i in 0..40u64 {
            let off = (i % 30) * io as u64;
            now = essd.submit(&IoRequest::write(off, io, now)).unwrap();
        }
        assert!(essd.stats().throttled);

        let bytes = essd.to_bytes();
        let mut restored = Essd::from_bytes(&bytes).unwrap();
        assert_eq!(restored.to_bytes(), bytes);

        assert_eq!(restored.current_rate(), 5e6, "throttled rate survives");
        let req = IoRequest::read(0, 4096, now);
        assert_eq!(restored.submit(&req), essd.submit(&req));
    }

    #[test]
    fn cluster_smaller_than_device_is_typed() {
        let mut essd = Essd::new(EssdConfig::aws_io2(64 << 20));
        essd.config.cluster.capacity = (64 << 20) - 1;
        assert_eq!(
            Essd::from_bytes(&essd.to_bytes()).map(drop),
            Err(DecodeError::InvalidValue {
                what: "EssdConfig.cluster.capacity"
            })
        );
    }

    #[test]
    #[should_panic(expected = "cluster below device capacity")]
    fn cluster_smaller_than_device_is_rejected() {
        let mut config = EssdConfig::alibaba_pl3(64 << 20);
        config.cluster.capacity = 32 << 20;
        let _ = Essd::new(config);
    }

    #[test]
    fn corrupt_config_is_typed() {
        let mut essd = Essd::new(EssdConfig::alibaba_pl3(64 << 20));
        essd.config.bandwidth_bytes_per_sec = f64::INFINITY;
        assert!(matches!(
            Essd::from_bytes(&essd.to_bytes()),
            Err(DecodeError::InvalidValue {
                what: "EssdConfig.bandwidth_bytes_per_sec"
            })
        ));
    }
}
