//! [`Persist`] codecs for the elastic-SSD checkpoint types.
//!
//! [`EssdCheckpoint`] is a [`PersistPayload`], so an `Essd`'s type-erased
//! [`DeviceCheckpoint`](uc_blockdev::DeviceCheckpoint) — including an
//! engaged throttle's reduced token-bucket rate — can be saved to and
//! loaded from disk under the stable record tag [`EssdCheckpoint::KIND`].

use crate::{EssdCheckpoint, EssdConfig, EssdStats, IopsBudget, ThrottlePolicy};
use uc_blockdev::PersistPayload;
use uc_persist::{ensure, persist_struct, DecodeError};

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
persist_struct! { EssdCheckpoint { config, stack, tx, rx, cluster, bandwidth, iops, rng, stats } }

fn check_iops(b: &IopsBudget) -> Result<(), DecodeError> {
    ensure(b.unit_bytes != 0, "IopsBudget.unit_bytes")
}

fn check_config(c: &EssdConfig) -> Result<(), DecodeError> {
    ensure(c.logical_block != 0, "EssdConfig.logical_block")?;
    // `Essd::new`/`restore` assert this.
    ensure(
        c.cluster.capacity >= c.capacity,
        "EssdConfig.cluster.capacity",
    )?;
    ensure(
        c.bandwidth_bytes_per_sec > 0.0 && c.bandwidth_bytes_per_sec.is_finite(),
        "EssdConfig.bandwidth_bytes_per_sec",
    )
}

impl PersistPayload for EssdCheckpoint {
    const KIND: &'static str = "uc.essd-checkpoint.v2";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Essd;
    use uc_blockdev::{BlockDevice, IoRequest};
    use uc_persist::{Decoder, Encoder, Persist};
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

        let checkpoint = essd.snapshot();
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = EssdCheckpoint::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, checkpoint);

        let mut restored = Essd::restore(back);
        assert_eq!(restored.current_rate(), 5e6, "throttled rate survives");
        let req = IoRequest::read(0, 4096, now);
        assert_eq!(restored.submit(&req), essd.submit(&req));
    }

    #[test]
    fn cluster_smaller_than_device_is_typed() {
        let mut checkpoint = Essd::new(EssdConfig::aws_io2(64 << 20)).snapshot();
        checkpoint.config.cluster.capacity = (64 << 20) - 1;
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            EssdCheckpoint::decode(&mut Decoder::new(&bytes)),
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
        let mut checkpoint = Essd::new(EssdConfig::alibaba_pl3(64 << 20)).snapshot();
        checkpoint.config.bandwidth_bytes_per_sec = f64::INFINITY;
        let mut w = Encoder::new();
        checkpoint.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            EssdCheckpoint::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue {
                what: "EssdConfig.bandwidth_bytes_per_sec"
            })
        ));
    }
}
