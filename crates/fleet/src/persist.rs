//! [`Persist`] codecs for the fleet's resumable state.
//!
//! A [`FleetState`] is everything the simulation needs back besides the
//! devices, whose [`DeviceCheckpoint`]s the durable layer stores
//! alongside. Decode checks every config field, count and cursor instant
//! against the config and the placement, so crafted bytes fail typed
//! instead of reaching a panic.
//!
//! [`DeviceCheckpoint`]: uc_blockdev::DeviceCheckpoint

use crate::metrics::{EpochStat, TenantMetrics};
use crate::placement::{MigrationRecord, Placement};
use crate::rebalance::RebalancePolicy;
use crate::sim::{FleetConfig, FleetState, TenantRun};
use crate::tenant::ShapeMix;
use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};

persist_struct! { ShapeMix { steady, diurnal, bursty }, check = check_mix }
persist_struct! { RebalancePolicy { hot_ratio, max_moves } }
persist_struct! {
    FleetConfig { tenants, devices, mix, duration, epochs, io_size, seed, rebalance },
    check = check_config
}

/// [`ShapeMix::total`] panics unless the weights sum, without overflow,
/// to a non-zero total.
fn check_mix(mix: &ShapeMix) -> Result<(), DecodeError> {
    let total = mix.steady.checked_add(mix.diurnal);
    let total = total.and_then(|t| t.checked_add(mix.bursty));
    ensure(total.is_some_and(|t| t > 0), "ShapeMix weights")
}

/// The counts and sizes tenant synthesis and the epoch clock divide by.
fn check_config(c: &FleetConfig) -> Result<(), DecodeError> {
    ensure(
        c.tenants > 0 && c.devices > 0 && c.epochs > 0 && c.io_size > 0 && !c.duration.is_zero(),
        "FleetConfig counts",
    )
}

persist_struct! { TenantMetrics { latency, ios, bytes, throttle_events, throttled } }
persist_struct! { EpochStat { tenant_bytes, device_bytes, fairness } }
persist_struct! {
    MigrationRecord { epoch, tenant, from, to, frozen_at, completed_at, bytes_copied, freeze_crc }
}

impl Persist for Placement {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.region_span());
        self.slots_per_device().encode(w);
        self.device_count().encode(w);
        self.homes().to_vec().encode(w);
    }

    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let region_span = r.get_u64()?;
        let slots_per_device = usize::decode(r)?;
        let device_count = usize::decode(r)?;
        let homes: Vec<Option<(usize, usize)>> = Vec::decode(r)?;
        // Bounds are validated here; *conservation* deliberately is not —
        // a run carrying a recorded violation (e.g. under fault
        // injection) must resume and re-report it identically.
        ensure(
            region_span != 0 && device_count != 0 && slots_per_device != 0,
            "Placement geometry",
        )?;
        for home in homes.iter().flatten() {
            ensure(
                home.0 < device_count && home.1 < slots_per_device,
                "Placement home out of bounds",
            )?;
        }
        Ok(Placement::from_parts(
            region_span,
            slots_per_device,
            device_count,
            homes,
        ))
    }
}

persist_struct! { TenantRun { rng, t, floor, written_high, metrics }, check = check_run }
persist_struct! {
    FleetState {
        config, epoch, placement, tenants, buckets, epoch_stats, migrations, violations, finished_at
    },
    check = check_state
}

/// [`TraceSpec::cursor_at`](uc_trace::TraceSpec::cursor_at) takes only a
/// finite, non-negative instant.
fn check_run(run: &TenantRun) -> Result<(), DecodeError> {
    ensure(
        run.t.is_finite() && run.t >= 0.0,
        "TenantRun cursor instant",
    )
}

fn check_state(s: &FleetState) -> Result<(), DecodeError> {
    let c = &s.config;
    ensure(s.epoch <= c.epochs, "FleetState epoch")?;
    ensure(
        s.placement.tenant_count() == c.tenants && s.placement.device_count() == c.devices,
        "FleetState placement shape",
    )?;
    ensure(
        s.tenants.len() == c.tenants && s.buckets.len() == c.tenants,
        "FleetState per-tenant counts",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::{SimDuration, SimTime};

    fn roundtrip<T: Persist>(value: &T) -> T {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("no trailing bytes");
        back
    }

    #[test]
    fn placement_roundtrips() {
        let mut p = Placement::contiguous(5, 2, 4, 1 << 20);
        p.migrate(0, 1, p.free_slot(1).unwrap());
        assert_eq!(roundtrip(&p), p);
    }

    #[test]
    fn out_of_bounds_home_is_a_typed_error() {
        let p = Placement::from_parts(1 << 20, 2, 2, vec![Some((5, 0))]);
        let mut w = Encoder::new();
        p.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(matches!(
            Placement::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn metrics_and_records_roundtrip() {
        let mut m = TenantMetrics::new();
        m.latency.record(SimDuration::from_micros(120));
        m.ios = 1;
        m.bytes = 4096;
        m.throttle_events = 2;
        m.throttled = SimDuration::from_micros(30);
        let back = roundtrip(&m);
        assert_eq!(back.ios, 1);
        assert_eq!(back.latency.count(), 1);
        assert_eq!(back.throttled, m.throttled);

        let rec = MigrationRecord {
            epoch: 2,
            tenant: 7,
            from: (0, 3),
            to: (1, 4),
            frozen_at: SimTime::from_nanos(1000),
            completed_at: SimTime::from_nanos(5000),
            bytes_copied: 1 << 20,
            freeze_crc: 0xDEAD_BEEF,
        };
        assert_eq!(roundtrip(&rec), rec);

        let stat = EpochStat {
            tenant_bytes: vec![1, 2, 3],
            device_bytes: vec![3, 3],
            fairness: 0.87,
        };
        assert_eq!(roundtrip(&stat), stat);
    }
}
