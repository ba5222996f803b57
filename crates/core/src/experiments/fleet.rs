//! The fleet experiment: hundreds of tenants multiplexed onto a shared
//! eSSD pool, with the contract evaluated per tenant.
//!
//! The paper measures one tenant per device; cloud fleets multiplex many.
//! This experiment drives [`uc_fleet`]'s simulation against a pool of
//! roster-class eSSDs (alternating the AWS io2 and Alibaba PL3 presets)
//! and evaluates two fleet-level contract expectations (thresholds in
//! [`thresholds`](crate::contract::thresholds)):
//!
//! * **noisy-neighbor blow-up** — a tenant whose mean latency exceeds
//!   [`FLEET_TENANT_LATENCY_BLOWUP`] times the fleet's mean of tenant
//!   means is a flagged interference victim: its requests queue behind
//!   co-located tenants' bursts rather than its own budget;
//! * **fairness floor** — an epoch whose Jain index falls below
//!   [`FLEET_MIN_FAIRNESS`] means service quality on some device
//!   collapsed for its residents (placement skew the rebalancer should
//!   be draining).
//!
//! Like fig3 and the trace experiment, the run is **durable** through the
//! shared engine ([`durable`], via [`FleetChain`]): at every epoch
//! boundary the live fleet — its [`FleetState`] (config, placement,
//! each tenant's trace-cursor position, budgets, metrics) and each
//! device's queue head and complete hidden state — is written in place
//! as one `uc.fleet.v2` record, and a killed run resumes byte-identical
//! to an uninterrupted one (the fleet CI smoke pins this end to end).

use crate::contract::thresholds::{FLEET_MIN_FAIRNESS, FLEET_TENANT_LATENCY_BLOWUP};
use crate::devices::payload_codecs;
use crate::experiments::durable::{self, Chain, LoadError, RunError, Store};
use crate::experiments::Executor;
use uc_blockdev::{CheckpointDevice, DeviceCheckpoint, IoError, SharedDevice};
use uc_essd::{Essd, EssdConfig};
use uc_fleet::{FleetConfig, FleetDevice, FleetReport, FleetSim, FleetState};
use uc_obs::ObsReport;
use uc_persist::{ensure, Decoder, Encoder, Persist};
use uc_sim::SimTime;

/// Parameters of a fleet experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRunConfig {
    /// The fleet itself: tenants, devices, mix, horizon, epochs, seed,
    /// rebalancing policy.
    pub fleet: FleetConfig,
    /// Per-device capacity, in bytes.
    pub capacity: u64,
}

impl FleetRunConfig {
    /// A fleet of `tenants` on `devices` of 256 MiB each, under
    /// [`FleetConfig::new`]'s defaults.
    pub fn new(tenants: usize, devices: usize) -> Self {
        FleetRunConfig {
            fleet: FleetConfig::new(tenants, devices),
            capacity: 256 << 20,
        }
    }

    /// Scales per-device capacity by `scale` (the `--scale` axis of the
    /// fleet binary; larger devices mean larger tenant regions).
    pub fn with_scale(mut self, scale: u64) -> Self {
        self.capacity = (256 << 20) * scale.max(1);
        self
    }
}

/// The jitter-seed base every fleet-pool device is built with.
fn device_seed(index: usize) -> u64 {
    0xF_1EE7_0000 + index as u64
}

/// Builds the experiment's device pool: `devices` eSSDs of `capacity`
/// bytes, alternating the AWS io2 and Alibaba PL3 presets so the pool
/// mixes both throttle behaviours, each uniquely named (the checkpoint
/// seam validates names on thaw) and deterministically seeded.
pub fn build_pool(config: &FleetRunConfig) -> Vec<FleetDevice> {
    (0..config.fleet.devices)
        .map(|i| {
            let preset = if i % 2 == 0 {
                EssdConfig::aws_io2(config.capacity)
            } else {
                EssdConfig::alibaba_pl3(config.capacity)
            };
            let essd = preset
                .with_name(format!("fleet-essd-{i}"))
                .with_seed(device_seed(i));
            Box::new(Essd::new(essd)) as FleetDevice
        })
        .collect()
}

/// A stable identity for a fleet run's exact definition: the CRC-32 of
/// the config's canonical wire form (the [`FleetConfig`] bytes a
/// [`FleetState`] leads with, then the capacity). Resuming a checkpoint
/// under a different fleet definition would silently corrupt the
/// continuation; the fingerprint makes it a detectable mismatch instead.
pub fn fleet_fingerprint(config: &FleetRunConfig) -> u32 {
    let mut w = Encoder::new();
    config.fleet.encode(&mut w);
    w.put_u64(config.capacity);
    uc_persist::crc32(w.as_bytes())
}

/// One flagged tenant or epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetFinding {
    /// A tenant's mean latency exceeded the fleet mean by this factor.
    NoisyNeighborVictim {
        /// The suffering tenant.
        tenant: u32,
        /// `tenant mean / fleet mean-of-means`.
        factor: f64,
    },
    /// An epoch's Jain fairness index fell below the floor.
    FairnessCollapse {
        /// The offending epoch (0-based).
        epoch: usize,
        /// The epoch's index.
        fairness: f64,
    },
}

/// The contract verdict of a fleet experiment.
#[derive(Debug, Clone)]
pub struct FleetContractReport {
    /// The underlying fleet report.
    pub report: FleetReport,
    /// Every flagged tenant and epoch, tenants first (ascending id),
    /// then epochs in order.
    pub findings: Vec<FleetFinding>,
    /// Telemetry captured at the end of the run: the fleet's metric
    /// snapshot (including each pool device's counters) plus the flight
    /// recorder's trailing events. Byte-identical across same-seed runs.
    pub obs: ObsReport,
}

impl FleetContractReport {
    /// `true` if nothing was flagged *and* the run recorded no contract
    /// violations (tenant conservation, ledger conservation, queue-head
    /// monotonicity).
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.report.violations.is_empty()
    }
}

/// Evaluates the fleet-level contract checks over one run's report.
///
/// Deterministic: the same report always produces the same findings (the
/// CI fleet smoke diffs two full runs byte for byte).
pub fn evaluate(report: FleetReport) -> FleetContractReport {
    let mut findings = Vec::new();
    let base = report.mean_of_tenant_means();
    if base > 0.0 {
        for tenant in &report.per_tenant {
            let mean = tenant.mean_latency.as_nanos() as f64;
            let factor = mean / base;
            if factor > FLEET_TENANT_LATENCY_BLOWUP {
                findings.push(FleetFinding::NoisyNeighborVictim {
                    tenant: tenant.id,
                    factor,
                });
            }
        }
    }
    for (epoch, &fairness) in report.fairness_per_epoch.iter().enumerate() {
        if fairness < FLEET_MIN_FAIRNESS {
            findings.push(FleetFinding::FairnessCollapse { epoch, fairness });
        }
    }
    FleetContractReport {
        report,
        findings,
        obs: ObsReport::default(),
    }
}

/// Runs the fleet experiment in one piece (no durability) and evaluates
/// the contract. For on-disk epoch checkpoints, pass a [`FleetChain`] and
/// a [`durable::Store`] to [`durable::run`] instead.
///
/// # Errors
///
/// Propagates the first device [`IoError`] (a placement/geometry bug;
/// healthy fleets never hit one).
pub fn run(config: &FleetRunConfig) -> Result<FleetContractReport, IoError> {
    durable::run(&[FleetChain::new(config)], &Executor::sequential(), None)
        .map(|mut verdicts| verdicts.remove(0))
        .map_err(RunError::into_step)
}

/// The whole fleet as one resumable [`Chain`] of epochs, for
/// [`durable::run`].
///
/// The live driver carries the [`FleetSim`] itself from epoch to epoch,
/// so an uninterrupted durable run keeps its telemetry history and dumps
/// the same `uc.obs.v1` bytes as [`run`]; only a resumed run starts its
/// metrics registry and flight recorder afresh. A save writes the live
/// sim's [`FleetState`] in place, then its devices' queue heads and
/// checkpoints; a load restores the devices onto a fresh pool and
/// continues every tenant's trace cursor from its persisted position,
/// generating no entry it will not serve.
pub struct FleetChain<'a> {
    config: &'a FleetRunConfig,
    fingerprint: u32,
}

impl<'a> FleetChain<'a> {
    /// The fleet `config` defines.
    pub fn new(config: &'a FleetRunConfig) -> Self {
        FleetChain {
            config,
            fingerprint: fleet_fingerprint(config),
        }
    }
}

impl Chain for FleetChain<'_> {
    const RECORD_KIND: &'static str = "uc.fleet.v2";
    type State = FleetSim;
    type Error = IoError;
    type Output = FleetContractReport;

    fn key(&self) -> String {
        "fleet".to_string()
    }

    fn steps(&self) -> usize {
        self.config.fleet.epochs
    }

    fn start(&self) -> Result<FleetSim, IoError> {
        Ok(FleetSim::new(
            self.config.fleet.clone(),
            build_pool(self.config),
        ))
    }

    fn advance(&self, sim: &mut FleetSim) -> Result<(), IoError> {
        sim.run_epoch()
    }

    fn completed(&self, sim: &FleetSim) -> usize {
        sim.state().epoch
    }

    /// Writes the fingerprint, the state, then each device's queue head
    /// and checkpoint.
    fn encode(&self, sim: &FleetSim, w: &mut Encoder) {
        w.put_u32(self.fingerprint);
        sim.state().encode(w);
        let devices = sim.devices();
        w.put_u64(devices.len() as u64);
        for device in devices {
            device.queue_head().encode(w);
            device.inner().encode_checkpoint(w);
        }
    }

    /// Only a record of the same fleet definition (fingerprint, and the
    /// config its state carries) continues this run. The device payloads
    /// thaw through the roster's codec registry; the device list is sized
    /// by the bytes left, never by a decoded count alone.
    fn decode(&self, mut r: Decoder<'_>) -> Result<FleetSim, LoadError> {
        if r.get_u32()? != self.fingerprint {
            return Err(LoadError::OtherPlan);
        }
        let state = FleetState::decode(&mut r)?;
        if state.config != self.config.fleet {
            return Err(LoadError::OtherPlan);
        }
        let count = state.placement.device_count();
        ensure(r.get_len()? == count, "fleet record device count")?;
        let codecs = payload_codecs();
        let mut frozen = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let head = SimTime::decode(&mut r)?;
            frozen.push((head, DeviceCheckpoint::decode_from(&mut r, &codecs)?));
        }
        r.finish()?;
        let mut devices = Vec::with_capacity(count);
        for (mut device, (head, checkpoint)) in build_pool(self.config).into_iter().zip(frozen) {
            device.restore_from(checkpoint)?;
            devices.push(SharedDevice::with_queue_head(device, head));
        }
        Ok(FleetSim::from_state(state, devices))
    }

    fn finish(&self, sim: FleetSim) -> FleetContractReport {
        let obs = sim.obs_report();
        let mut verdict = evaluate(sim.report());
        verdict.obs = obs;
        verdict
    }

    /// Flushes the flight recorder to `crash.obs`, so the dump names what
    /// the fleet was doing at the boundary that "crashed".
    fn before_kill(&self, sim: &FleetSim, store: &Store) {
        let _ = sim.obs_report().save_to(&store.obs_dump_path());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_fleet_report;
    use uc_fleet::RebalancePolicy;
    use uc_sim::SimDuration;

    fn small() -> FleetRunConfig {
        let mut config = FleetRunConfig::new(12, 2);
        config.capacity = 64 << 20;
        config.fleet = config
            .fleet
            .with_duration(SimDuration::from_millis(20))
            .with_rebalance(RebalancePolicy::default());
        config
    }

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir()
            .join("uc-fleet-exp-tests")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::create(dir).unwrap()
    }

    /// Runs `config`'s fleet through the durable driver into `store`.
    fn run_durable(config: &FleetRunConfig, store: &Store) -> FleetContractReport {
        durable::run(
            &[FleetChain::new(config)],
            &Executor::sequential(),
            Some(store),
        )
        .unwrap()
        .remove(0)
    }

    /// `chain`'s fleet after `epochs` live epochs.
    fn partial(chain: &FleetChain<'_>, epochs: usize) -> FleetSim {
        let mut sim = chain.start().unwrap();
        for _ in 0..epochs {
            sim.run_epoch().unwrap();
        }
        sim
    }

    #[test]
    fn two_runs_render_identically() {
        let config = small();
        let a = render_fleet_report(&run(&config).unwrap());
        let b = render_fleet_report(&run(&config).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("fairness"), "{a}");
    }

    #[test]
    fn durable_run_matches_plain_run_and_resumes_mid_flight() {
        let config = small();
        let plain = run(&config).unwrap();

        let store = temp_store("durable");
        let durable = run_durable(&config, &store);
        // The primed epoch-0 state is persisted too.
        assert_eq!(store.saves(), config.fleet.epochs as u64 + 1);
        assert_eq!(render_fleet_report(&plain), render_fleet_report(&durable));
        // Telemetry is observational state: an uninterrupted durable run
        // carries the live fleet, so it sees the same history as a plain
        // run, byte for byte.
        assert_eq!(plain.obs.render_text(), durable.obs.render_text());
        // The encode/decode reference renders the same report.
        let round_trip = durable::round_trip(&FleetChain::new(&config)).unwrap();
        assert_eq!(
            render_fleet_report(&plain),
            render_fleet_report(&round_trip)
        );

        // "Kill" after two epochs: persist a partial run, then resume
        // from disk and finish.
        let store = Store::create(store.path()).unwrap().with_resume(true);
        let chain = FleetChain::new(&config);
        store.save(&chain, &partial(&chain, 2)).unwrap();
        let resumed = run_durable(&config, &store);
        assert_eq!(render_fleet_report(&plain), render_fleet_report(&resumed));
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn stale_fingerprint_starts_fresh() {
        let config = small();
        let chain = FleetChain::new(&config);
        let store = temp_store("stale").with_resume(true);
        // Another seed: a record under another fingerprint.
        let mut other = config.clone();
        other.fleet = other.fleet.with_seed(config.fleet.seed ^ 1);
        let stale = FleetChain::new(&other);
        let path = store.save(&stale, &partial(&stale, 1)).unwrap();
        assert!(matches!(
            durable::load(&chain, &path),
            Err(LoadError::OtherPlan)
        ));
        let resumed = run_durable(&config, &store);
        let plain = run(&config).unwrap();
        assert_eq!(render_fleet_report(&plain), render_fleet_report(&resumed));
        assert_eq!(
            store.saves(),
            config.fleet.epochs as u64 + 2,
            "a fresh start"
        );
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn checkpoint_file_roundtrips_and_rejects_corruption() {
        let config = small();
        let chain = FleetChain::new(&config);
        let store = temp_store("roundtrip");
        let sim = partial(&chain, 1);
        let path = store.save(&chain, &sim).unwrap();
        assert!(path.ends_with("fleet.seg0001.ckpt"));

        // The loaded fleet writes back exactly the file's payload.
        let loaded = durable::load(&chain, &path).unwrap();
        assert_eq!(loaded.state().epoch, 1);
        let payload = uc_persist::read_record_file(&path, FleetChain::RECORD_KIND).unwrap();
        let mut w = Encoder::new();
        chain.encode(&loaded, &mut w);
        assert_eq!(w.as_bytes(), payload);

        let good = std::fs::read(&path).unwrap();
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x08;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            durable::load(&chain, &path),
            Err(LoadError::Decode(_))
        ));
        assert!(store.latest(&chain).unwrap().is_none());
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn run_carries_a_populated_obs_report() {
        let config = small();
        let verdict = run(&config).unwrap();
        assert!(
            verdict.obs.snapshot.counter("fleet.ios").unwrap_or(0) > 0,
            "obs snapshot should carry fleet counters"
        );
        assert!(
            verdict
                .obs
                .snapshot
                .counter("fleet.device0.cluster.bytes_written")
                .unwrap_or(0)
                > 0,
            "obs snapshot should reach into pool devices"
        );
    }

    #[test]
    fn evaluation_flags_victims_and_collapses() {
        let config = small();
        let mut report = run(&config).unwrap().report;
        // Synthesize a pathological report on top of a real one.
        report.fairness_per_epoch[0] = 0.3;
        let fleet_mean = report.mean_of_tenant_means();
        report.per_tenant[0].mean_latency = SimDuration::from_nanos((fleet_mean * 10.0) as u64);
        let verdict = evaluate(report);
        assert!(!verdict.clean());
        assert!(verdict
            .findings
            .iter()
            .any(|f| matches!(f, FleetFinding::NoisyNeighborVictim { tenant: 0, .. })));
        assert!(verdict
            .findings
            .iter()
            .any(|f| matches!(f, FleetFinding::FairnessCollapse { epoch: 0, .. })));
    }
}
