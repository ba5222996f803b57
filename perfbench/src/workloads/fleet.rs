//! `fleet_1024`: 1024 tenants on 32 alternating io2/PL3 eSSDs with
//! rebalancing, 8 epochs over a 1000 ms arrival horizon, on one thread.
//!
//! Set-up builds the pool and the `FleetSim`, which synthesizes every
//! tenant's arrival stream; the measured phase is the epoch loop.

use super::{derive, Meter, Opts, Tracer, Unit};
use crate::stats::percentile;
use crate::timed::{Granularity, Timed};
use std::time::Instant;
use uc_core::experiments::fleet::{self as fleet_exp, FleetRunConfig};
use uc_core::report::render_fleet_report;
use uc_essd::{Essd, EssdConfig};
use uc_fleet::{FleetDevice, FleetSim, RebalancePolicy, TenantSpec};
use uc_sim::SimDuration;

const TENANTS: usize = 1024;
const DEVICES: usize = 32;
const EPOCHS: usize = 8;
const HORIZON_MS: u64 = 1000;

fn config(seed: u64) -> FleetRunConfig {
    let mut config = FleetRunConfig::new(TENANTS, DEVICES);
    config.fleet = config
        .fleet
        .with_epochs(EPOCHS)
        .with_duration(SimDuration::from_millis(HORIZON_MS))
        .with_seed(derive(0xF1EE7, seed))
        .with_rebalance(RebalancePolicy::default());
    config
}

/// `fleet_exp::build_pool` with seeded jitter, each device wrapped for
/// timing when traced.
fn pool(config: &FleetRunConfig, seed: u64, tracer: Option<&Tracer>) -> Vec<FleetDevice> {
    (0..config.fleet.devices)
        .map(|i| {
            let preset = if i % 2 == 0 {
                EssdConfig::aws_io2(config.capacity)
            } else {
                EssdConfig::alibaba_pl3(config.capacity)
            };
            let essd = preset
                .with_name(format!("fleet-essd-{i}"))
                .with_seed(derive(0xF_1EE7_0000 + i as u64, seed));
            let device: FleetDevice = Box::new(Essd::new(essd));
            match tracer {
                None => device,
                Some(t) => Box::new(Timed::new(device, Granularity::Request, &t.fleet_device)),
            }
        })
        .collect()
}

/// `fleet_exp::run` on the same fleet definition.
pub fn reference() -> String {
    render_fleet_report(&fleet_exp::run(&config(super::DEFAULT_SEED)).expect("fleet run"))
}

/// Runs one fleet_1024 unit.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Unit {
    let config = config(opts.seed);
    let mut unit = Unit::default();

    let setup = Instant::now();
    let mut sim = FleetSim::new(config.fleet.clone(), pool(&config, opts.seed, tracer));
    unit.setup_s = setup.elapsed().as_secs_f64();

    let meter = Meter::start();
    while !sim.is_finished() {
        let started = Instant::now();
        if let Err(e) = sim.run_epoch() {
            unit.failures.push(format!("fleet i/o error: {e}"));
            break;
        }
        unit.rtt_ns.push(started.elapsed().as_nanos() as u64);
    }
    let report = sim.report();
    unit.ios = report.total_ios;
    unit.finish(meter);

    let span = sim.region_span();
    // Dropping the sim merges the traced pool devices' samples.
    drop(sim);
    for violation in &report.violations {
        unit.failures
            .push(format!("fleet contract violation: {violation}"));
    }
    unit.output = render_fleet_report(&fleet_exp::evaluate(report));

    if let Some(t) = tracer {
        let mut epochs = unit.rtt_ns.clone();
        t.set(
            "fleet.epoch_ns.p50",
            percentile(&mut epochs, 50.0) as f64,
            "ns",
        );
        t.set(
            "fleet.epoch_ns.max",
            epochs.iter().copied().max().unwrap_or(0) as f64,
            "ns",
        );
        let synthesized = Instant::now();
        for id in 0..TENANTS as u32 {
            let spec = TenantSpec::synthesize(
                id,
                &config.fleet.mix,
                config.fleet.seed,
                span,
                config.fleet.duration,
                config.fleet.io_size,
            );
            std::hint::black_box(spec.trace.generate());
        }
        t.set(
            "fleet.synthesize_ns_per_tenant",
            synthesized.elapsed().as_nanos() as f64 / TENANTS as f64,
            "ns",
        );
    }
    unit
}
