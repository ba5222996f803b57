//! `endurance`: the fig3 endurance run, driven by the benchmark.
//!
//! 128 KiB random writes at QD 32 until 3x capacity, on SSD, ESSD-1 and
//! ESSD-2 of a 2x-scaled roster. Each device's run is sliced into
//! segments at byte milestones and the segment chains are pipelined over
//! a 2-thread executor through the checkpoint seam, the way
//! `fig3::run_pipelined` does it. Driving it here (rather than calling
//! `run_pipelined`) lets the seed reach the devices and the job, and lets
//! a traced unit wrap every segment's device.

use super::{derive, Meter, Observed, Opts, Tracer, Unit};
use crate::stats::ratio;
use crate::timed::{Granularity, Timed};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use uc_blockdev::{CheckpointDevice, DeviceCheckpoint, IoError};
use uc_core::contract::check_observation2;
use uc_core::devices::{DeviceKind, DeviceRoster};
use uc_core::experiments::fig3::{self, Fig3Config, Fig3Result};
use uc_core::experiments::Executor;
use uc_core::report::render_fig3;
use uc_metrics::Series;
use uc_sim::SimDuration;
use uc_workload::{AccessPattern, ClosedLoopJob, DriverCheckpoint, JobReport, JobSpec};

/// Roster capacity multiplier: 2 GiB SSD, 4 GiB ESSDs.
const SCALE: u64 = 2;
/// Segments per device run (the fig3 binary's default).
const SEGMENTS: usize = 8;
/// Executor width.
const THREADS: usize = 2;

fn roster() -> DeviceRoster {
    DeviceRoster::scaled_default().with_scale(SCALE)
}

fn device_seed(kind: DeviceKind, seed: u64) -> u64 {
    derive(0xF163_0000 + kind as u64, seed)
}

/// One device's run between segments.
struct Leg {
    kind: DeviceKind,
    capacity: u64,
    window: SimDuration,
    milestones: Vec<u64>,
    completed: usize,
    device: DeviceCheckpoint,
    driver: DriverCheckpoint,
}

type Frozen = Result<Leg, IoError>;
type Stage<'a> = Box<dyn FnOnce(Frozen) -> Frozen + Send + 'a>;

/// Builds `kind`'s device, wrapped for timing when traced.
fn build(
    roster: &DeviceRoster,
    kind: DeviceKind,
    seed: u64,
    tracer: Option<&Tracer>,
) -> Box<dyn CheckpointDevice + Send> {
    let device = roster.build_checkpointable(kind, device_seed(kind, seed));
    match tracer {
        None => device,
        Some(t) => {
            let sink = if kind == DeviceKind::LocalSsd {
                &t.ssd
            } else {
                &t.essd
            };
            Box::new(Timed::new(device, Granularity::Request, sink))
        }
    }
}

/// fig3's throughput window for a run over `volume` bytes.
fn window(cfg: &Fig3Config, volume: u64) -> SimDuration {
    let est_secs = volume as f64 / 2.0e9;
    cfg.window
        .min(SimDuration::from_secs_f64(est_secs / 100.0))
        .max(SimDuration::from_micros(500))
}

/// fig3's post-processing of a finished run into the figure's series.
fn finish(kind: DeviceKind, capacity: u64, window: SimDuration, report: &JobReport) -> Fig3Result {
    let time_series = report.throughput.series();
    let mut cumulative = 0.0f64;
    let window_secs = window.as_secs_f64();
    let volume_points = time_series
        .points()
        .iter()
        .map(|&(_, gbps)| {
            cumulative += gbps * 1e9 * window_secs;
            (cumulative / capacity as f64, gbps)
        })
        .collect();
    Fig3Result {
        device: kind,
        capacity,
        volume_series: Series::from_points(
            format!("{kind} GB/s vs written multiple"),
            volume_points,
        ),
        time_series,
    }
}

/// The output the fig3 binary prints.
fn render(results: &[Fig3Result]) -> String {
    results
        .iter()
        .map(|r| format!("==== {} ====\n{}\n", r.device, render_fig3(r)))
        .collect()
}

/// `fig3::run_pipelined` on the same roster, segments and width.
pub fn reference() -> String {
    let results = fig3::run_pipelined(
        &roster(),
        &DeviceKind::ALL,
        &Fig3Config::paper(),
        SEGMENTS,
        &Executor::with_threads(THREADS),
    )
    .expect("reference fig3 run");
    render(&results)
}

/// Starts `kind`'s run on its primed device: the first doorbell.
fn prime(
    roster: &DeviceRoster,
    kind: DeviceKind,
    mut device: Box<dyn CheckpointDevice + Send>,
    seed: u64,
) -> Frozen {
    let cfg = Fig3Config::paper();
    let capacity = roster.capacity_of(kind);
    let volume = (capacity as f64 * cfg.capacity_multiple) as u64;
    let window = window(&cfg, volume);
    let segments = SEGMENTS as u64;
    let milestones = (1..=segments).map(|k| volume * k / segments).collect();
    let spec = JobSpec::new(AccessPattern::RandWrite, cfg.io_size, cfg.queue_depth)
        .with_byte_limit(volume)
        .with_throughput_window(window)
        .with_seed(derive(0xF163, seed));
    let job = ClosedLoopJob::start(&mut device, &spec)?;
    Ok(Leg {
        kind,
        capacity,
        window,
        milestones,
        completed: 0,
        device: device.checkpoint(),
        driver: job.checkpoint(),
    })
}

/// Runs one endurance unit.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Unit {
    let roster = roster();
    let seed = opts.seed;
    let mut unit = Unit::default();

    let setup = Instant::now();
    let primed: Vec<_> = DeviceKind::ALL
        .iter()
        .map(|&kind| (kind, build(&roster, kind, seed, tracer)))
        .collect();
    unit.setup_s = setup.elapsed().as_secs_f64();

    let rtts = Mutex::new(Vec::new());
    let busy_ns = AtomicU64::new(0);
    let observed: Mutex<Vec<(DeviceKind, Observed)>> = Mutex::new(Vec::new());
    let meter = Meter::start();
    let chains: Vec<(Frozen, Vec<Stage<'_>>)> = primed
        .into_iter()
        .map(|(kind, device)| {
            let stages = (0..SEGMENTS)
                .map(|_| {
                    let (roster, rtts, busy_ns, observed) = (&roster, &rtts, &busy_ns, &observed);
                    Box::new(move |frozen: Frozen| {
                        let started = Instant::now();
                        let Leg {
                            kind,
                            capacity,
                            window,
                            milestones,
                            completed,
                            device,
                            driver,
                        } = frozen?;
                        let mut dev = build(roster, kind, seed, tracer);
                        dev.restore_from(device).expect("own checkpoint restores");
                        let mut job = ClosedLoopJob::resume(driver);
                        job.run_until(&mut dev, milestones[completed.min(milestones.len() - 1)])?;
                        let completed = completed + 1;
                        if tracer.is_some() && completed == milestones.len() {
                            let counts = Observed::of(&dev);
                            observed.lock().expect("observed lock").push((kind, counts));
                        }
                        let leg = Leg {
                            kind,
                            capacity,
                            window,
                            milestones,
                            completed,
                            device: dev.checkpoint(),
                            driver: job.checkpoint(),
                        };
                        drop(dev);
                        let ns = started.elapsed().as_nanos() as u64;
                        busy_ns.fetch_add(ns, Ordering::Relaxed);
                        rtts.lock().expect("rtt lock").push(ns);
                        Ok(leg)
                    }) as Stage<'_>
                })
                .collect();
            (prime(&roster, kind, device, seed), stages)
        })
        .collect();
    let chains_started = Instant::now();
    let finished = Executor::with_threads(THREADS).run_chains(chains);
    let chains_wall = chains_started.elapsed().as_nanos() as f64;
    let mut results = Vec::with_capacity(finished.len());
    for leg in finished {
        match leg {
            Ok(leg) => {
                unit.ios += leg.driver.report.ios;
                results.push(finish(
                    leg.kind,
                    leg.capacity,
                    leg.window,
                    &leg.driver.report,
                ));
            }
            Err(e) => unit.failures.push(format!("device i/o error: {e}")),
        }
    }
    unit.finish(meter);
    unit.rtt_ns = rtts.into_inner().expect("rtt lock");

    unit.output = render(&results);
    if results.len() == DeviceKind::ALL.len() {
        let verdict = check_observation2(&results.iter().collect::<Vec<_>>());
        if !verdict.passed {
            unit.failures
                .push(format!("observation 2 violated:\n{verdict}"));
        }
    }
    if let Some(t) = tracer {
        t.set(
            "core.executor.utilization.endurance",
            busy_ns.into_inner() as f64 / (THREADS as f64 * chains_wall),
            "ratio",
        );
        record_device_counters(t, &observed.into_inner().expect("observed lock"));
    }
    unit
}

/// The sim-time counts that explain where endurance time goes.
fn record_device_counters(t: &Tracer, observed: &[(DeviceKind, Observed)]) {
    let (mut fragments, mut essd_ios) = (0.0, 0.0);
    for (kind, counts) in observed {
        if *kind == DeviceKind::LocalSsd {
            let host_pages = counts.get("ftl.host_pages_written");
            let relocated = counts.get("ftl.gc_pages_relocated");
            let gib = counts.get("host.write_bytes") / (1u64 << 30) as f64;
            t.set(
                "ftl.write_amplification",
                ratio(host_pages + relocated, host_pages),
                "ratio",
            );
            t.set(
                "ftl.gc_invocations_per_gib",
                ratio(counts.get("ftl.gc_invocations"), gib),
                "1/GiB",
            );
            t.set(
                "flash.programs_per_host_page",
                ratio(counts.get("flash.programs"), host_pages),
                "count",
            );
        } else {
            fragments +=
                counts.get("cluster.write_fragments") + counts.get("cluster.read_fragments");
            essd_ios += counts.get("host.writes") + counts.get("host.reads");
        }
    }
    t.set(
        "essd.cluster_fragments_per_io",
        ratio(fragments, essd_ios),
        "count",
    );
}
