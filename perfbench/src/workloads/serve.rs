//! `serve_loopback`: trace replay through the served frontend.
//!
//! An in-process `serve_events` loop (one thread) serves 3 device lanes
//! (ESSD-1, ESSD-2, SSD) on a loopback TCP endpoint. One client thread
//! replays a generated bursty trace (64 KiB, 80% writes, 1 s) on each
//! lane through a `RemoteDevice`, one doorbell outstanding at a time.
//! Every `submit_batch` round trip is timed at the client; that timing
//! is the measurement itself, not a layer wrapper.

use super::{derive, Meter, Opts, Tracer, Unit};
use crate::stats::{percentile, ratio};
use crate::timed::{sink, Granularity, Samples, Timed};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use uc_blockdev::{BlockDevice, Completion, IoRequest};
use uc_core::devices::{DeviceKind, DeviceRoster};
use uc_core::report::render_serve_report;
use uc_serve::{
    serve_events, Body, Endpoint, Frame, FrameHeader, Listener, PoolConfig, RemoteDevice, ServePool,
};
use uc_sim::{SimDuration, SimTime};
use uc_trace::TraceSpec;
use uc_workload::{replay_with, JobReport, ReplayConfig, Trace};

const LANES: usize = 3;

/// The pool's lanes, labeled as the serve binary labels them.
fn lanes(seed: u64) -> Vec<(String, Box<dyn BlockDevice + Send>)> {
    let roster = DeviceRoster::scaled_default();
    (0..LANES)
        .map(|i| {
            let kind = DeviceKind::ALL[i % DeviceKind::ALL.len()];
            let device = roster.build_seeded(kind, derive(0x5E12_0000 + i as u64, seed));
            (format!("lane{i}-{}", kind.label()), device)
        })
        .collect()
}

/// A fresh pool over the lanes, plus each lane's capacity.
fn pool(seed: u64) -> (ServePool, Vec<u64>) {
    let lanes = lanes(seed);
    let capacities = lanes.iter().map(|(_, d)| d.info().capacity()).collect();
    (ServePool::new(lanes, PoolConfig::default()), capacities)
}

/// The serve binary's bursty trace for lane `lane` of `capacity` bytes.
fn trace(lane: usize, capacity: u64, seed: u64) -> Trace {
    TraceSpec::bursty(
        SimDuration::from_millis(2),
        SimDuration::from_millis(6),
        40_000.0,
    )
    .with_duration(SimDuration::from_secs(1))
    .with_io_size(64 << 10)
    .with_write_ratio(0.8)
    .with_span(capacity)
    .with_seed(derive(0x7ACE + lane as u64, seed))
    .generate()
}

/// One lane's replay result, as compared between served and in-process.
fn summary(lane: usize, report: &JobReport) -> String {
    format!(
        "lane {lane} replay: {} I/Os, {} B, finished at {} ns, mean {} ns, p99.9 {} ns\n",
        report.ios,
        report.bytes,
        report.finished_at.as_nanos(),
        report.latency.mean().as_nanos(),
        report.latency.percentile(99.9).as_nanos()
    )
}

/// Replays every lane's trace in-process on a fresh pool, each lane's
/// device optionally timed per batch: the served run's baseline.
fn in_process(seed: u64, traces: &[Trace], timing: Option<&crate::timed::Sink>) -> String {
    let (pool, _) = pool(seed);
    let mut out = String::new();
    for (i, trace) in traces.iter().enumerate() {
        let mut device = pool.device(i).expect("lane exists");
        let report = match timing {
            None => replay_with(&mut device, trace, &ReplayConfig::open_loop()),
            Some(sink) => replay_with(
                &mut Timed::new(device, Granularity::Batch, sink),
                trace,
                &ReplayConfig::open_loop(),
            ),
        };
        match report {
            Ok(r) => out.push_str(&summary(i, &r)),
            Err(e) => out.push_str(&format!("lane {i} replay error: {e}\n")),
        }
    }
    render_serve_report(&pool.report()) + &out
}

/// Bytes on the wire for one `n`-request round trip: the Submit frame
/// and its Completions frame.
fn round_trip_bytes(n: usize) -> usize {
    let header = FrameHeader {
        session: 1,
        lane: 1,
        seq: 1,
    };
    let req = IoRequest::write(0, 64 << 10, SimTime::ZERO);
    let submit = Frame::new(header, Body::Submit { reqs: vec![req; n] });
    let completions = (0..n)
        .map(|i| Completion::of(i, &req, SimTime::from_nanos(1)))
        .collect();
    let reply = Frame::new(header, Body::Completions { completions });
    submit.encode().len() + reply.encode().len()
}

/// Runs one serve_loopback unit.
pub fn run(opts: &Opts, tracer: Option<&Tracer>) -> Unit {
    let seed = opts.seed;
    let mut unit = Unit::default();

    let setup = Instant::now();
    let (pool, capacities) = pool(seed);
    let pool = Arc::new(pool);
    let traces: Vec<Trace> = capacities
        .iter()
        .enumerate()
        .map(|(i, &capacity)| trace(i, capacity, seed))
        .collect();
    let endpoint = Endpoint::parse("tcp:127.0.0.1:0").expect("loopback endpoint");
    let listener = Listener::bind(&endpoint).expect("bind loopback listener");
    let bound = listener.local_endpoint().expect("bound endpoint");
    let server = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || serve_events(&listener, &pool, LANES))
    };
    let mut remotes: Vec<RemoteDevice> = (0..LANES)
        .map(|i| RemoteDevice::open(&bound, i as u32).expect("open served lane"))
        .collect();
    unit.setup_s = setup.elapsed().as_secs_f64();

    let round_trips = sink();
    let mut replays = String::new();
    let meter = Meter::start();
    for (i, (remote, trace)) in remotes.iter_mut().zip(&traces).enumerate() {
        let mut probe = Timed::new(remote, Granularity::Batch, &round_trips);
        match replay_with(&mut probe, trace, &ReplayConfig::open_loop()) {
            Ok(report) => {
                unit.ios += report.ios;
                replays.push_str(&summary(i, &report));
            }
            Err(e) => {
                unit.failures.push(format!("lane {i} replay error: {e}"));
                replays.push_str(&format!("lane {i} replay error: {e}\n"));
            }
        }
    }
    unit.finish(meter);

    for remote in remotes {
        unit.refused += remote.ring_full_splits() + remote.overload_retries();
        if let Err(e) = remote.close() {
            unit.failures.push(format!("closing a served session: {e}"));
        }
    }
    let stats = match server.join() {
        Ok(Ok(stats)) => stats,
        Ok(Err(e)) => {
            unit.failures.push(format!("event loop error: {e}"));
            Default::default()
        }
        Err(_) => {
            unit.failures.push("event loop thread panicked".to_string());
            Default::default()
        }
    };
    let report = pool.report();
    unit.refused += report.busy_ring_full + report.shed_overload;
    unit.output = render_serve_report(&report) + &replays;

    let samples: Samples = round_trips.lock().expect("round-trip sink").clone();
    unit.rtt_ns = samples.all_ns().into_iter().map(u64::from).collect();

    if opts.check || tracer.is_some() {
        let timing = tracer.map(|_| sink());
        let baseline = in_process(seed, &traces, timing.as_ref());
        if baseline != unit.output {
            unit.failures.push(format!(
                "served report differs from the in-process replay:\n{}\n--- in-process ---\n{}",
                unit.output, baseline
            ));
        }
        if let (Some(t), Some(timing)) = (tracer, timing) {
            let mut pool_ns = timing.lock().expect("pool sink").all_ns();
            let pool_p50 = percentile(&mut pool_ns, 50.0);
            t.set("serve.pool_submit_ns.p50", pool_p50 as f64, "ns");
            t.set(
                "serve.pool_submit_ns.p99",
                percentile(&mut pool_ns, 99.0) as f64,
                "ns",
            );
            let mut rtt = unit.rtt_ns.clone();
            let rtt_p50 = percentile(&mut rtt, 50.0);
            t.set(
                "serve.wire_overhead_us",
                (rtt_p50 as f64 - pool_p50 as f64) / 1e3,
                "us",
            );
            let frames = stats.frames as f64;
            t.set(
                "serve.loop_polls_per_frame",
                ratio(stats.polls as f64, frames),
                "count",
            );
            t.set(
                "serve.loop_read_stalls_per_frame",
                ratio(stats.read_stalls as f64, frames),
                "count",
            );
            let mut sizes: BTreeMap<u32, usize> = BTreeMap::new();
            let bytes: usize = samples
                .batch_ios
                .iter()
                .map(|&n| {
                    *sizes
                        .entry(n)
                        .or_insert_with(|| round_trip_bytes(n as usize))
                })
                .sum();
            t.set(
                "serve.frame_bytes_per_io",
                ratio(bytes as f64, samples.ios as f64),
                "bytes",
            );
        }
    }
    unit
}
