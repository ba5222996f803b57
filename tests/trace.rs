//! Facade-level tests of the trace capture & replay subsystem: the full
//! generate → capture → save → load → replay loop on real device
//! models, with the same determinism bar as the segmented fig3 gates.

use std::path::PathBuf;
use unwritten_contract::core::experiments::trace::{self as trace_exp, TraceRunConfig};
use unwritten_contract::core::experiments::{durable, Chain, Executor, Store};
use unwritten_contract::core::report::render_trace_report;
use unwritten_contract::prelude::*;
use unwritten_contract::trace::{load_trace, save_trace};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("uc-facade-trace-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The acceptance loop end to end: generate a bursty trace, save it as a
/// `uc.trace.v1` record, load it back, replay it on the SSD and an ESSD
/// — twice — and require byte-identical reports.
#[test]
fn generate_save_load_replay_is_deterministic_on_real_devices() {
    let dir = temp_dir("e2e");
    let trace = TraceSpec::bursty(
        SimDuration::from_millis(1),
        SimDuration::from_millis(3),
        20_000.0,
    )
    .with_duration(SimDuration::from_millis(40))
    .with_io_size(64 << 10)
    .with_span(64 << 20)
    .generate();

    let path = dir.join("bursty.trace");
    save_trace(&path, &trace).unwrap();
    let loaded = load_trace(&path).unwrap();
    assert_eq!(loaded, trace, "save/load is lossless");

    let config = ReplayConfig::open_loop().with_window(SimDuration::from_millis(1));
    let run = |build: &dyn Fn() -> Box<dyn BlockDevice + Send>| {
        let mut dev = build();
        let report = replay_with(&mut dev, &loaded, &config).unwrap();
        (
            report.ios,
            report.bytes,
            report.finished_at,
            report.latency.mean(),
            report.latency.percentile(99.9),
        )
    };
    for build in [
        (&|| -> Box<dyn BlockDevice + Send> {
            Box::new(Ssd::new(SsdConfig::samsung_970_pro(128 << 20)))
        }) as &dyn Fn() -> Box<dyn BlockDevice + Send>,
        &|| Box::new(Essd::new(EssdConfig::aws_io2(128 << 20))),
        &|| Box::new(Essd::new(EssdConfig::alibaba_pl3(128 << 20))),
    ] {
        let first = run(build);
        let second = run(build);
        assert_eq!(first, second, "replay must be deterministic");
        assert_eq!(first.0, trace.len() as u64, "every entry replays");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Capture → replay closes the loop exactly: replaying a capture on an
/// identical fresh device, through a second recorder, re-captures the
/// *same trace* — the recorded submission timeline is a fixed point.
#[test]
fn replaying_a_capture_recaptures_the_same_trace() {
    let spec = JobSpec::new(AccessPattern::RandWrite, 8192, 8)
        .with_io_limit(300)
        .with_seed(42);
    let mut recorder = TraceRecorder::new(Ssd::new(SsdConfig::samsung_970_pro(128 << 20)));
    let live = run_job(&mut recorder, &spec).unwrap();
    let captured = recorder.into_trace();
    assert!(captured.len() as u64 >= live.ios);

    let mut second = TraceRecorder::new(Ssd::new(SsdConfig::samsung_970_pro(128 << 20)));
    let replayed = replay_with(&mut second, &captured, &ReplayConfig::open_loop()).unwrap();
    assert_eq!(replayed.ios, captured.len() as u64);
    let recaptured = second.into_trace();
    assert_eq!(
        recaptured, captured,
        "replay reproduces the captured submission timeline entry for entry"
    );
}

/// The full experiment is deterministic at any thread count and under
/// kill-and-resume through the on-disk store — the rendered report (the
/// CI artifact) is the equality witness, as for fig3.
#[test]
fn trace_experiment_report_survives_threads_and_kill_resume() {
    let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
    let trace = TraceSpec::bursty(
        SimDuration::from_millis(1),
        SimDuration::from_millis(3),
        15_000.0,
    )
    .with_duration(SimDuration::from_millis(30))
    .with_io_size(64 << 10)
    .with_span(64 << 20)
    .generate();
    let cfg = TraceRunConfig::open_loop(4)
        .with_replay(ReplayConfig::open_loop().with_window(SimDuration::from_millis(1)));

    let wide = trace_exp::run_pipelined(
        &roster,
        &DeviceKind::ALL,
        &trace,
        &cfg,
        &Executor::with_threads(3),
    )
    .unwrap();
    let narrow = trace_exp::run_pipelined(
        &roster,
        &DeviceKind::ALL,
        &trace,
        &cfg,
        &Executor::sequential(),
    )
    .unwrap();
    let reference = render_trace_report(&trace_exp::evaluate(wide));
    assert_eq!(
        reference,
        render_trace_report(&trace_exp::evaluate(narrow)),
        "thread count must not change the report"
    );

    // Kill-and-resume through the durable store.
    let dir = temp_dir("kill-resume");
    let store = Store::create(&dir).unwrap().with_resume(true);
    for &kind in &DeviceKind::ALL {
        let chain = trace_exp::chain(&roster, kind, &trace, &cfg);
        let mut partial = chain.start().unwrap();
        chain.advance(&mut partial).unwrap();
        store.save(&chain.checkpoint(&partial)).unwrap();
        // The interrupted process's state is dropped here: only the
        // on-disk checkpoint survives the "crash".
    }
    let resumed = durable::run(
        &trace_exp::chains(&roster, &DeviceKind::ALL, &trace, &cfg),
        &Executor::with_threads(2),
        Some(&store),
    )
    .unwrap();
    assert_eq!(
        reference,
        render_trace_report(&trace_exp::evaluate(resumed)),
        "kill-and-resume must render byte-identically"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--speed`-accelerated replay compresses the arrival timeline: the
/// run finishes earlier and the compressed bursts queue harder — the
/// mechanism behind the trace experiment's overdrive violations.
#[test]
fn speed_compresses_bursts_into_violations() {
    let trace = TraceSpec::bursty(
        SimDuration::from_millis(1),
        SimDuration::from_millis(3),
        15_000.0,
    )
    .with_duration(SimDuration::from_millis(30))
    .with_io_size(64 << 10)
    .with_span(64 << 20)
    .generate();
    let mut dev = Essd::new(EssdConfig::aws_io2(128 << 20));
    let normal = replay_with(&mut dev, &trace, &ReplayConfig::open_loop()).unwrap();
    let mut dev = Essd::new(EssdConfig::aws_io2(128 << 20));
    let fast = replay_with(
        &mut dev,
        &trace,
        &ReplayConfig::open_loop().with_speed(10.0),
    )
    .unwrap();
    assert_eq!(fast.ios, normal.ios);
    assert!(fast.finished_at < normal.finished_at);
    assert!(
        fast.latency.mean() > normal.latency.mean(),
        "10x-compressed bursts must queue harder ({} vs {})",
        fast.latency.mean().as_micros_f64(),
        normal.latency.mean().as_micros_f64()
    );
}
